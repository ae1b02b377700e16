"""The README's command synopsis, its study config examples, its
`monitors.csv` and `relax_table.csv` column lists and its
`picard_report.json` key list against the parser, the config key tables,
the monitor columns, the relax table header and the keys `picard` writes;
and every constant and `module.name` it quotes against the package."""

import argparse
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import semiflux
from semiflux.cli import RELAX_COLUMNS, build_parser, main
from semiflux.config import PICARD_KEYS, RELAX_KEYS
from semiflux.monitors import MONITOR_COLUMNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def inline_names(pattern: str) -> set:
    """The names matching `pattern` inside the README's inline code spans,
    fenced blocks aside."""
    prose = re.sub(r"^```.*?^```", "", README, flags=re.S | re.M)
    return {name for span in re.findall(r"`([^`\n]+)`", prose)
            for name in re.findall(pattern, span)}


# a dotted name ending so is a file name; np and scipy name their own
FILE_SUFFIXES = {"py", "csv", "json", "dat", "cfg"}
OTHER_PACKAGES = {"np", "scipy"}


def parser_flags() -> dict:
    """{subcommand: its option strings}, help aside."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"}
            for name, p in sub.choices.items()}


def synopsis_flags() -> dict:
    """{subcommand: the flags its synopsis line names}."""
    lines = [ln for block in fenced_blocks("sh") for ln in block.splitlines()
             if ln.startswith("semiflux ")]
    return {ln.split()[1]: set(re.findall(r"--[a-z0-9][a-z0-9-]*", ln))
            for ln in lines}


def example_keys(name: str) -> set:
    """The keys an ini example headed `# name` sets, commented-out ones
    included."""
    block = next(b for b in fenced_blocks("ini")
                 if b.startswith(f"# {name}"))
    return {m.group(1) for m in
            re.finditer(r"^#?\s*([a-z_0-9]+)\s*=", block, re.M)}


def test_synopsis_matches_the_parser():
    assert synopsis_flags() == parser_flags()


@pytest.mark.parametrize("name,keys", [("picard.cfg", PICARD_KEYS),
                                       ("relax.cfg", RELAX_KEYS)],
                         ids=["picard", "relax"])
def test_study_examples_use_known_keys(name, keys):
    found = example_keys(name)
    assert found and found <= set(keys)


def test_monitor_columns_match_the_table():
    listed = re.search(r"`monitors\.csv` \(one\s+audited row [^`]*"
                       r"with the columns `([^`]*)`", README).group(1)
    assert tuple(re.split(r",\s*", listed)) == MONITOR_COLUMNS


def test_relax_columns_match_the_header():
    listed = re.search(r"`relax_table\.csv`\s+has the columns `([^`]*)`",
                       README).group(1)
    assert tuple(re.split(r",\s*", listed)) == RELAX_COLUMNS


def test_picard_report_keys_match_the_writer(tmp_path):
    listed = re.search(r"`picard_report\.json` has the keys `([^`]*)`",
                       README).group(1)
    cfg = tmp_path / "picard.cfg"
    cfg.write_text("n_cells = 100\n")
    out = tmp_path / "pic"
    assert main(["picard", "--config", str(cfg), "--out-dir", str(out)]) == 0
    written = json.loads((out / "picard_report.json").read_text())
    # the file's keys are sorted; the README lists them in reading order
    assert sorted(re.split(r",\s*", listed)) == list(written)


def test_quoted_module_names_resolve():
    missing = []
    for ref in inline_names(r"\b[a-z_]+\.[A-Za-z_]\w*"):
        module, _, name = ref.partition(".")
        if name in FILE_SUFFIXES or module in OTHER_PACKAGES:
            continue
        try:
            found = hasattr(importlib.import_module(f"semiflux.{module}"),
                            name)
        except ModuleNotFoundError:
            found = False
        if not found:
            missing.append(ref)
    assert not missing


def test_quoted_constants_resolve():
    # __main__ runs the command line on import
    modules = [importlib.import_module(f"semiflux.{m.name}")
               for m in pkgutil.iter_modules(semiflux.__path__)
               if m.name != "__main__"]
    constants = inline_names(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b")
    assert constants
    assert not [c for c in constants
                if not any(hasattr(m, c) for m in modules)]
