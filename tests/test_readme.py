"""The README's command synopsis, its study config examples and its
`monitors.csv` and `relax_table.csv` column lists against the parser, the
config key tables, the monitor columns and the relax table header they
document."""

import argparse
import re
from pathlib import Path

import pytest

from semiflux.cli import RELAX_COLUMNS, build_parser
from semiflux.config import PICARD_KEYS, RELAX_KEYS
from semiflux.monitors import MONITOR_COLUMNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


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
