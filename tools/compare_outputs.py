"""Run the acceptance command list from two source trees and list what
differs between them.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that `semiflux` is imported from (a
checkout's `src`).  Each tree runs every command as `python -m semiflux`,
one after another, in a fresh temporary directory of its own and with
relative paths only, so the two trees' outputs compare byte for byte.
Printed: every exit code, stdout or stderr line and output file that
differs (`timing.json` aside, and the milliseconds `picard` prints per
iteration masked); a JSON object file that differs is listed by the
keys it differs in, a nested key by its dotted path
(`summary.n_steps changed`).  Exits 1 on any difference, 0 when there is
none.  The workload configs are read from this checkout's
`perfbench/workloads`.
Standard library only.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
SCENARIOS = ("vacuum-rest", "gaussian-bump", "doping-ramp",
             "isothermal-bump", "charge-neutral-rest")
SKIPPED = {"timing.json"}                 # wall times, different every run
_WALL_MS = re.compile(r"\d+(\.\d+)? ms\b")
_RELAX = "n_cells = 200\ntau_list = 0.2, 0.1, 0.05\nwindow_lo = -2\n"


def inputs() -> dict:
    """{path under the work directory: text} of every config and table the
    commands read."""
    files = {f"cfg/{w}.cfg": (WORKLOADS / f"{w}.cfg").read_text()
             for w in ("store-dense", "march-sparse", "picard-slab",
                       "relax-ladder")}
    files.update({f"cfg/{name}.cfg": f"scenario = {name}\n"
                  for name in SCENARIOS})
    files["cfg/doping.dat"] = "-5.0 0.0\n5.0 0.1\n"
    files["cfg/doping-table.cfg"] = ("scenario = doping-ramp\nn_cells = 100\n"
                                     "t_end = 1\nb_table = cfg/doping.dat\n")
    files["cfg/relax-window.cfg"] = _RELAX + "window_hi = 2\n"
    files["cfg/relax-window-lo.cfg"] = _RELAX
    files["cfg/relax-plain.cfg"] = ("n_cells = 200\npressure_convention = "
                                    "plain\ntau_list = 0.2, 0.1, 0.05\n")
    files["cfg/picard-12.cfg"] = ("n_cells = 300\nepsilon = 0.01\n"
                                  "n_intervals = 12\n")
    files["cfg/neutral-periodic.cfg"] = (
        "scenario = charge-neutral-rest\nboundary = periodic\nn_cells = 200\n"
        "t_end = 1\ncadence = 10\n")
    # devices on either side of the uniform bound's hypotheses
    files["cfg/rising-damping.cfg"] = (
        "scenario = gaussian-bump\ndoping_mass = 0.3\ne_minus = 1\n"
        "damping_slope_coeff = -1\nn_cells = 200\nt_end = 1\ncadence = 10\n")
    files["cfg/neutral-undoped.cfg"] = ("scenario = charge-neutral-rest\n"
                                        "neutral_level = 0\n")
    files["cfg/relax-undamped.cfg"] = ("n_cells = 200\ndamping = 0\n"
                                       "tau_list = 0.2, 0.1, 0.05\n")
    return files


def _on(command: str, cfg: str, *extra) -> list:
    """`command` on cfg/`cfg`.cfg, writing to runs/`cfg`."""
    return [command, "--config", f"cfg/{cfg}.cfg", "--out-dir", f"runs/{cfg}",
            *extra]


COMMANDS = (
    _on("solve", "store-dense", "--seed", "3"),
    ["verify", "runs/store-dense"],
    _on("solve", "march-sparse", "--seed", "11"),
    ["verify", "runs/march-sparse", "--picard"],
    _on("picard", "picard-slab"),
    _on("relax", "relax-ladder"),
    *(_on("solve", name) for name in SCENARIOS),
    _on("solve", "doping-table"),
    _on("relax", "relax-window"),
    _on("relax", "relax-window-lo"),
    _on("relax", "relax-plain"),
    _on("picard", "picard-12"),
    _on("solve", "neutral-periodic"),
    ["verify", "runs/neutral-periodic", "--picard"],
    _on("solve", "rising-damping"),
    _on("solve", "neutral-undoped"),
    _on("relax", "relax-undamped"),
)


def run_tree(src: Path, work: Path) -> list:
    """Run `COMMANDS` with `src` on PYTHONPATH in `work`: one
    (exit code, stdout, stderr) per command, wall milliseconds masked."""
    for name, text in inputs().items():
        (work / name).parent.mkdir(parents=True, exist_ok=True)
        (work / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(src.resolve()),
           "PYTHONDONTWRITEBYTECODE": "1"}
    results = []
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "semiflux", *argv],
                              cwd=work, env=env, capture_output=True,
                              text=True)
        results.append((proc.returncode, _WALL_MS.sub("<ms> ms", proc.stdout),
                        proc.stderr))
    return results


def _lines_differing(kind: str, old: str, new: str) -> list:
    pairs = zip_longest(old.splitlines(), new.splitlines(),
                        fillvalue="<no line>")
    return [f"  {kind} line {i}: parent {a!r}, change {b!r}"
            for i, (a, b) in enumerate(pairs, start=1) if a != b]


def _key_changes(a: dict, b: dict, prefix: str = "") -> list:
    """'<key> removed', '<key> added' or '<key> changed' for each key the
    objects `a` and `b` differ in, descending into an object both hold
    under one key; a nested key by its dotted path."""
    found = []
    for key in sorted(a.keys() | b.keys()):
        path = prefix + key
        if key not in b or key not in a:
            found.append(f"{path} {'removed' if key not in b else 'added'}")
        elif isinstance(a[key], dict) and isinstance(b[key], dict):
            found += _key_changes(a[key], b[key], path + ".")
        elif a[key] != b[key]:
            found.append(f"{path} changed")
    return found


def _json_keys(old: bytes, new: bytes) -> str:
    """The keys two JSON objects differ in (`_key_changes`), or '' when
    either is not an object."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return ""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return ""
    return "; ".join(_key_changes(a, b))


def _files(work: Path) -> dict:
    return {p.relative_to(work).as_posix(): p.read_bytes()
            for p in sorted(work.rglob("*"))
            if p.is_file() and p.name not in SKIPPED}


def compare(parent_src: Path, change_src: Path) -> list:
    """Every difference between the two trees' runs, one line each."""
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / side for side in ("parent", "change")]
        runs = []
        for src, work in zip((parent_src, change_src), works):
            work.mkdir()
            runs.append((run_tree(src, work), _files(work)))
    (old_runs, old_files), (new_runs, new_files) = runs
    found = []
    for argv, old, new in zip(COMMANDS, old_runs, new_runs):
        lines = [*([f"  exit code: parent {old[0]}, change {new[0]}"]
                   if old[0] != new[0] else []),
                 *_lines_differing("stdout", old[1], new[1]),
                 *_lines_differing("stderr", old[2], new[2])]
        if lines:
            found += [f"semiflux {' '.join(argv)}:", *lines]
    for name in sorted(old_files.keys() | new_files.keys()):
        old, new = old_files.get(name), new_files.get(name)
        if old is None or new is None:
            found.append(f"{name}: only in the "
                         f"{'change' if old is None else 'parent'}")
        elif old != new:
            keys = _json_keys(old, new) if name.endswith(".json") else ""
            found.append(f"{name}: differs" + (f" ({keys})" if keys else ""))
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    found = compare(Path(args[0]), Path(args[1]))
    for line in found:
        print(line)
    print(f"{len(COMMANDS)} commands, {len(found)} line(s) of difference")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
