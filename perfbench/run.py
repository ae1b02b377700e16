"""End-to-end and per-layer benchmark of the semiflux command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each pass spawns a fresh interpreter (child.py) that imports semiflux.cli
from ./src and runs the workload's commands through semiflux.cli.main, one
pass at a time.  Passes repeat until S seconds have gone by; every metric is
the median over the passes; timings are CPU time at a reference speed
(speedmeter.py).  With --trace 0 the passes are untraced and the
end-to-end metrics are printed; with --trace 1 traced and untraced passes
alternate, and the per-layer metrics plus the tracing overhead are printed.
Every pass goes through the output-correctness gate.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_scratch"
DEADLINE_S = 170.0


def _solve_then_verify(verifies: int):
    def commands(cfg, out, seed):
        run_dir = str(out / "run")
        return [["solve", "--config", cfg, "--out-dir", run_dir,
                 "--seed", str(seed)]] + [["verify", run_dir]] * verifies
    return commands


# why each workload exists is in README.md; the command lists take the
# config path, the pass output directory and the seed
WORKLOADS = {
    "store-dense": _solve_then_verify(1),
    # one verify here takes about 35 ms, too short to time steadily alone
    "march-sparse": _solve_then_verify(10),
    "picard-slab": lambda cfg, out, seed: [
        ["picard", "--config", cfg, "--out-dir", str(out / "picard")]],
    "relax-ladder": lambda cfg, out, seed: [
        ["relax", "--config", cfg, "--out-dir", str(out / "relax")]],
}

EXPECTED_FILES = {
    "solve": ("report.json", "monitors.csv", "violations.json",
              "profile.dat", "timing.json"),
    "picard": ("contraction.csv", "picard_report.json"),
    "relax": ("relax_table.csv", "manifest.json"),
}

IMPORT_GROUPS = ("semiflux", "numpy", "scipy")

# the timings are CPU time at the reference speed: on a shared VM wall time
# also counts the time the host runs something else, and the CPU's speed
# itself drifts (speedmeter.py)
GATED = ("cpu_norm_s", "solve_norm_s", "verify_norm_s", "setup_s",
         "peak_rss_mb", "out_bytes")
# printed next to them, not gated: the meter's speed, raw CPU and wall times
RAW_KEYS = ("speed", "cpu_s", "solve_cpu_s", "verify_cpu_s", "setup_cpu_s",
            "wall_s", "solve_wall_s", "verify_wall_s", "setup_wall_s")

NUMERIC_BYTES = b"0123456789.eE+-, \n"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, a crashed pass)."""


# --- environment -------------------------------------------------------------

def git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(versions: dict) -> dict:
    return {"git_commit": git_commit(ROOT), "cpu_model": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)), **versions}


def child_env() -> dict:
    # inherited PYTHON* settings (no bytecode cache, -O, ...) would change
    # what a pass measures, so the child keeps only the interpreter's home
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


# --- one pass ----------------------------------------------------------------

def spawn(commands, traced: bool, deadline: float) -> tuple:
    """Run child.py once; return (result dict, stderr text, spawn stamp)."""
    spec = json.dumps({"src": str(SRC), "commands": commands,
                       "trace": traced})
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), spec]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past the benchmark's deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("pass printed no result")
    return json.loads(lines[-1]), err, t_spawn


def import_breakdown(stderr: str) -> dict:
    """Self time of each module imported by `import semiflux.cli`, from
    -X importtime, grouped into semiflux, numpy, scipy and the rest."""
    totals = {g: 0.0 for g in IMPORT_GROUPS + ("other",)}
    inside = False
    for line in stderr.splitlines():
        if line == "perfbench: import begin":
            inside = True
        elif line == "perfbench: import end":
            break
        elif inside and line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            root = parts[2].strip().split(".")[0]
            group = root if root in IMPORT_GROUPS else "other"
            totals[group] += int(parts[0]) * 1e-6
    return {f"setup.{g}_import_s": v for g, v in totals.items()}


def json_is_finite(text: str) -> bool:
    bad = []
    json.loads(text, parse_constant=bad.append)
    return not bad


def numeric_body_ok(data: bytes, skip_first_line: bool) -> bool:
    """Text tables: after '#' header lines (or the CSV header row) only
    digits, signs, exponents, separators and newlines may follow."""
    pos = 0
    if skip_first_line:
        pos = data.find(b"\n") + 1
    while data.startswith(b"#", pos):
        pos = data.find(b"\n", pos) + 1
    return pos > 0 and pos < len(data) \
        and not data[pos:].translate(None, NUMERIC_BYTES)


def contraction_ok(text: str) -> bool:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    for i, row in enumerate(rows):
        values = [float(v) for v in row[1:]]
        # the first sweep has no predecessor, so its ratio is nan by design
        checked = values[:1] if i == 0 else values
        if len(row) != 3 or not all(math.isfinite(v) for v in checked):
            return False
    return bool(rows)


def scan_outputs(out: Path) -> dict:
    """Size, hash and finiteness of every file the commands wrote."""
    files, nonfinite, total = {}, [], 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = str(path.relative_to(out))
        data = path.read_bytes()
        total += len(data)
        if path.name == "timing.json":
            continue
        files[rel] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".json":
            ok = json_is_finite(data.decode())
        elif path.name == "contraction.csv":
            ok = contraction_ok(data.decode())
        else:
            ok = numeric_body_ok(data, skip_first_line=path.suffix == ".csv")
        if not ok:
            nonfinite.append(rel)
    return {"hashes": files, "nonfinite": nonfinite, "bytes": total}


def close_enough(value, ref, tol: dict) -> bool:
    if isinstance(ref, (bool, int)) or ref is None:
        return value == ref
    return math.isclose(value, ref, rel_tol=tol["rel_tol"],
                        abs_tol=tol["abs_tol"])


def check_pass(commands: list, out: Path, scan: dict) -> dict:
    """Classify each command as ok or failed, collect verdicts and the
    values the reference gate compares."""
    failures, verdicts, values = [], {}, {}
    for cmd in commands:
        kind, reasons = cmd["argv"][0], []
        # exit 1 is a verdict for the other commands, a mismatch for verify
        ok_codes = (0,) if kind == "verify" else (0, 1)
        if cmd["error"] is not None:
            reasons.append("raised: " + cmd["error"].strip().splitlines()[-1])
        elif cmd["code"] not in ok_codes:
            reasons.append(f"exit {cmd['code']}: {cmd['stderr'].strip()}")
        if kind == "verify":
            for name in ("monitors.csv", "violations.json"):
                if f"{name}: byte-identical under recomputation" \
                        not in cmd["stdout"]:
                    reasons.append(f"verify: {name} not byte-identical")
        else:
            run_dir = Path(cmd["argv"][cmd["argv"].index("--out-dir") + 1])
            rel = run_dir.relative_to(out)
            missing = [f for f in EXPECTED_FILES[kind]
                       if not (run_dir / f).is_file()]
            if kind == "solve" and not any((run_dir / "snapshots").glob("*")):
                missing.append("snapshots/")
            if missing:
                reasons.append(f"missing outputs {missing}")
            bad = [f for f in scan["nonfinite"] if Path(f).parts[0] == rel.parts[0]]
            if bad:
                reasons.append(f"non-finite or garbled outputs {bad}")
            if not missing:
                try:
                    reasons += read_verdicts(kind, run_dir, cmd, verdicts,
                                             values)
                except (KeyError, IndexError, ValueError) as err:
                    reasons.append(f"unreadable outputs: {err!r}")
        if reasons:
            failures.append({"argv": cmd["argv"][0], "reasons": reasons})
    return {"failures": failures, "verdicts": verdicts, "values": values}


def read_verdicts(kind, run_dir, cmd, verdicts, values) -> list:
    verdicts[f"{kind}_exit"] = cmd["code"]
    if kind == "solve":
        report = json.loads((run_dir / "report.json").read_text())
        summary = report["summary"]
        viols = json.loads((run_dir / "violations.json").read_text())
        verdicts["violations"] = dict(sorted(
            Counter(v["monitor"] for v in viols).items()))
        lines = (run_dir / "monitors.csv").read_text().strip().splitlines()
        mass_col = lines[0].split(",").index("mass")
        values.update(n_steps=summary["n_steps"],
                      min_rho_ever=summary["min_rho_ever"],
                      final_excess_mass=float(lines[-1].split(",")[mass_col]))
        if summary["completed"] is not True:
            return ["march stopped early"]
    elif kind == "picard":
        report = json.loads((run_dir / "picard_report.json").read_text())
        rows = (run_dir / "contraction.csv").read_text().strip().splitlines()
        values.update(converged=report["converged"],
                      iterations=len(report["distances"]),
                      endpoint_gap=report["endpoint_gap"],
                      contraction_rows=len(rows) - 1)
        verdicts["converged"] = report["converged"]
    elif kind == "relax":
        manifest = json.loads((run_dir / "manifest.json").read_text())
        verdicts["monotone"] = manifest["monotone"]
    return []


def reference_errors(workload: str, values: dict, refs: dict) -> list:
    tol = refs["tolerance"]
    errors = []
    for key, ref in refs[workload].items():
        if key not in values:
            errors.append(f"{key}: no value to compare")
        elif not close_enough(values[key], ref, tol):
            errors.append(f"{key}: {values[key]!r} != reference {ref!r}")
    return errors


def trace_errors(workload: str, trace: dict, values: dict) -> list:
    """Self times are checked in the child; counts against outputs here."""
    errors = list(trace["self_test_errors"])
    layers, absent = trace["metrics"], trace["absent"]
    if workload in ("store-dense", "march-sparse") \
            and "semiflux.solver.step" not in absent \
            and layers["solver.steps"] != values.get("n_steps"):
        errors.append(f"solver.steps {layers['solver.steps']} != report "
                      f"n_steps {values.get('n_steps')}")
    if workload == "picard-slab" and "semiflux.picard.picard_solve" not in absent \
            and layers["picard.iterations"] != values.get("contraction_rows"):
        errors.append(f"picard.iterations {layers['picard.iterations']} != "
                      f"contraction.csv rows {values.get('contraction_rows')}")
    return errors


def speed_rate(stretches) -> float:
    """Reference CPU seconds per CPU second over the stretches' ticks."""
    ticks = sum(x["ticks"] for x in stretches)
    if ticks == 0:
        raise BenchError("the speed meter took no sample")
    return sum(x["ref_sum"] for x in stretches) / ticks


def at_reference(stretches, fallback) -> float:
    """Total CPU time of the stretches at the reference speed
    (speedmeter.py), from the ticks that fell in them, or in `fallback`
    when a stretch is too short to hold one."""
    pooled = stretches if sum(x["ticks"] for x in stretches) else fallback
    return sum(x["cpu_s"] for x in stretches) * speed_rate(pooled)


# --- a run: passes for --seconds --------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict) -> dict:
    cfg = str(HERE / "workloads" / f"{name}.cfg")
    out = SCRATCH / "out"
    deadline = time.monotonic() + DEADLINE_S
    # untimed warm-up: byte-compiles the sources and fills the file cache
    warm, _, _ = spawn([], False, deadline)
    env = environment(warm["versions"])

    passes, gate_errors, first_hashes = [], [], None
    attempted = failed = 0
    verdicts, absent = {}, set()
    t_start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 0
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        commands = WORKLOADS[name](cfg, out, seed)
        result, stderr, t_spawn = spawn(commands, traced, deadline)
        scan = scan_outputs(out)
        check = check_pass(result["commands"], out, scan)
        shutil.rmtree(out)

        n = len(passes) + 1
        attempted += len(commands)
        failed += len(check["failures"])
        gate_errors += [f"pass {n}: {f['argv']}: {r}"
                        for f in check["failures"] for r in f["reasons"]]
        if first_hashes is None:
            first_hashes = scan["hashes"]
        elif scan["hashes"] != first_hashes:
            diff = sorted(set(scan["hashes"].items())
                          ^ set(first_hashes.items()))
            gate_errors.append(f"pass {n}: outputs differ from pass 1: "
                               f"{sorted({k for k, _ in diff})[:5]}")
        gate_errors += [f"pass {n}: {e}" for e in
                        reference_errors(name, check["values"], refs)]
        verdicts, values = check["verdicts"], check["values"]

        cmds = result["commands"]
        walls = [c["wall_s"] for c in cmds]
        cpus = [c["cpu_s"] for c in cmds]
        rest = cmds[1:] or cmds
        whole = [result["setup"]] + cmds
        record = {
            "traced": traced,
            "speed": speed_rate(whole),
            "cpu_norm_s": at_reference(cmds, whole),
            "solve_norm_s": at_reference(cmds[:1], whole),
            "verify_norm_s": at_reference(rest, whole) / len(rest),
            "setup_s": at_reference([result["setup"]], whole),
            "cpu_s": sum(cpus),
            "solve_cpu_s": cpus[0],
            "verify_cpu_s": statistics.mean(cpus[1:] or cpus),
            "setup_cpu_s": result["setup"]["cpu_s"],
            "wall_s": sum(walls),
            "solve_wall_s": walls[0],
            "verify_wall_s": statistics.mean(walls[1:] or walls),
            "setup_wall_s": result["t_imported"] - t_spawn,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "out_bytes": scan["bytes"],
        }
        if traced:
            trace_data = result["trace"]
            absent.update(trace_data["absent"])
            gate_errors += [f"pass {n}: {e}" for e in
                            trace_errors(name, trace_data, check["values"])]
            record["layers"] = {"setup.import_s": result["import_s"],
                                **import_breakdown(stderr),
                                **trace_data["metrics"]}
        passes.append(record)

        # stop at the pass boundary nearest to --seconds
        elapsed = time.monotonic() - t_start
        per_pass = elapsed / len(passes)
        if (elapsed + 0.5 * per_pass >= seconds
                and len(passes) >= (2 if trace else 1)) \
                or time.monotonic() + 2 * per_pass > deadline:
            break

    return {"workload": name, "seed": seed, "env": env, "passes": passes,
            "attempted": attempted, "failed": failed,
            "gate_errors": gate_errors, "verdicts": verdicts,
            "values": values,
            "absent_spans": sorted(absent)}


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def metrics_of(run: dict, trace: bool, declared: list) -> dict:
    """Medians over passes of the metrics BENCHMARK.json declares."""
    untraced = [p for p in run["passes"] if not p["traced"]]
    if trace:
        traced = [p for p in run["passes"] if p["traced"]]
        wall_t = median_of(traced, "wall_s")
        wall_u = median_of(untraced, "wall_s")
        values = {key: statistics.median(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        values.update({"trace.wall_s": wall_t,
                       "trace.untraced_wall_s": wall_u,
                       "trace.overhead_s": wall_t - wall_u})
    else:
        values = {key: median_of(untraced, key) for key in GATED}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def raw_times(run: dict, trace: bool) -> dict:
    """Medians of the raw CPU and wall times, printed but not gated."""
    chosen = [p for p in run["passes"] if p["traced"] == trace]
    return {key: median_of(chosen, key) for key in RAW_KEYS}


def print_report(run: dict, metrics: dict, trace: bool):
    passes = run["passes"]
    n_t = sum(p["traced"] for p in passes)
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"passes {len(passes)} ({n_t} traced)")
    print("environment " + json.dumps(run["env"], sort_keys=True))
    print(f"verdicts {json.dumps(run['verdicts'], sort_keys=True)}")
    print(f"gated values {json.dumps(run['values'], sort_keys=True)}")
    if run["absent_spans"]:
        print(f"absent spans (renamed or removed): {run['absent_spans']}")
    for err in run["gate_errors"]:
        print(f"GATE: {err}")
    failed_frac = run["failed"] / run["attempted"]
    print(f"  {'failed_frac':<28} {failed_frac:>16.6g} frac  "
          f"({run['failed']} of {run['attempted']} operations)")
    key = "traced" if trace else "untraced"
    n = n_t if trace else len(passes) - n_t
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']:<6} "
              f"median of {n} {key} passes")
    for name, value in raw_times(run, trace).items():
        unit = "x" if name == "speed" else "s"
        print(f"  {name:<28} {value:>16.6g} {unit:<6} "
              f"median of {n} {key} passes (raw, not gated)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running pass is killed and scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "semiflux" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'semiflux'} is missing",
              file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, trace, refs)
            metrics = metrics_of(run, trace, declared)
            print_report(run, metrics, trace)
            print("detail " + json.dumps(run, sort_keys=True))
            results.append((run, metrics))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    # with --workload all, one result line per workload, in order
    for run, metrics in results:
        print(json.dumps({"correct": not run["gate_errors"]
                          and run["failed"] == 0,
                          "attempted": run["attempted"],
                          "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
