"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: python child.py SPEC_JSON

SPEC_JSON holds "src" (the directory semiflux must be imported from),
"commands" (argument lists for semiflux.cli.main) and "trace" (bool).  The
pass imports semiflux.cli and runs the commands one after another in this
process, while speedmeter.py samples the CPU's speed.  It prints one JSON
object as its last line of standard output.
Command output is captured, so that line is the only one printed.
"""

import json
import sys
import time

from speedmeter import REF_S, SpeedMeter

# sampled from here on, so that set-up too is timed at the reference speed
_meter = SpeedMeter()
if __name__ == "__main__":
    _meter.start()

# the parent's spawn time and this stamp share CLOCK_MONOTONIC
sys.stderr.write("perfbench: import begin\n")
sys.stderr.flush()
_t_import = time.perf_counter()
import semiflux.cli  # noqa: E402

_import_s = time.perf_counter() - _t_import
_t_imported = time.clock_gettime(time.CLOCK_MONOTONIC)
# CPU time so far: interpreter start-up plus the import
_setup_cpu_s, _setup_ticks = _meter.mark()
sys.stderr.write("perfbench: import end\n")
sys.stderr.flush()

import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, incl_under, self_time_errors, summarize  # noqa: E402


def _count_step(tracer, args, result):
    tracer.counts["solver.steps"] += 1
    # a changed signature leaves cell_steps short instead of failing the step
    rho = getattr(args[0], "rho", None) if args else None
    if rho is not None:
        tracer.counts["solver.cell_steps"] += int(rho.size)


def _count_written(tracer, args, result):
    idx = tracer.open("trace.bookkeeping")
    t0 = time.perf_counter()
    for path in Path(result).rglob("*"):
        if path.is_file():
            tracer.counts["reporting.files_written"] += 1
            tracer.counts["reporting.bytes_written"] += path.stat().st_size
    tracer.close(idx, t0, time.perf_counter())


def _count_iterations(tracer, args, result):
    tracer.counts["picard.iterations"] += len(result.report.distances)


# (module, public function, span name, hook run after each call)
TARGETS = (
    ("semiflux.config", "parse_key_value", "setup.config", None),
    ("semiflux.config", "coerce", "setup.config", None),
    ("semiflux.scenarios", "make_setup", "setup.make_setup", None),
    ("semiflux.scenarios", "make_arrays", "setup.make_setup", None),
    ("semiflux.solver", "run", "solver.run", None),
    ("semiflux.solver", "stable_dt", "solver.stable_dt", None),
    ("semiflux.solver", "step", "solver.step", _count_step),
    ("semiflux.field", "solve_field", "field.solve_field", None),
    ("semiflux.monitors", "evaluate_trajectory", "monitors.evaluate", None),
    ("semiflux.monitors", "entropy_spot_check", "monitors.entropy", None),
    ("semiflux.reporting", "write_run_dir", "reporting.write", _count_written),
    ("semiflux.reporting", "load_run_dir", "reporting.read", None),
    ("semiflux.picard", "picard_solve", "picard.solve", _count_iterations),
    ("semiflux.picard", "picard_step", "picard.step", None),
    ("semiflux.relaxation", "relaxation_study", "relaxation.study", None),
    ("semiflux.relaxation", "drift_diffusion_run", "relaxation.dd", None),
    ("semiflux.relaxation", "drift_diffusion_step", "relaxation.dd_step",
     None),
    ("semiflux.relaxation", "rescale", "relaxation.rescale", None),
)


def layer_metrics(tracer: Tracer) -> dict:
    summary = summarize(tracer.spans)
    by_name = summary["by_name"]

    def incl(name):
        return by_name.get(name, {}).get("incl", 0.0)

    def self_t(name):
        return by_name.get(name, {}).get("self", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    counts = tracer.counts
    run_s = incl("solver.run")
    cell_steps = counts["solver.cell_steps"]
    cli_other = sum(v["self"] for k, v in by_name.items()
                    if k.startswith("cli."))
    return {
        "metrics": {
            "setup.config_s": incl("setup.config"),
            "setup.make_setup_s": incl("setup.make_setup"),
            "solver.run_s": run_s,
            "solver.step_s": self_t("solver.step"),
            "solver.stable_dt_s": incl("solver.stable_dt"),
            "solver.steps": counts["solver.steps"],
            "solver.cell_steps": cell_steps,
            "solver.cell_steps_per_s": cell_steps / run_s if run_s > 0 else 0.0,
            "field.solve_field_s": incl("field.solve_field"),
            "field.calls": calls("field.solve_field"),
            "monitors.evaluate_s": incl("monitors.evaluate"),
            "monitors.entropy_s": incl("monitors.entropy"),
            "reporting.write_s": incl("reporting.write"),
            "reporting.files_written": counts["reporting.files_written"],
            "reporting.bytes_written": counts["reporting.bytes_written"],
            "reporting.read_s": incl("reporting.read"),
            "picard.solve_s": incl("picard.solve"),
            "picard.step_s": incl("picard.step"),
            "picard.step_calls": calls("picard.step"),
            "picard.iterations": counts["picard.iterations"],
            "relaxation.study_s": incl("relaxation.study"),
            "relaxation.dd_s": incl("relaxation.dd"),
            "relaxation.dd_steps": calls("relaxation.dd_step"),
            "relaxation.hydro_s": incl_under(tracer.spans, "solver.run",
                                             "relaxation.study"),
            "relaxation.rescale_s": incl("relaxation.rescale"),
            "cli.other_s": cli_other,
        },
        "self_test_errors": self_time_errors(summary),
        "absent": tracer.absent,
    }


def speed_record(cpu_s, n0, n1) -> dict:
    """CPU time of a stretch, its ticks and the sum of REF_S / s over
    them, so that run.py can pool the ticks of several stretches."""
    ticks = _meter.samples[n0:n1]
    return {"cpu_s": cpu_s, "ticks": len(ticks),
            "ref_sum": sum(REF_S / x for x in ticks)}


def run_command(argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    error = None
    idx = tracer.open("cli." + argv[0]) if tracer else None
    t0 = time.perf_counter()
    c0, n0 = _meter.mark()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = semiflux.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raising command is a counted failure, not a crash
        code = None
        error = traceback.format_exc()
    c1, n1 = _meter.mark()
    t1 = time.perf_counter()
    if tracer:
        tracer.close(idx, t0, t1)
    return {"argv": argv, "code": code, "error": error, "wall_s": t1 - t0,
            **speed_record(c1 - c0, n0, n1),
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    where = Path(semiflux.cli.__file__).resolve()
    if src not in where.parents:
        print(f"semiflux imported from {where}, expected under {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        for module, func, span, after in TARGETS:
            tracer.wrap(module, func, span, after)
    commands = [run_command(argv, tracer) for argv in spec["commands"]]
    _meter.stop()
    result = {
        "setup": speed_record(_setup_cpu_s, 0, _setup_ticks),
        "t_imported": _t_imported,
        "import_s": _import_s,
        "commands": commands,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "threads_env": {k: os.environ.get(k) for k in (
                         "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}},
    }
    if tracer:
        result["trace"] = layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _meter.stop()
    sys.exit(code)
