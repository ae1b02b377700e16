"""Self-tests of the benchmark's tracer and output checks.

Run from the repository root:  python3 perfbench/selftest.py
"""

import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import (Tracer, incl_under, self_time_errors,  # noqa: E402
                    summarize)


def fake_package():
    """fakepkg.inner.leaf is called by fakepkg.inner.work, which fakepkg.top
    imported by name, the way semiflux.cli imports its layers."""
    inner = types.ModuleType("fakepkg.inner")

    def leaf(n):
        time.sleep(0.002)
        return n

    def work(n):
        return sum(inner.leaf(i) for i in range(n))

    inner.leaf, inner.work = leaf, work
    top = types.ModuleType("fakepkg")
    top.work = work
    return {"fakepkg": top, "fakepkg.inner": inner}


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.modules = fake_package()
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def traced_call(self, tracer, n=3):
        idx = tracer.open("cli.top")
        t0 = time.perf_counter()
        self.modules["fakepkg"].work(n)
        tracer.close(idx, t0, time.perf_counter())

    def test_self_times_partition_the_root(self):
        tracer = Tracer(package="fakepkg")
        self.assertTrue(tracer.wrap("fakepkg.inner", "work", "layer.work"))
        self.assertTrue(tracer.wrap("fakepkg.inner", "leaf", "layer.leaf"))
        self.traced_call(tracer)
        summary = summarize(tracer.spans)
        by_name = summary["by_name"]
        self.assertEqual(by_name["layer.leaf"]["calls"], 3)
        self.assertEqual(by_name["layer.work"]["calls"], 1)
        self.assertGreaterEqual(summary["min_self"], 0.0)
        self.assertEqual(self_time_errors(summary), [])
        root = summary["roots"][0]
        self.assertAlmostEqual(root["self_sum"], root["wall"], delta=1e-9)
        work = by_name["layer.work"]
        self.assertAlmostEqual(work["incl"] - work["self"],
                               by_name["layer.leaf"]["incl"], delta=1e-9)
        self.assertAlmostEqual(incl_under(tracer.spans, "layer.leaf",
                                          "layer.work"),
                               by_name["layer.leaf"]["incl"], delta=1e-12)
        self.assertEqual(incl_under(tracer.spans, "layer.leaf", "cli.other"),
                         0.0)

    def test_renamed_target_is_reported_absent(self):
        tracer = Tracer(package="fakepkg")
        self.assertFalse(tracer.wrap("fakepkg.inner", "renamed_away", "x"))
        self.assertFalse(tracer.wrap("fakepkg.gone", "work", "y"))
        self.assertEqual(tracer.absent,
                         ["fakepkg.inner.renamed_away", "fakepkg.gone.work"])
        self.traced_call(tracer)   # the run goes on without those spans
        self.assertEqual(summarize(tracer.spans)["by_name"].keys(),
                         {"cli.top"})

    def test_nested_same_name_counted_once(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 9.0, 0],
                 ["b", 2.0, 4.0, 1]]
        by_name = summarize(spans)["by_name"]
        self.assertEqual(by_name["b"]["incl"], 8.0)
        self.assertEqual(by_name["b"]["self"], 8.0)
        self.assertEqual(by_name["a"]["self"], 2.0)

    def test_inconsistent_spans_are_flagged(self):
        # a child outlasting its parent leaves the parent a negative self time
        spans = [["a", 0.0, 1.0, -1], ["b", 0.0, 2.0, 0]]
        errors = self_time_errors(summarize(spans))
        self.assertEqual(len(errors), 1)
        self.assertIn("negative self time", errors[0])
        summary = {"min_self": 0.0,
                   "roots": [{"name": "cli.solve", "wall": 1.0,
                              "self_sum": 1.5}]}
        self.assertIn("sum to", self_time_errors(summary)[0])

    def test_program_targets_resolve(self):
        import child  # noqa: F401  imports semiflux.cli from ./src
        tracer = Tracer()
        for module, func, span, after in child.TARGETS:
            tracer.wrap(module, func, span, after)
        self.assertEqual(tracer.absent, [])


class OutputCheckTest(unittest.TestCase):
    def test_numeric_tables(self):
        good = b"# step = 3\n# columns: x rho\n-1.5 2e-07\n0.25 1\n"
        self.assertTrue(run.numeric_body_ok(good, skip_first_line=False))
        self.assertFalse(run.numeric_body_ok(good.replace(b"2e-07", b"nan"),
                                             skip_first_line=False))
        self.assertFalse(run.numeric_body_ok(good.replace(b"1\n", b"-inf\n"),
                                             skip_first_line=False))
        self.assertFalse(run.numeric_body_ok(b"# header only\n",
                                             skip_first_line=False))
        csv = b"step,time\n0,0\n10,0.5\n"
        self.assertTrue(run.numeric_body_ok(csv, skip_first_line=True))

    def test_contraction_table(self):
        text = "iteration,distance,ratio\n0,0.1,nan\n1,0.01,0.1\n"
        self.assertTrue(run.contraction_ok(text))
        self.assertFalse(run.contraction_ok(text.replace("0.01,", "nan,")))
        self.assertFalse(run.contraction_ok(text.replace("0.1\n", "inf\n")))

    def test_json_finiteness(self):
        self.assertTrue(run.json_is_finite('{"a": [1.5, null]}'))
        self.assertFalse(run.json_is_finite('{"a": NaN}'))
        self.assertFalse(run.json_is_finite('[-Infinity]'))

    def test_import_breakdown(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       900 |        900 | site",
            "perfbench: import begin",
            "import time:      1000 |       1000 |   numpy.core",
            "import time:      2000 |       3000 | numpy",
            "import time:      4000 |       4000 |     scipy.integrate",
            "import time:       500 |       500 |   semiflux.model",
            "import time:        50 |        50 | json",
            "perfbench: import end",
            "import time:      7000 |       7000 | traceback",
        ])
        got = run.import_breakdown(stderr)
        self.assertAlmostEqual(got["setup.numpy_import_s"], 0.003)
        self.assertAlmostEqual(got["setup.scipy_import_s"], 0.004)
        self.assertAlmostEqual(got["setup.semiflux_import_s"], 0.0005)
        self.assertAlmostEqual(got["setup.other_import_s"], 0.00005)

    def test_cpu_time_at_reference_speed(self):
        # ticks reading REF_S / s = 2.0 and 1.0: the CPU ran at 1.5 times
        # the reference speed on average over them
        solve = {"cpu_s": 2.0, "ticks": 2, "ref_sum": 3.0}
        verify = {"cpu_s": 0.01, "ticks": 0, "ref_sum": 0.0}
        self.assertEqual(run.at_reference([solve], [solve]), 3.0)
        # a stretch without a tick takes the rate of the fallback's ticks
        self.assertAlmostEqual(run.at_reference([verify], [solve, verify]),
                               0.015, delta=1e-15)
        self.assertAlmostEqual(run.at_reference([solve, verify], [solve]),
                               3.015, delta=1e-15)
        with self.assertRaises(run.BenchError):
            run.at_reference([verify], [verify])


if __name__ == "__main__":
    unittest.main()
