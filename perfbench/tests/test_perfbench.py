"""Self-tests of the benchmark: isolation, seeds and the output check.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests

They build the benchmark binary (as run.py does) and run workloads at a
tiny size, so the whole file takes about a minute.
"""

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

TINY = {"observed": 0.05, "flood": 0.005, "reproduce": 0.1}


def tiny_run(binary, workload, seed):
    t0, out = run.spawn(binary, ["--workload", workload, "--seed", seed, "--days", TINY[workload]])
    assert out is not None, f"{workload} run failed"
    return t0, out


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("benchmark binary does not build here")

    def test_peak_rss_does_not_depend_on_run_order(self):
        # Every measured run is its own process, so a run's peak RSS is
        # the same whether a bigger workload ran before it or not.
        rss = {}
        for order in (("observed", "reproduce"), ("reproduce", "observed")):
            for w in order:
                t0, out = tiny_run(self.binary, w, run.DEFAULT_SEED)
                rss.setdefault(w, []).append(run.measure(t0, out)["peak_rss_mb"])
        for w, (first, second) in rss.items():
            self.assertAlmostEqual(first, second, delta=0.05 * max(first, second), msg=w)
        # The two workloads really differ in size, or the test shows nothing.
        self.assertGreater(max(rss["reproduce"]), 1.5 * max(rss["observed"]))

    def test_seed_reaches_the_program(self):
        for w in ("observed", "reproduce"):
            _, a = tiny_run(self.binary, w, run.DEFAULT_SEED)
            _, b = tiny_run(self.binary, w, run.DEFAULT_SEED)
            _, c = tiny_run(self.binary, w, run.HELDOUT_SEED)
            self.assertEqual(a["counts"], b["counts"], w)
            self.assertNotEqual(a["counts"]["fingerprint"], c["counts"]["fingerprint"], w)

    def test_prefix_fidelities_agree(self):
        for w in ("observed", "flood"):
            _, p = run.spawn(
                self.binary,
                ["--workload", w, "--seed", run.HELDOUT_SEED, "--days", TINY[w], "--mode", "prefix"],
            )
            self.assertEqual(run.check_prefix(p), [], w)

    def test_checker_counts_tampered_runs_as_failed(self):
        _, good = tiny_run(self.binary, "reproduce", run.DEFAULT_SEED)
        reference = good["counts"]
        self.assertEqual(run.check_run(good, reference), [])

        tampered = copy.deepcopy(good)
        tampered["counts"]["fingerprint"] ^= 1
        self.assertTrue(run.check_run(tampered, reference))

        off_by_one = copy.deepcopy(good)
        off_by_one["check"]["analysis_records"] += 1
        self.assertTrue(run.check_run(off_by_one, reference))

        empty = copy.deepcopy(good)
        empty["experiment_bytes"]["table1"] = 0
        self.assertTrue(run.check_run(empty, reference))

        self.assertTrue(run.check_prefix({"full": 1, "hybrid": 2}))

    def test_tampered_output_gives_nonzero_fail_frac(self):
        # Tamper with what one measured run prints, through the whole
        # invocation: the summary must count it as failed.
        real_spawn = run.spawn
        calls = {"n": 0}

        def spawn(binary, args, timeout=170):
            t0, out = real_spawn(binary, args, timeout)
            if out is not None and "--mode" not in args and "--days" in args:
                calls["n"] += 1
                if calls["n"] == 2:
                    out["counts"]["fingerprint"] ^= 1
                elif calls["n"] == 3:
                    out["check"]["sink_records"] += 1
            return t0, out

        # The first plain run is the warm-up; the next two are measured.
        run.spawn = spawn
        try:
            summary = run.run_workload(
                self.binary, "observed", run.HELDOUT_SEED, 5.0, False, days=TINY["observed"]
            )
        finally:
            run.spawn = real_spawn
        self.assertGreaterEqual(summary["runs"], 2)
        self.assertEqual(summary["failed"], 2)
        line = run.result_line(summary, False)
        self.assertFalse(line["correct"])
        self.assertGreater(line["failed"] / line["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
