"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -v

The reporting and comparison tests are pure Python. The generator and
end-to-end check tests build the measuring program first (as run.py does),
which takes a minute or two on a fresh checkout.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import tempfile
import unittest
from pathlib import Path

import compare
import report
import run


def calls(estimates, early, queries=None):
    return {
        "query": list(range(len(estimates))) if queries is None else queries,
        "estimate": [float(e).hex() for e in estimates],
        "early": early,
        "ms": [],
    }


def clean_result():
    """Two queries: one with count 5, one unmatchable that stopped early."""
    examples = [
        {"split": "test", "size": 4, "count": 5.0},
        {"split": "train", "size": 4, "count": 0.0},
    ]
    seq = calls([3.0, 0.0], [0, 1])
    result = {
        "sequential": seq,
        "batch": copy.deepcopy(seq),
        "latency": calls([3.5, 0.0, 2.5], [0, 1, 0], queries=[0, 1, 0]),
        "fingerprints_ok": True,
    }
    return result, examples


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(report.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertAlmostEqual(report.percentile([0.0, 10.0], 25), 2.5)
        self.assertEqual(report.percentile([7.0], 99), 7.0)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(report.samples_beyond(1000, 99), 10)
        self.assertEqual(report.samples_beyond(999, 99), 9)
        values = [float(i) for i in range(1000)]
        self.assertAlmostEqual(report.timing_percentile(values, 99), 989.01)
        with self.assertRaises(ValueError):
            report.timing_percentile(values[:999], 99)

    def test_median_is_always_reportable(self):
        self.assertEqual(report.timing_percentile([2.0, 4.0], 50), 3.0)

    def test_fastest_calls_keep_each_querys_fastest_for_p99(self):
        # 250 queries issued in six passes, of which passes 1 and 3 were
        # slowed down: four calls of each query give 1000, ten beyond p99.
        queries = [q for _ in range(6) for q in range(250)]
        ms = [10.0 * q + (5.0 if i // 250 in (1, 3) else 0.0) + i / 1e6
              for i, q in enumerate(queries)]
        chosen = report.fastest_calls(queries, ms)
        self.assertEqual(len(chosen), 1000)
        self.assertEqual(report.samples_beyond(len(chosen), 99), 10)
        # Every query gives its four unslowed calls.
        for q in range(250):
            mine = [m for m in chosen if 10.0 * q <= m < 10.0 * q + 1.0]
            self.assertEqual(len(mine), 4)

    def test_qerror_is_symmetric_and_floored_at_one(self):
        self.assertEqual(report.qerror(10.0, 5.0), 2.0)
        self.assertEqual(report.qerror(5.0, 10.0), 2.0)
        self.assertEqual(report.qerror(0.0, 0.0), 1.0)


class OutputCheckTest(unittest.TestCase):
    def failures(self, result, examples, trace_names=None):
        _, failed, problems = report.check_outputs(result, examples,
                                                   trace_names)
        return failed, problems

    def test_clean_run_passes(self):
        result, examples = clean_result()
        attempted, failed, _ = report.check_outputs(result, examples)
        self.assertEqual(failed, 0)
        self.assertEqual(attempted, 2 + 2 + 3 + 1)

    def test_negative_nan_and_error_estimates_are_caught(self):
        for bad in ["-0x1p+0", "nan", "inf", "error: Internal: boom"]:
            result, examples = clean_result()
            result["latency"]["estimate"][2] = bad
            failed, _ = self.failures(result, examples)
            self.assertEqual(failed, 1, bad)

    def test_early_termination_on_matchable_query_is_caught(self):
        result, examples = clean_result()
        result["latency"]["early"][0] = 1
        failed, problems = self.failures(result, examples)
        self.assertEqual(failed, 1)
        self.assertIn("early termination on a query with a nonzero count",
                      problems)

    def test_batch_must_match_sequential_bit_for_bit(self):
        result, examples = clean_result()
        result["batch"]["estimate"][0] = math.nextafter(3.0, 4.0).hex()
        failed, problems = self.failures(result, examples)
        self.assertEqual(failed, 1)
        self.assertIn("EstimateBatch differs from sequential Estimate",
                      problems)

    def test_run_wide_checks(self):
        result, examples = clean_result()
        result["fingerprints_ok"] = False
        result["layers"] = {"arena_grows": 3}
        failed, _ = self.failures(result, examples, trace_names=set())
        self.assertEqual(failed, 3)
        result["fingerprints_ok"] = True
        result["layers"] = {"arena_grows": 0}
        failed, _ = self.failures(result, examples,
                                  trace_names=set(report.TRACED_SPANS))
        self.assertEqual(failed, 0)


class VerdictTest(unittest.TestCase):
    def test_verdicts(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        faster = [p * 0.8 for p in parent]
        slower = [p * 1.3 for p in parent]
        same = [p * 1.001 for p in reversed(parent)]
        wild = [1.0, 20.0, 5.0, 15.0, 2.0, 18.0, 3.0, 17.0, 9.0, 11.0]
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.1),
                         ("improved", 10))
        self.assertEqual(compare.verdict(parent, slower, "lower", 0.1)[0],
                         "worse")
        self.assertEqual(compare.verdict(parent, same, "lower", 0.1)[0],
                         "unchanged")
        self.assertEqual(compare.verdict(wild, wild, "lower", 0.1)[0],
                         "unresolved")
        self.assertEqual(compare.verdict(parent, slower, "higher", None)[0],
                         "improved")
        self.assertEqual(compare.verdict(parent, faster, "higher", None)[0],
                         "worse")


class RecordTest(unittest.TestCase):
    def test_sides_alternate_which_runs_first(self):
        self.assertEqual(compare.side_order(2), ("parent", "change"))
        self.assertEqual(compare.side_order(3), ("change", "parent"))
        firsts = [compare.side_order(s)[0] for s in range(1, 11)]
        self.assertEqual(firsts.count("parent"), 5)

    def diff(self, parent_digest, change_digest):
        with tempfile.TemporaryDirectory() as d:
            for side, digest in (("parent", parent_digest),
                                 ("change", change_digest)):
                out = Path(d) / side / "estimate_label_rich"
                out.mkdir(parents=True)
                line = {"inputs_sha256": digest, "correct": True,
                        "attempted": 1, "failed": 0,
                        "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
                (out / "seed1.trace0.json").write_text(json.dumps(line))
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                status = compare.cmd_diff(argparse.Namespace(dir=d))
        return status, printed.getvalue()

    def test_diff_refuses_runs_of_different_inputs(self):
        status, printed = self.diff("aa", "bb")
        self.assertEqual(status, 1)
        self.assertIn("REFUSED", printed)
        self.assertNotIn("setup_s", printed)

    def test_diff_compares_runs_of_the_same_inputs(self):
        status, printed = self.diff("aa", "aa")
        self.assertEqual(status, 0)
        self.assertIn("setup_s", printed)
        self.assertIn("unchanged", printed)


class ProgramTest(unittest.TestCase):
    """Drives the built measuring program."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.work = run.BUILD / "tests"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def gen(self, name):
        out = self.work / name
        out.mkdir()
        subprocess.run([str(self.binary), "gen", "--workload",
                        "estimate_label_rich", "--out", str(out)],
                       check=True, env=run.child_env())
        return out

    def inputs(self, name, seed):
        out = self.work / name
        run.make_inputs(self.binary, "estimate_label_rich", seed, out,
                        run.child_env())
        return out

    def test_generator_is_deterministic(self):
        a = self.gen("gen_a")
        b = self.gen("gen_b")
        for name in ["data.nscg", "queries.txt", "examples.tsv",
                     "manifest.tsv", "model.ckpt"]:
            self.assertEqual((a / name).read_bytes(), (b / name).read_bytes(),
                             name)

    def test_seed_reproducibility(self):
        a = self.inputs("seed1_a", 1)
        b = self.inputs("seed1_b", 1)
        c = self.inputs("seed2", 2)
        files = ["data.nscg", "queries.txt", "examples.tsv", "manifest.tsv",
                 "model.ckpt", "order.txt"]
        for name in files:
            self.assertEqual((a / name).read_bytes(), (b / name).read_bytes(),
                             name)

        def issued_fingerprints(d):
            """The data graph's fingerprint and the queries' fingerprints in
            issue order."""
            manifest = dict(line.split("\t") for line in
                            (d / "manifest.tsv").read_text().splitlines())
            rows = (d / "examples.tsv").read_text().splitlines()[1:]
            order = [int(q) for q in (d / "order.txt").read_text().split()]
            self.assertEqual(sorted(order), list(range(len(rows))))
            return manifest["data_fingerprint"], [
                rows[q].split("\t")[3] for q in order]

        self.assertEqual(issued_fingerprints(a), issued_fingerprints(b))
        self.assertNotEqual(issued_fingerprints(a), issued_fingerprints(c))

    def test_corrupted_estimate_is_caught(self):
        inputs = self.inputs("measured", 3)
        out = self.work / "result.json"
        subprocess.run([str(self.binary), "measure", "--workload",
                        "estimate_label_rich", "--inputs", str(inputs),
                        "--seconds", "1", "--trace", "0", "--out", str(out)],
                       check=True, env=run.child_env())
        result = json.loads(out.read_text())
        examples = report.read_examples(inputs / "examples.tsv")
        attempted, failed, _ = report.check_outputs(result, examples)
        self.assertGreater(attempted, 1000)
        self.assertEqual(failed, 0)

        matchable = next(i for i, q in enumerate(result["latency"]["query"])
                         if examples[q]["count"] > 0)
        result["latency"]["estimate"][matchable] = "-0x1p+3"
        _, failed, _ = report.check_outputs(result, examples)
        self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main()
