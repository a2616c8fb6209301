"""Tests of the benchmark itself (not of featflow).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

End-to-end runs happen in a temporary copy of the checkout, so they
leave nothing behind in the source tree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from featflow import firstfollow, grammar  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def make_checkout(dest: Path, with_src=True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def bench_run(checkout: Path, workload, seed=1, seconds=1, trace=0):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepared(workload, seed):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=0)
    bench = run.Bench(args)
    bench.setup()
    if bench.kind == "analysis":
        return [cand.text for cand, _, _ in bench.items]
    return [bench.texts[i] for i in bench.stream]


class Inputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for workload in run.WORKLOADS:
            first = prepared(workload, 7)
            self.assertEqual(first, prepared(workload, 7))
            self.assertNotEqual(first, prepared(workload, 8))

    def test_pool_grammars_validate_cleanly(self):
        for workload in W.NAMES:
            for entry in W.load_goldens(workload)["pool"][:8]:
                cand = W.candidate(workload, entry["index"])
                g = grammar.parse_grammar(cand.text, cand.name)
                self.assertEqual(W.errors_of(g), [], cand.name)
                self.assertEqual(len(g.rules), entry["rules"])


class Goldens(unittest.TestCase):
    SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads as W
out = {}
for workload in W.ANALYSIS:
    for entry in W.load_goldens(workload)["pool"][:2]:
        cand = W.candidate(workload, entry["index"])
        out[cand.name] = W.digest(W.build(cand.text, cand.name))["sha256"]
entry = W.load_goldens(W.QUERIES)["pool"][0]
cand = W.candidate(W.QUERIES, entry["index"])
built = W.build(cand.text, cand.name)
out["answers"] = [W.answer_digest(W.query_op(built, q)) for q in W.query_texts(entry["index"], cand)[:40]]
out["fixtures"] = {**W.fixture_digests(), "guard.unrestricted": W.guard_unrestricted()}
print(json.dumps(out, sort_keys=True))
"""

    def test_goldens_hold_under_two_hash_seeds(self):
        outs = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            cmd = [sys.executable, "-c", self.SCRIPT, str(ROOT / "src"), str(HERE)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            outs.append(json.loads(proc.stdout))
        self.assertEqual(outs[0], outs[1])
        for workload in W.ANALYSIS:
            for entry in W.load_goldens(workload)["pool"][:2]:
                self.assertEqual(outs[0][f"{workload}/{entry['index']}"], entry["sha256"])
        self.assertEqual(outs[0]["answers"], W.load_goldens(W.QUERIES)["pool"][0]["answers"][:40])
        self.assertEqual(outs[0]["fixtures"], W.load_goldens("fixtures"))

    def test_unknown_category_outcomes_are_recorded(self):
        answers = [a for e in W.load_goldens(W.QUERIES)["pool"] for a in e["answers"]]
        self.assertIn("UnknownCategory", answers)


class Metrics(unittest.TestCase):
    def test_tracer_reports_exactly_the_declared_per_layer_metrics(self):
        tracer = tracing.Tracer()
        with tracer.installed():
            tracer.run_op("analysis", 0, W.analysis_op, W.fixture_text("bench21"), "bench21")
        names = set(tracer.metrics()) | {"trace.overhead_ratio"}
        self.assertEqual(names, {m["name"] for m in SPEC["per_layer"]})
        m = tracer.metrics()
        self.assertGreater(m["fs.clone_many.calls"], 0)
        self.assertGreater(m["grammar.validate.unify_calls"], 0)
        self.assertGreater(m["firstfollow.compute_first.attempts"], 0)
        # the originals are back once the block ends
        self.assertFalse(hasattr(firstfollow.compute_first, "__wrapped__"))

    def test_units_match_the_spec(self):
        for m in SPEC["end_to_end"]:
            self.assertEqual(run.END_TO_END_UNITS[m["name"]], m["unit"])
        for m in SPEC["per_layer"]:
            self.assertEqual(run.per_layer_unit(m["name"]), m["unit"])


class EndToEnd(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.dir = Path(self.tmp.name)

    def test_smoke_runs_pass_the_correctness_gate(self):
        checkout = make_checkout(self.dir)
        declared = {m["name"] for m in SPEC["end_to_end"]}
        for workload in run.WORKLOADS:
            proc = bench_run(checkout, workload)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = last_json(proc)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), declared)
        proc = bench_run(checkout, "dense-features", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(set(last_json(proc)["metrics"]), {m["name"] for m in SPEC["per_layer"]})

    def test_corrupted_golden_fails_the_run(self):
        checkout = make_checkout(self.dir)
        path = checkout / "perfbench" / "goldens" / "layered-wide.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        for entry in doc["pool"]:
            entry["sha256"] = "0" * 64
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = bench_run(checkout, "layered-wide")
        self.assertEqual(proc.returncode, 1)
        result = last_json(proc)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})

    def test_refuses_to_run_without_the_program(self):
        checkout = make_checkout(self.dir, with_src=False)
        proc = bench_run(checkout, "layered-wide")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
