"""featflow benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; featflow is imported from its
``src/`` directory.  Workloads (see ``BENCHMARK.json`` for why each exists):

- ``layered-wide``, ``dense-features``: analysis ops (parse, validate,
  FIRST, FOLLOW in active mode, render both sets) over the workload's
  pool of grammars, in an order the seed shuffles;
- ``string-queries``: one grammar, whose FIRST and FOLLOW are built
  during set-up, then query ops (parse a category string, FIRST of the
  string, FIRST and FOLLOW lookups of its first category) over the
  grammar's pool of query strings, in an order the seed shuffles.

A run makes whole passes over its pool: it stops at the end of the first
pass that ends after ``--seconds``.  Op costs within a pool differ by up
to two times, so a part-pass would make the medians depend on which
inputs a seed puts first.

One process, one thread, one caller in a closed loop: each op starts when
the previous one has returned.  ``--trace 0`` runs ops for ``--seconds``
and prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
ops (so counts repeat exactly), first untraced and then traced, and prints
the per-layer metrics; spans go to ``.perfbench_out/``.

End-to-end times are normalised.  On a shared host the machine's speed
can drift by a quarter within minutes, which raw medians cannot hide.  So
a fixed pure-Python reference loop is timed around every block of ops
(one analysis op, or about 0.4 s of query ops) and around every set-up;
each time is divided by the mean of the two reference times around it,
and the ratio is scaled to a machine on which that loop takes
``NOMINAL_REF_MS``.  A change to featflow moves the op times and not the
loop's, so it moves the normalised times by the same share.  Wall-clock
times stay in the run's report in ``.perfbench_out/``.

Every op's output is checked against recorded goldens and against a
context-free oracle; after the measured ops, a seeded subset is checked
naive against active, and the bundled fixtures against their goldens.
Any mismatch, or any op that raises unexpectedly or hits a guard, makes
the run incorrect: it prints no metrics and exits with status 1.  The
last line of standard output is one JSON object.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))
try:
    import featflow
    from featflow import firstfollow, grammar

    import oracle
    import tracing
    import workloads as W
except ImportError as exc:  # no program in this checkout; main() refuses to run
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None

WORKLOADS = ("layered-wide", "dense-features", "string-queries")
SETUP_REPEATS = 3  # setup_s is the median over these
REF_EVERY_S = 0.4  # op time in one block between two reference loops
NOMINAL_REF_MS = 40.0  # normalised times assume the reference loop takes this
TRACE_OPS = {"layered-wide": 12, "dense-features": 12, "string-queries": 400}
NAIVE_CHECKS = 2  # analysis grammars per run checked naive against active

END_TO_END_UNITS = {
    "setup_s": "s",  # normalised, like the op times
    "op_norm_ms.p50": "ms",
    "op_norm_ms.p75": "ms",
    "ops_per_norm_s": "1/s",
    "peak_rss_mb": "MB",
}

perf = time.perf_counter


class SetupError(Exception):
    """Generated inputs or the query fixpoint disagree with the goldens."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def reference_loop_s() -> float:
    """A fixed pure-Python loop; its time shows the machine's speed.  It
    allocates no object the garbage collector tracks, so featflow's heap
    does not slow it."""
    t0 = perf()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf() - t0


def noise_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "reference_loop_s": reference_loop_s(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Bench:
    """One benchmark run: set-up, measured ops, checks, report."""

    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.problems = []
        self.failed = 0

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Generate, validate and (for string-queries) build the inputs."""
        goldens = W.load_goldens(self.workload)
        rng = random.Random(f"{self.workload}/run/{self.args.seed}")
        if self.workload in W.ANALYSIS:
            self.items = []
            for entry in rng.sample(goldens["pool"], len(goldens["pool"])):
                cand = W.candidate(self.workload, entry["index"])
                errors = W.errors_of(grammar.parse_grammar(cand.text, cand.name))
                if errors:
                    raise SetupError(f"{cand.name} does not validate: {errors}")
                self.items.append((cand, entry, oracle.CFTables(cand.skeleton)))
            self.kind = "analysis"
            self.pass_len = len(self.items)
            return
        entry = rng.choice(goldens["pool"])
        cand = W.candidate(self.workload, entry["index"])
        built = W.build(cand.text, cand.name)
        got = W.digest(built)
        if any(got[k] != entry[k] for k in ("first", "follow", "sha256")):
            raise SetupError(f"{cand.name}: FIRST/FOLLOW {got} differ from golden")
        texts = W.query_texts(entry["index"], cand)
        self.built, self.entry, self.texts = built, entry, texts
        self.stream = rng.sample(range(len(texts)), len(texts))
        self.tables = oracle.CFTables(cand.skeleton)
        self.kind = "query"
        self.pass_len = len(self.stream)

    # -- ops ---------------------------------------------------------------

    def op(self, k):
        if self.kind == "analysis":
            cand = self.items[k % len(self.items)][0]
            return W.analysis_op(cand.text, cand.name)
        return W.query_op(self.built, self.texts[self.stream[k % len(self.stream)]])

    def check(self, k, out):
        if self.kind == "analysis":
            cand, entry, tables = self.items[k % len(self.items)]
            got = W.digest(out.built, out.first_lines, out.follow_lines)
            if any(got[key] != entry[key] for key in ("first", "follow", "sha256")):
                self.problems.append(f"{cand.name}: output {got} differs from golden")
            self.problems.extend(oracle.check_pairs(tables, out.built.first, "first"))
            self.problems.extend(oracle.check_pairs(tables, out.built.follow, "follow"))
            return
        idx = self.stream[k % len(self.stream)]
        want = self.entry["answers"][idx]
        got = W.answer_digest(out)
        if got != want:
            self.problems.append(f"query {self.texts[idx]!r}: answer {got} differs from golden {want}")
        if out.string_first is not None:
            self.problems.extend(
                oracle.check_query(self.tables, out.cats, out.string_first, out.first_values, out.follow_values)
            )

    def loop(self, op, seconds=None, limit=None, normalised=None):
        """Closed loop over ops; returns per-op times in seconds.  Stops
        after ``limit`` ops, or at the end of the first pass over the pool
        that ends once ``seconds`` have passed.  Given a list as
        ``normalised``, times the reference loop around blocks of ops and
        appends each op's time divided by the mean of the two reference
        times around its block."""
        samples = []
        block = []
        ref_before = reference_loop_s() if normalised is not None else None
        start = perf()
        k = 0
        while limit is None or k < limit:
            t0 = perf()
            try:
                out = op(k)
            except Exception as exc:  # any raise is a failed op; the run reports it
                out = None
                self.failed += 1
                self.problems.append(f"op {k}: {type(exc).__name__}: {exc}")
            samples.append(perf() - t0)
            if out is not None:
                self.check(k, out)
            k += 1
            done = (limit is not None and k >= limit) or (
                seconds is not None and k % self.pass_len == 0 and perf() - start >= seconds
            )
            if normalised is not None:
                block.append(samples[-1])
                if done or sum(block) >= REF_EVERY_S:
                    ref_after = reference_loop_s()
                    ref = (ref_before + ref_after) / 2
                    normalised.extend(s / ref for s in block)
                    block, ref_before = [], ref_after
            if done:
                break
        return samples

    # -- checks after the measured ops ---------------------------------------

    def check_naive(self):
        """Naive against active, and naive against golden, on a seeded
        subset of the run's grammars.  On string-queries the subset comes
        from the layered-wide pool, made by the same generator: naive mode
        on the query grammar itself takes longer than the measured ops."""
        rng = random.Random(f"{self.workload}/naive/{self.args.seed}")
        if self.kind == "analysis":
            chosen = [(c, e) for c, e, _ in rng.sample(self.items, NAIVE_CHECKS)]
        else:
            pool = W.load_goldens("layered-wide")["pool"]
            chosen = [(W.candidate("layered-wide", e["index"]), e) for e in rng.sample(pool, NAIVE_CHECKS)]
        for cand, entry in chosen:
            active = W.build(cand.text, cand.name)
            naive = W.build(cand.text, cand.name, mode="naive")
            for kind in ("first", "follow"):
                if not firstfollow.pair_sets_equivalent(getattr(active, kind), getattr(naive, kind)):
                    self.problems.append(f"{cand.name}: naive and active {kind.upper()} differ")
            if W.digest(naive)["sha256"] != entry["sha256"]:
                self.problems.append(f"{cand.name}: naive output differs from golden")

    def check_fixtures(self):
        """Bundled fixtures in both modes against their goldens; without
        its restrictor the guard fixture must hit a guard (active mode
        only: naive mode takes seconds to get there)."""
        want = W.load_goldens("fixtures")
        for mode in firstfollow.MODES:
            for name, got in W.fixture_digests(mode).items():
                if got != want.get(name):
                    self.problems.append(f"fixture {name} ({mode}): {got} differs from golden {want.get(name)}")
        got = W.guard_unrestricted()
        if got != want.get("guard.unrestricted"):
            self.problems.append(f"fixture guard without restrictor: {got}, not {want.get('guard.unrestricted')}")


def op_stats(ms) -> dict:
    """Median, 75th percentile and throughput of per-op times in ms."""
    quartiles = statistics.quantiles(ms, n=4, method="inclusive") if len(ms) > 1 else [ms[0]] * 3
    return {"p50": statistics.median(ms), "p75": quartiles[2], "per_s": len(ms) * 1000 / sum(ms)}


def end_to_end(normalised, setup_s) -> dict:
    stats = op_stats([r * NOMINAL_REF_MS for r in normalised])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "op_norm_ms.p50": stats["p50"],
        "op_norm_ms.p75": stats["p75"],
        "ops_per_norm_s": stats["per_s"],
        "peak_rss_mb": rss_kb / 1024,
    }
    return {name: metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import featflow from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if Path(featflow.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: featflow came from {featflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = perf() - _STARTED

    bench = Bench(args)
    noise = {"before": noise_record()}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "noise": noise}
    try:
        setup_times, refs = [], [reference_loop_s()]
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = perf()
            bench.setup()
            setup_times.append(perf() - t0)
            refs.append(reference_loop_s())
    except (SetupError, W.InvalidGrammar, firstfollow.LimitExceeded, OSError, ValueError) as exc:
        bench.problems.append(f"set-up: {type(exc).__name__}: {exc}")
        samples, metrics = [], {}
    else:
        # normalised like op times: import by the first reference time,
        # each set-up by the mean of the two around it
        setup_s = (
            import_s / refs[0]
            + statistics.median(t * 2 / (a + b) for t, a, b in zip(setup_times, refs, refs[1:]))
        ) * NOMINAL_REF_MS / 1000
        if args.trace:
            limit = TRACE_OPS[args.workload]
            untraced = bench.loop(bench.op, limit=limit)
            tracer = tracing.Tracer()
            with tracer.installed():
                samples = bench.loop(lambda k: tracer.run_op(bench.kind, k, bench.op, k), limit=limit)
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = sum(samples) / sum(untraced)
            metrics = {name: metric(v, per_layer_unit(name)) for name, v in metrics.items()}
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
            report["spans"] = str(spans.relative_to(ROOT))
        else:
            normalised = []
            samples = bench.loop(bench.op, seconds=args.seconds, normalised=normalised)
            metrics = end_to_end(normalised, setup_s)
            report["wall_op_ms"] = op_stats([s * 1000 for s in samples])
            report["op_norm"] = normalised
        report["op_s"] = samples
        t0 = perf()
        try:
            bench.check_naive()
            bench.check_fixtures()
        except Exception as exc:  # a check that cannot finish fails the run
            bench.problems.append(f"checks: {type(exc).__name__}: {exc}")
        report["phase_s"] = {"import": import_s, "setup": setup_times, "checks": perf() - t0}
    noise["after"] = noise_record()

    correct = not bench.problems and bool(samples)
    result = {
        "correct": correct,
        "attempted": max(len(samples), 1),
        "failed": bench.failed if samples else 1,
        "metrics": metrics if correct else {},
    }
    report.update(result, problems=bench.problems)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for line in bench.problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(
        "noise: python {python} nproc {nproc} loadavg {before} -> {after} reference loop {ref0:.3f} s -> {ref1:.3f} s".format(
            python=noise["before"]["python"],
            nproc=noise["before"]["nproc"],
            before=noise["before"]["loadavg"][0],
            after=noise["after"]["loadavg"][0],
            ref0=noise["before"]["reference_loop_s"],
            ref1=noise["after"]["reference_loop_s"],
        )
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
