"""The benchmark command: this checkout against a base revision, in
alternating pairs of runs.

    python3 tools/bench_pairs.py BASE_REV [--workloads W [W ...]] [--pairs N]
        [--seconds S] [--seed K] [--out FILE]

Makes a ``git worktree`` of ``BASE_REV`` and a snapshot of this
checkout in a temporary directory: a copy of its files as they stand,
tracked or untracked but not ignored, so that the two sides differ only in
code, not in where they run from or what earlier runs left in them.  For
each workload (default: every one ``BENCHMARK.json`` lists), it runs
``perfbench/run.py --trace 0`` of the base and of the snapshot, one run
at a time, ``--pairs`` times (default 10), each run ``--seconds`` long
(default: the benchmark's ``run_seconds``).  Pair i runs both sides at
seed K + i (default K = 1) and puts the base first when i is even and the
change first when it is odd, so a drift in the host's speed favours
neither side.

For each end-to-end metric it prints each side's median and quartiles,
the number of pairs the change won (was better in, by the metric's
``better``), and whether a speed claim on that metric holds: over at
least ten pairs, the change won at least nine pairs in ten, and its median
is better than the base's by more than the base's interquartile range.
With fewer pairs the line says there were too few for a verdict.  Beside
``peak_rss_mb`` it prints each side's median ``attempted``, the ops a run
made: perfbench keeps one sample per op, so a faster side reads a higher
peak.

The rule treats the pairs as independent, but neighbouring pairs share the
host's drift over minutes.  On a change that only removed one call per
store, layered-wide ``op_norm_ms.p75`` lost 9 of 10 pairs at seeds 1-10,
by a median gap wider than the base's interquartile range, and won 6 of
10 at seeds 11-20.  So a verdict from one batch of seeds is confirmed at a
fresh batch (``--seed 11``) before a claim quotes it.

Each side then makes one ``--trace 1`` run per workload at ``TRACE_SEED``.
Traced runs make a fixed number of ops, so their per-layer counts repeat
exactly, and every count that differs between the two sides is printed; a
change that leaves the work the same prints none.

``--out`` writes the run's record, the file a speed claim quotes
(``--out BENCH_<PR>.json``): the Python version, the base revision and
its commit, the run length, the seeds and whether every run was correct;
and per workload the end-to-end summary, each side's median ops per run,
both sides' traced per-layer metrics and the counts that moved.  Stdlib
only.  Exits 1 when any run is incorrect; the worktree and the snapshot
are removed on exit either way.
"""

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 7
SIDES = ("base", "change")
MIN_PAIRS = 10  # the fewest pairs a verdict is given on


def run(workload: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """One benchmark run of the checkout at ``root``; its last line of
    output, or a failed verdict."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = proc.returncode
    if proc.returncode:
        result["correct"] = False
        result["stderr"] = proc.stderr.strip().splitlines()[-20:]
    return {"seed": seed, "trace": trace, **result}


def count_differences(workload: str, base: dict, change: dict) -> list:
    """One line per per-layer count (a metric with unit ``count``) whose
    value differs between the metrics of two traced runs of ``workload``,
    or that only one of them has.  Traced runs make a fixed number of ops,
    so two runs that do the same work give none."""
    lines = []
    for metric in sorted(set(base) | set(change)):
        was, now = base.get(metric, {}), change.get(metric, {})
        if "count" in (was.get("unit"), now.get("unit")) and was.get("value") != now.get("value"):
            lines.append(f"{workload} {metric}: {was.get('value', 'absent')} -> {now.get('value', 'absent')}")
    return lines


def quartiles(values: list) -> tuple:
    """(q1, median, q3), interpolating between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base: list, change: list, better: str) -> dict:
    """One metric over paired runs: ``base[i]`` and ``change[i]`` ran as
    pair i, and ``better`` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    bq, cq = quartiles(base), quartiles(change)
    gap = sign * (bq[1] - cq[1])  # above 0 when the change's median is better
    pairs = len(base)
    return {
        "base": {"q1": bq[0], "median": bq[1], "q3": bq[2], "runs": base},
        "change": {"q1": cq[0], "median": cq[1], "q3": cq[2], "runs": change},
        "wins": wins,
        "pairs": pairs,
        "claim_holds": pairs >= MIN_PAIRS and wins * 10 >= 9 * pairs and gap > bq[2] - bq[0],
    }


def summarize(pairs: list, end_to_end: list):
    """``compare`` for each end-to-end metric over ``pairs``, a list of
    (base run, change run) as ``run`` returns them; None when any run is
    incorrect."""
    if not all(r["correct"] for pair in pairs for r in pair):
        return None
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        out[name] = compare(base, change, spec["better"])
    return out


def ops_run(pairs: list) -> dict:
    """Each side's median ``attempted`` over ``pairs``: the ops its runs made."""
    return {side: statistics.median(pair[i]["attempted"] for pair in pairs) for i, side in enumerate(SIDES)}


def report_lines(workload: str, summary: dict, ops: dict, moved: list) -> list:
    lines = []
    for name, m in summary.items():
        b, c = m["base"], m["change"]
        if m["pairs"] < MIN_PAIRS:
            verdict = "too few pairs for a verdict"
        else:
            verdict = "claim holds" if m["claim_holds"] else "claim does not hold"
        lines.append(
            f"{workload} {name}: base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  change won {m['wins']}/{m['pairs']}  {verdict}"
        )
        if name == "peak_rss_mb":
            lines.append(f"{workload} ops per run: base {ops['base']:.10g}  change {ops['change']:.10g}")
    lines.extend(moved)
    lines.append(f"{workload}: {len(moved)} per-layer counts moved")
    return lines


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def snapshot(dest: Path) -> None:
    """Copy this checkout's files that git tracks or would track, as they
    stand on disk, to ``dest``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in dict.fromkeys(listed.split("\0")):
        source = ROOT / name
        if name and source.is_file():  # a tracked file may have been deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def measure(workload: str, roots: tuple, pairs: int, seconds: float, seed: int) -> tuple:
    """(the untraced pairs, the traced pair), each pair (base run, change
    run); ``roots`` are the base's and the change's checkouts."""
    out = []
    for i in range(pairs):
        sides = list(zip(SIDES, roots))
        if i % 2:
            sides.reverse()
        got = {side: run(workload, seed + i, seconds, 0, root) for side, root in sides}
        out.append((got["base"], got["change"]))
        print(f"{workload}: pair {i + 1}/{pairs} at seed {seed + i} done", file=sys.stderr)
    traced = tuple(run(workload, TRACE_SEED, seconds, 1, root) for root in roots)
    return out, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare this checkout against")
    ap.add_argument("--workloads", nargs="+", help="workloads to run (default: all)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload (default 10)")
    ap.add_argument("--seconds", type=float, help="length of each run (default: run_seconds)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    ap.add_argument("--out", type=Path, help="JSON file to write the run's record to")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or names
    for w in workloads:
        if w not in names:
            ap.error(f"unknown workload {w!r}; choose from {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.pairs < 1 or seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    try:
        commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        ap.error(f"not a revision: {args.base}")

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    roots = (tmp / "base", tmp / "change")
    entries, correct = {}, True
    try:
        git("worktree", "add", "--detach", str(roots[0]), commit)
        snapshot(roots[1])
        for w in workloads:
            pairs, traced = measure(w, roots, args.pairs, seconds, args.seed)
            summary = summarize(pairs, bench["end_to_end"])
            if summary is None or not all(r["correct"] for r in traced):
                correct = False
                for side, r in ((s, r) for pair in (*pairs, traced) for s, r in zip(SIDES, pair)):
                    if not r["correct"]:
                        print(f"{w}: {side} run at seed {r['seed']}, trace {r['trace']}, is incorrect", file=sys.stderr)
                        for line in r.get("stderr", []):
                            print(f"  {line}", file=sys.stderr)
                continue
            ops = ops_run(pairs)
            per_layer = {side: r["metrics"] for side, r in zip(SIDES, traced)}
            moved = count_differences(w, per_layer["base"], per_layer["change"])
            for line in report_lines(w, summary, ops, moved):
                print(line)
            entries[w] = {"end_to_end": summary, "ops_per_run": ops, "per_layer": per_layer, "moved_counts": moved}
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(roots[0])], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    if args.out is not None:
        record = {
            "python": platform.python_version(),
            "base": args.base,
            "base_commit": commit,
            "seconds": seconds,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "trace_seed": TRACE_SEED,
            "correct": correct,
            "workloads": entries,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
