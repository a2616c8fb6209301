"""Alternating benchmark pairs: this checkout against a base revision.

    python3 tools/bench_pairs.py BASE_REV [--workloads W [W ...]] [--pairs N]
        [--seconds S] [--seed K] [--out FILE]

Makes a ``git worktree`` of ``BASE_REV`` in a temporary directory and, for
each workload (default: every one ``BENCHMARK.json`` lists), runs
``perfbench/run.py --trace 0`` of the base and of this checkout, one run
at a time, ``--pairs`` times (default 10).  Pair i runs both sides at seed
K + i (default K = 1) and puts the base first when i is even and the
change first when it is odd, so a drift in the host's speed favours
neither side.

For each end-to-end metric it prints each side's median and quartiles,
the number of pairs the change won (was better in, by the metric's
``better``), and whether a speed claim on that metric holds: the change
won at least nine pairs in ten, and its median is better than the base's
by more than the base's interquartile range.  Beside ``peak_rss_mb`` it
prints each side's median ``attempted``, the ops a run made: perfbench
keeps one sample per op, so a faster side reads a higher peak.

Each side then makes one ``--trace 1`` run per workload at
``bench_trajectory.TRACE_SEED``.  Traced runs make a fixed number of ops,
so their per-layer counts repeat exactly, and every count that differs
between the two sides is printed; a change that leaves the work the same
prints none.

With ``--out`` the summary, op counts and moved counts are written into
FILE under the key ``pairs``, one entry per workload, keeping whatever
else the file holds.  Stdlib only.  Exits 1 when any run is incorrect;
the worktree is removed on exit either way.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_trajectory import ROOT, TRACE_SEED, count_differences, run  # noqa: E402

SIDES = ("base", "change")


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
    return {
        "base": {"q1": bq[0], "median": bq[1], "q3": bq[2], "runs": base},
        "change": {"q1": cq[0], "median": cq[1], "q3": cq[2], "runs": change},
        "wins": wins,
        "pairs": len(base),
        "claim_holds": wins * 10 >= 9 * len(base) and gap > bq[2] - bq[0],
    }


def summarize(pairs: list, end_to_end: list):
    """``compare`` for each end-to-end metric over ``pairs``, a list of
    (base run, change run) as ``bench_trajectory.run`` returns them; None
    when any run is incorrect."""
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
        verdict = "holds" if m["claim_holds"] else "does not hold"
        lines.append(
            f"{workload} {name}: base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  change won {m['wins']}/{m['pairs']}  claim {verdict}"
        )
        if name == "peak_rss_mb":
            lines.append(f"{workload} ops per run: base {ops['base']:.10g}  change {ops['change']:.10g}")
    lines.extend(moved)
    lines.append(f"{workload}: {len(moved)} per-layer counts moved")
    return lines


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def measure(workload: str, base_root: Path, pairs: int, seconds: float, seed: int) -> tuple:
    """(the untraced pairs, the traced pair), each pair (base run, change run)."""
    out = []
    for i in range(pairs):
        sides = [("base", base_root), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        got = {side: run(workload, seed + i, seconds, 0, root) for side, root in sides}
        out.append((got["base"], got["change"]))
        print(f"{workload}: pair {i + 1}/{pairs} at seed {seed + i} done", file=sys.stderr)
    traced = tuple(run(workload, TRACE_SEED, seconds, 1, root) for root in (base_root, ROOT))
    return out, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare this checkout against")
    ap.add_argument("--workloads", nargs="+", help="workloads to run (default: all)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload (default 10)")
    ap.add_argument("--seconds", type=float, help="length of each run (default: run_seconds)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    ap.add_argument("--out", type=Path, help="JSON file to write the summary into, under 'pairs'")
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
    base_root = tmp / "base"
    summaries, correct = {}, True
    try:
        git("worktree", "add", "--detach", str(base_root), commit)
        for w in workloads:
            pairs, traced = measure(w, base_root, args.pairs, seconds, args.seed)
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
            moved = count_differences(w, traced[0]["metrics"], traced[1]["metrics"])
            for line in report_lines(w, summary, ops, moved):
                print(line)
            summaries[w] = {
                "base": args.base,
                "base_commit": commit,
                "seconds": seconds,
                "seeds": [args.seed + i for i in range(args.pairs)],
                "metrics": summary,
                "ops_per_run": ops,
                "trace_seed": TRACE_SEED,
                "moved_counts": moved,
            }
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base_root)], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    if args.out is not None and summaries:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        doc.setdefault("pairs", {}).update(summaries)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
