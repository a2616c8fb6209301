"""Write one BENCH_<PR>.json: every benchmark workload at fixed seeds.

    python3 tools/bench_trajectory.py PR [--seconds S] [--out PATH] [--against BENCH_N.json]

Runs ``perfbench/run.py`` of the checkout this file sits in, one run at a
time, for each workload that ``BENCHMARK.json`` lists:

- with ``--trace 0`` once per seed in ``SEEDS``, each ``--seconds`` long
  (default: the benchmark's ``run_seconds``), for the end-to-end metrics;
- with ``--trace 1`` once at ``TRACE_SEED``, for the per-layer calls,
  outcome counts and self times.

For each workload the file keeps every run's verdict (``correct``,
``attempted``, ``failed``), each end-to-end metric of every seed with
their median, and the traced run's per-layer metrics.  With ``--against``
it then prints each per-layer count (a metric with unit ``count``) that
differs from the same workload's count in an earlier file, one line each;
counts come from a fixed number of ops, so a change that should leave the
work the same prints nothing.  Stdlib only.  Exits 1 when any run is
incorrect or reports nothing, whatever the comparison shows.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TRACE_SEED = 7


def run(workload: str, seed: int, seconds: float, trace: int, root: Path = ROOT) -> dict:
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


def workload_entry(workload: str, seconds: float, end_to_end) -> dict:
    runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
    traced = run(workload, TRACE_SEED, seconds, 1)
    medians = {}
    for spec in end_to_end:
        values = [r["metrics"][spec["name"]]["value"] for r in runs if spec["name"] in r["metrics"]]
        medians[spec["name"]] = {
            "median": statistics.median(values) if values else None,
            "unit": spec["unit"],
            "runs": values,
        }
    verdicts = [{k: v for k, v in r.items() if k != "metrics"} for r in (*runs, traced)]
    return {"end_to_end": medians, "per_layer": traced["metrics"], "runs": verdicts}


def count_differences(report: dict, against: dict) -> list:
    """One line per per-layer count of ``report`` that differs from
    ``against``'s, or is in only one of them, workload by workload."""
    lines = []
    for name, entry in report["workloads"].items():
        new = entry["per_layer"]
        old = against.get("workloads", {}).get(name, {}).get("per_layer", {})
        for metric in sorted(set(new) | set(old)):
            was, now = old.get(metric, {}), new.get(metric, {})
            if "count" in (was.get("unit"), now.get("unit")) and was.get("value") != now.get("value"):
                lines.append(f"{name} {metric}: {was.get('value', 'absent')} -> {now.get('value', 'absent')}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pr", type=int, help="number of the change the file records")
    ap.add_argument("--seconds", type=float, help="length of each --trace 0 run (default: run_seconds)")
    ap.add_argument("--out", type=Path, help="output file (default: BENCH_<PR>.json in the checkout root)")
    ap.add_argument("--against", type=Path, help="an earlier BENCH_<N>.json whose per-layer counts to compare")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if seconds <= 0:
        ap.error("--seconds must be positive")
    against = None
    if args.against is not None:
        try:
            with open(args.against, encoding="utf-8") as fh:
                against = json.load(fh)
        except (OSError, ValueError) as exc:
            ap.error(f"--against: {exc}")

    workloads = {}
    for w in bench["workloads"]:
        workloads[w["name"]] = workload_entry(w["name"], seconds, bench["end_to_end"])
        verdicts = [r["correct"] for r in workloads[w["name"]]["runs"]]
        print(f"{w['name']}: {sum(verdicts)} of {len(verdicts)} runs correct", file=sys.stderr)
    correct = all(r["correct"] for w in workloads.values() for r in w["runs"])
    report = {
        "pr": args.pr,
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "correct": correct,
        "workloads": workloads,
    }
    out = args.out if args.out is not None else ROOT / f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    if against is not None:
        differences = count_differences(report, against)
        for line in differences:
            print(line)
        print(f"{len(differences)} per-layer counts differ from {args.against}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
