"""Choose the workload pools and record their goldens from the current code.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

Writes ``perfbench/goldens/<workload>.json`` (and ``fixtures.json`` when
run without arguments).  Only rerun it on code whose outputs are trusted:
the benchmark fails any run whose outputs differ from these files.

Pool choice.  Candidates are generated in index order.  A candidate is
kept when it validates without errors, reaches a fixpoint under the
default guards, and the work of one traced analysis op (``clone_many``
plus ``subsumes_many`` calls, a count that repeats exactly) falls inside
the workload's band.  Every run covers its whole pool, so the band only
keeps one pass over the pool short and its op costs alike; being a
count, it picks the same pool on any machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from featflow import firstfollow  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402

# pool size and accepted work band (clone_many + subsumes_many calls per op)
POOLS = {
    "layered-wide": (16, (36_000, 44_000)),
    "dense-features": (16, (40_000, 50_000)),
    "string-queries": (1, (0, float("inf"))),
}


def work(cand) -> int:
    tracer = tracing.Tracer()
    with tracer.installed():
        W.analysis_op(cand.text, cand.name)
    m = tracer.metrics()
    return m["fs.clone_many.calls"] + m["fs.subsumes_many.calls"]


def pool_of(workload):
    """Yield (index, candidate, work) for every kept candidate, in order."""
    size, band = POOLS[workload]
    index = kept = 0
    while kept < size:
        cand = W.candidate(workload, index)
        try:
            cost = work(cand)
        except (W.InvalidGrammar, firstfollow.LimitExceeded) as exc:
            print(f"{workload}/{index}: skipped, {exc}", file=sys.stderr)
        else:
            if band[0] <= cost <= band[1]:
                kept += 1
                print(f"{workload}/{index}: kept ({kept}/{size}), work {cost}", file=sys.stderr)
                yield index, cand, cost
        index += 1


def record_analysis(workload):
    pool = []
    for index, cand, cost in pool_of(workload):
        entry = {"index": index, "rules": cand.n_rules, "work": cost}
        entry.update(W.digest(W.build(cand.text, cand.name)))
        pool.append(entry)
    return {"workload": workload, "pool": pool}


def record_queries():
    pool = []
    for index, cand, cost in pool_of(W.QUERIES):
        built = W.build(cand.text, cand.name)
        entry = {"index": index, "rules": cand.n_rules, "work": cost}
        entry.update(W.digest(built))
        entry["answers"] = [W.answer_digest(W.query_op(built, q)) for q in W.query_texts(index, cand)]
        pool.append(entry)
    return {"workload": W.QUERIES, "pool": pool}


def write(name, doc):
    W.GOLDENS.mkdir(exist_ok=True)
    with open(W.GOLDENS / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    names = argv or [*W.NAMES, "fixtures"]
    for name in names:
        if name == "fixtures":
            write(name, {**W.fixture_digests(), "guard.unrestricted": W.guard_unrestricted()})
        elif name == W.QUERIES:
            write(name, record_queries())
        elif name in W.ANALYSIS:
            write(name, record_analysis(name))
        else:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
