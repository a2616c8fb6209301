"""Ordered engine output pinned on generated grammars.

``tests/goldens/engine.json`` holds, for 16 fixed-seed grammars from
``cf_oracle``, the FIRST and FOLLOW pairs in output order with
``attempts``/``filtered``/``events`` and the iteration rows, in both
modes, plus ``first_of_string`` and ``query`` answers in order for a few
category strings.  Per mode it also holds the runs a guard stops: at each
``max_pairs`` in ``PAIR_LIMITS`` below the larger of the two final sets
and at each ``max_iterations`` in ``ITERATION_LIMITS`` that stops a run,
the function stopped, the guard and the stats it reported.  The fixture goldens pin the CLI's bytes and the
benchmark's goldens hash sorted lines; this pins order and counters on
grammars the fixtures do not cover.

Re-record, only for a change meant to alter these results, with

    PYTHONPATH=src python tests/test_engine_pin.py
"""

import json
import random
from dataclasses import replace
from pathlib import Path

from featflow.firstfollow import (
    MODES,
    EpsilonMark,
    LimitExceeded,
    UnknownCategory,
    compute_first,
    compute_follow,
    first_of_string,
    format_pair,
    query,
)
from featflow.grammar import format_roots, parse_category_sequence, parse_grammar
from cf_oracle import random_cf_grammar, random_feature_grammar

GOLDEN = Path(__file__).parent / "goldens" / "engine.json"
PAIR_LIMITS = (1, 2, 3, 5, 8, 13)
ITERATION_LIMITS = (1, 2)


def generated_grammars():
    rng = random.Random(2024)
    texts = [random_cf_grammar(rng)[0] for _ in range(8)]
    texts += [random_feature_grammar(rng) for _ in range(8)]
    strings = []
    for text in texts:
        cats = [c for r in parse_grammar(text).rules for c in r.roots()]
        strings.append(
            [
                " ".join(format_roots([rng.choice(cats)])[0] for _ in range(rng.randint(1, 4)))
                for _ in range(6)
            ]
        )
    return texts, strings


def run_stats(stats):
    return {
        "attempts": stats.attempts,
        "filtered": stats.filtered,
        "events": stats.events,
        "rows": [[r.iteration, r.considered, r.total, r.attempts, r.additions] for r in stats.rows],
    }


def rendered(values):
    return ["ε" if isinstance(v, EpsilonMark) else format_roots([v])[0] for v in values]


def guard_stop(g, mode, **limit):
    """The guard stop of FIRST, then FOLLOW, of ``g`` under ``limit``, or
    None when both reach their fixpoint."""
    g = replace(g, **limit)
    try:
        compute_follow(g, compute_first(g, mode)[0], mode)
    except LimitExceeded as exc:
        return {**limit, "function": exc.function, "kind": exc.kind, "stats": run_stats(exc.stats)}
    return None


def engine_record(text, strings):
    g = parse_grammar(text)
    out = {"grammar": text, "strings": strings}
    for mode in MODES:
        first, fstats = compute_first(g, mode)
        follow, ostats = compute_follow(g, first, mode)
        larger = max(len(first), len(follow))
        stops = [guard_stop(g, mode, max_pairs=n) for n in PAIR_LIMITS if n < larger]
        stops += [guard_stop(g, mode, max_iterations=n) for n in ITERATION_LIMITS]
        out[mode] = {
            "first": [format_pair(p) for p in first],
            "first_stats": run_stats(fstats),
            "follow": [format_pair(p) for p in follow],
            "follow_stats": run_stats(ostats),
            "guard_stops": [stop for stop in stops if stop is not None],
        }
    answers = []
    for s in strings:
        cats = parse_category_sequence(s)
        try:
            got = [format_pair(p) for p in first_of_string(first, g, cats)]
        except UnknownCategory:
            got = "unknown"
        answers.append(
            {
                "first_of_string": got,
                "query_first": [rendered(query(first, c)) for c in cats],
                "query_follow": [rendered(query(follow, c)) for c in cats],
            }
        )
    out["answers"] = answers
    return out


def test_engine_output_matches_the_recorded_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(want) == 16
    for rec in want:
        assert engine_record(rec["grammar"], rec["strings"]) == rec, rec["grammar"]


if __name__ == "__main__":
    texts, strings = generated_grammars()
    doc = [engine_record(t, s) for t, s in zip(texts, strings)]
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
