"""Engine output pinned by recorded goldens, one grammar at a time.

``engine_record`` holds what the engine gives on one grammar, in both
modes: the FIRST and FOLLOW pairs in output order; each run's
``attempts``/``filtered``/``events`` and iteration rows, with the final
set's ``added``/``rejected``/``removed``; and ``first_of_string`` and
``query`` answers in order for a few category strings.  Per mode it also
holds the runs a guard stops: at each ``max_pairs`` in ``PAIR_LIMITS``
below the larger of the two final sets and at each ``max_iterations`` in
``ITERATION_LIMITS`` that stops a run, the function stopped, the guard and
the stats it reported.

Two goldens hold these records:

- ``tests/goldens/engine.json``, the whole record of each of 16 fixed-seed
  grammars from ``cf_oracle``, readable in a diff;
- ``tests/goldens/engine_digests.json``, the sha256 of each record, as JSON
  with sorted keys, of 104 more grammars: the ``LAYERED_EMPTY`` grammars,
  the fixtures with guard.gr under ``orth``, and three generators at fixed
  seeds.  A mismatch names the grammar and prints its text; compare its
  ``engine_record`` before and after the change.

The fixture goldens pin the CLI's bytes and the benchmark's goldens hash
sorted lines; these pin order and counters on grammars beyond them.

Re-record both, only for a change meant to alter these results, with

    PYTHONPATH=src python tests/test_engine_pin.py
"""

import hashlib
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
from cf_oracle import LAYERED_EMPTY, loosely_labelled_grammar, random_cf_grammar, random_feature_grammar
from support import fixture_path

GOLDEN = Path(__file__).parent / "goldens" / "engine.json"
DIGESTS = Path(__file__).parent / "goldens" / "engine_digests.json"
FIXTURES = ("fig1.gr", "cf-intro.gr", "agr.gr", "bench13.gr", "bench21.gr", "guard.gr")
PAIR_LIMITS = (1, 2, 3, 5, 8, 13)
ITERATION_LIMITS = (1, 2)


def sample_strings(text, rng):
    """Six strings of one to four of the categories of ``text``'s rules,
    printed."""
    cats = [c for r in parse_grammar(text).rules for c in r.roots()]
    return [" ".join(format_roots([rng.choice(cats)])[0] for _ in range(rng.randint(1, 4))) for _ in range(6)]


def generated_grammars():
    """The grammars of ``GOLDEN``, with the strings each is asked about."""
    rng = random.Random(2024)
    texts = [random_cf_grammar(rng)[0] for _ in range(8)]
    texts += [random_feature_grammar(rng) for _ in range(8)]
    return texts, [sample_strings(text, rng) for text in texts]


def pinned_grammars():
    """The grammars of ``DIGESTS``, as (name, text, strings): the
    hand-written ones with layered empty rules, the fixtures with guard.gr
    under orth, and three generators at fixed seeds.  A name is the family
    and the index in it."""
    named = [(f"LAYERED_EMPTY {i}", text) for i, text in enumerate(LAYERED_EMPTY)]
    for name in FIXTURES:
        with open(fixture_path(name), encoding="utf-8") as fh:
            restrict = "restrict orth.\n" if name == "guard.gr" else ""
            named.append((f"fixtures {name}", restrict + fh.read()))
    rng = random.Random(1414)
    named += [(f"random_cf_grammar {i}", random_cf_grammar(rng)[0]) for i in range(40)]
    named += [(f"random_feature_grammar {i}", random_feature_grammar(rng)) for i in range(40)]
    rng = random.Random(1616)
    named += [(f"loosely_labelled_grammar {i}", loosely_labelled_grammar(rng)) for i in range(16)]
    rng = random.Random(104)
    return [(name, text, sample_strings(text, rng)) for name, text in named]


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


def set_counts(pset):
    return {"added": pset.added, "rejected": pset.rejected, "removed": pset.removed}


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
            "first_stats": {**run_stats(fstats), **set_counts(first)},
            "follow": [format_pair(p) for p in follow],
            "follow_stats": {**run_stats(ostats), **set_counts(follow)},
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


def digest(record):
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def test_engine_output_matches_the_recorded_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(want) == 16
    for rec in want:
        assert engine_record(rec["grammar"], rec["strings"]) == rec, rec["grammar"]


def test_engine_output_matches_the_recorded_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    grammars = pinned_grammars()
    assert len(grammars) == 104
    assert list(want) == [name for name, *_ in grammars]
    for name, text, strings in grammars:
        got = digest(engine_record(text, strings))
        assert got == want[name], f"{name}: engine_record differs from the recorded one, on\n{text}"


if __name__ == "__main__":
    texts, strings = generated_grammars()
    doc = [engine_record(t, s) for t, s in zip(texts, strings)]
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    digests = {name: digest(engine_record(text, strings)) for name, text, strings in pinned_grammars()}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
