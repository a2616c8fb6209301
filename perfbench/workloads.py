"""Workload pools, the timed operations, and their golden digests.

A workload's pool is a fixed list of generated inputs, chosen once by
``record_goldens.py`` and stored with their goldens in ``goldens/``.  A
run seed orders an analysis pool, or the query grammar's pool of
strings, so every input a run sees has a golden.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import featflow
from featflow import firstfollow, grammar

import gen

GOLDENS = Path(__file__).resolve().parent / "goldens"

ANALYSIS = ("layered-wide", "dense-features")
QUERIES = "string-queries"
NAMES = (*ANALYSIS, QUERIES)

QUERY_POOL = 500  # query strings per string-queries grammar

FIXTURES = ("agr", "bench13", "bench21", "cf-intro", "fig1", "guard")
GUARD_RESTRICTOR = ("orth",)


def candidate(workload: str, index: int) -> gen.GeneratedGrammar:
    """Pool candidate ``index`` of a workload; the same on every run."""
    rng = gen.pool_rng(workload, index)
    name = f"{workload}/{index}"
    if workload == "layered-wide":
        n_rules = rng.randint(34, 52)
        return gen.layered_wide(rng, name, n_rules, rng.randint(12, min(30, n_rules // 2)))
    if workload == "dense-features":
        return gen.dense_features(rng, name, rng.randint(20, 26))
    return gen.layered_wide(rng, name, rng.randint(70, 80), rng.randint(24, 30))


def query_texts(index: int, g: gen.GeneratedGrammar) -> list:
    return gen.query_strings(random.Random(f"{QUERIES}/{index}/queries"), g, QUERY_POOL)


def load_goldens(workload: str) -> dict:
    with open(GOLDENS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def fixture_text(name: str) -> str:
    return (Path(featflow.__file__).parent / "fixtures" / f"{name}.gr").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# operations


class InvalidGrammar(Exception):
    """A grammar failed validation with errors."""


def errors_of(g) -> list:
    return [str(d) for d in grammar.validate(g) if d.severity == "error"]


@dataclass
class Built:
    """A validated grammar with its FIRST and FOLLOW fixpoints."""

    g: grammar.Grammar
    first: firstfollow.PairSet
    follow: firstfollow.PairSet


def build(text: str, name: str, restrictor=None, mode: str = "active") -> Built:
    """Parse and validate a grammar, then compute FIRST and FOLLOW.

    Layer functions are looked up on their modules at call time, so the
    tracer's wrappers see these calls."""
    g = grammar.parse_grammar(text, name)
    if restrictor is not None:
        g = g.with_restrictor(restrictor)
    errors = errors_of(g)
    if errors:
        raise InvalidGrammar("; ".join(errors))
    first, _ = firstfollow.compute_first(g, mode)
    follow, _ = firstfollow.compute_follow(g, first, mode)
    return Built(g, first, follow)


@dataclass
class Analysis:
    built: Built
    first_lines: list
    follow_lines: list


def analysis_op(text: str, name: str) -> Analysis:
    """The work of ``featflow first`` then ``featflow follow``: parse,
    validate, FIRST, FOLLOW (active mode), and render both sets."""
    built = build(text, name)
    return Analysis(
        built,
        [firstfollow.format_pair(p) for p in built.first],
        [firstfollow.format_pair(p) for p in built.follow],
    )


def digest(built: Built, first_lines=None, follow_lines=None) -> dict:
    """Pair counts and a hash of the sorted rendered pairs (sorted, so a
    change of insertion order alone is not drift)."""
    if first_lines is None:
        first_lines = [firstfollow.format_pair(p) for p in built.first]
        follow_lines = [firstfollow.format_pair(p) for p in built.follow]
    h = hashlib.sha256()
    h.update("\n".join(sorted(first_lines)).encode())
    h.update(b"\n--\n")
    h.update("\n".join(sorted(follow_lines)).encode())
    return {"first": len(first_lines), "follow": len(follow_lines), "sha256": h.hexdigest()}


@dataclass
class Answer:
    cats: list
    string_first: firstfollow.PairSet | None  # None: UnknownCategory
    first_values: list
    follow_values: list


def query_op(built: Built, text: str) -> Answer:
    """Parse a category string, take its FIRST, and look up FIRST and
    FOLLOW values for its first category.  An unknown label ends the op
    with ``UnknownCategory``, which is an expected outcome."""
    cats = grammar.parse_category_sequence(text)
    try:
        string_first = firstfollow.first_of_string(built.first, built.g, cats)
    except firstfollow.UnknownCategory:
        return Answer(cats, None, [], [])
    return Answer(
        cats,
        string_first,
        firstfollow.query(built.first, cats[0]),
        firstfollow.query(built.follow, cats[0]),
    )


def _render(values) -> list:
    return sorted(
        "ε" if isinstance(v, firstfollow.EpsilonMark) else grammar.format_roots([v])[0] for v in values
    )


def answer_digest(a: Answer) -> str:
    if a.string_first is None:
        return "UnknownCategory"
    lines = sorted(firstfollow.format_pair(p) for p in a.string_first)
    h = hashlib.sha256()
    for part in (lines, _render(a.first_values), _render(a.follow_values)):
        h.update("\n".join(part).encode())
        h.update(b"\n--\n")
    return f"{len(lines)}/{len(a.first_values)}/{len(a.follow_values)}:{h.hexdigest()[:16]}"


# ---------------------------------------------------------------------------
# bundled fixtures


def fixture_digests(mode: str = "active") -> dict:
    """Digest of every bundled fixture; ``guard`` with ``orth`` restricted."""
    return {
        name: digest(build(fixture_text(name), name, GUARD_RESTRICTOR if name == "guard" else None, mode))
        for name in FIXTURES
    }


def guard_unrestricted() -> str:
    """Outcome of the guard fixture without a restrictor: its pair set
    never settles, so the iteration or pair guard must fire."""
    try:
        build(fixture_text("guard"), "guard")
    except firstfollow.LimitExceeded as exc:
        return f"LimitExceeded:{exc.kind}"
    return "fixpoint"
