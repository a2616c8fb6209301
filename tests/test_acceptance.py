"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import functools
import random
import time

import pytest

from featflow import fs
from featflow.cli import main
from featflow.firstfollow import (
    EPSILON,
    LimitExceeded,
    Pair,
    compare_modes,
    compute_first,
    compute_follow,
    first_of_string,
    format_pair,
    pair_equivalent,
    pair_subsumes,
)
from featflow.fs import deref
from featflow.grammar import (
    label_of,
    parse_category,
    parse_category_sequence,
    parse_grammar,
)
from cf_oracle import random_cf_grammar, random_feature_grammar
import lattice_tools as lt
from support import END, fixture_path, gen, has_path, load_fixture, oracle, project, scale_grammars


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({title}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({title}): PASS")

        return wrapper

    return deco


def pairs_match(computed, expected):
    assert len(computed) == len(expected), (
        f"{len(computed)} pairs computed, {len(expected)} expected: "
        + "; ".join(format_pair(p) for p in computed)
    )
    for e in expected:
        assert any(pair_equivalent(e, p) for p in computed), f"missing {format_pair(e)}"


@criterion(1, "golden FIRST fixpoint")
def test_criterion_1_golden_first():
    started = time.perf_counter()
    g = load_fixture("fig1.gr")
    first, stats = compute_first(g)
    elapsed = time.perf_counter() - started

    det = parse_category("det[ter=+]")
    n = parse_category("n[ter=+]")
    vtra = parse_category("vtra[ter=+]")
    vp_lhs, vp_rhs = parse_category_sequence("vp[agr=$1] vtra[agr=$1, ter=+]")
    np_det = parse_category_sequence("np[] det[ter=+]")
    s_det = parse_category_sequence("s[] det[ter=+]")
    s_vtra = parse_category_sequence("s[] vtra[ter=+]")
    expected = [
        Pair((det,), det),
        Pair((n,), n),
        Pair((vtra,), vtra),
        Pair((vp_lhs,), vp_rhs),
        Pair((np_det[0],), np_det[1]),
        Pair((parse_category("np[]"),), EPSILON),
        Pair((s_det[0],), s_det[1]),
        Pair((s_vtra[0],), s_vtra[1]),
    ]
    pairs_match(list(first), expected)

    vp_pairs = [p for p in first if not p.is_epsilon and label_of(p.lhs[0]) == "vp"]
    assert len(vp_pairs) == 1
    got = vp_pairs[0]
    assert deref(deref(got.lhs[0]).arcs["agr"]) is deref(deref(got.rhs).arcs["agr"]), (
        "agr must be one shared node across the VP pair"
    )
    assert stats.fixpoint and stats.rows[-1].additions == 0, "final pass must add nothing"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "golden on-demand string FIRST")
def test_criterion_2_string_first():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    out = first_of_string(first, g, parse_category_sequence("NP[] NP[] VP[]"))

    seq_det = parse_category_sequence("np[] np[] vp[] det[ter=+]")
    seq_vtra = parse_category_sequence("np[] np[] vp[agr=$1] vtra[agr=$1, ter=+]")
    expected = [
        Pair(tuple(seq_det[:3]), seq_det[3]),
        Pair(tuple(seq_vtra[:3]), seq_vtra[3]),
    ]
    pairs_match(list(out), expected)
    assert not any(p.is_epsilon for p in out), "the string must not derive the empty string"
    assert {label_of(p.rhs) for p in out} == {"det", "vtra"}
    assert out.rejected >= 1, "the second position must reproduce the det pair as a no-op"


@criterion(3, "context-free projection oracle")
def test_criterion_3_cf_projection():
    started = time.monotonic()
    g = load_fixture("cf-intro.gr")
    first, _ = compute_first(g)
    follow, _ = compute_follow(g, first)
    pf, po = project(first), project(follow)
    assert pf["s"] == {"det"} and pf["np"] == {"det"} and pf["vp"] == {"vtra"}
    assert po["np"] == {"vtra", END}
    assert po["s"] == {END} and po["vp"] == {END}

    rng = random.Random(20240202)
    empty_rules = 0
    for _ in range(200):
        text, rules, terminals, start = random_cf_grammar(rng)
        empty_rules += sum(1 for _, rhs in rules if not rhs)
        eng = parse_grammar(text)
        fset, _ = compute_first(eng)
        oset, _ = compute_follow(eng, fset)
        tables = oracle.CFTables(gen.Skeleton(tuple(rules), frozenset(terminals), start))
        eng_first, eng_follow = project(fset), project(oset)
        for sym in {lhs for lhs, _ in rules} | terminals:
            assert eng_first.get(sym, set()) == tables.first[sym], (text, sym)
            assert eng_follow.get(sym, set()) == tables.follow[sym], (text, sym)
    assert empty_rules > 50, "the sample must exercise empty rules"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(4, "FOLLOW binding preservation")
def test_criterion_4_follow_binding():
    g = load_fixture("agr.gr")
    first, _ = compute_first(g)
    follow, stats = compute_follow(g, first)
    assert stats.fixpoint
    hits = [
        p
        for p in follow
        if not p.is_epsilon and label_of(p.lhs[0]) == "n" and label_of(p.rhs) == "vint"
    ]
    assert len(hits) == 1
    got = hits[0]
    expected = parse_category_sequence("n[agr=$1, ter=+] vint[agr=$1, ter=+]")
    assert pair_equivalent(got, Pair((expected[0],), expected[1]))
    lhs_agr = deref(deref(got.lhs[0]).arcs["agr"])
    rhs_agr = deref(deref(got.rhs).arcs["agr"])
    assert lhs_agr is rhs_agr, "agr must be one shared node between lhs and rhs"


@criterion(5, "mode equivalence and iteration shape")
def test_criterion_5_modes_and_shape(capsys):
    for name in ("fig1.gr", "cf-intro.gr", "agr.gr", "guard.gr", "bench13.gr", "bench21.gr"):
        # guard.gr settles only with orth restricted
        rep = compare_modes(load_fixture(name, restrictor=["orth"] if name == "guard.gr" else None))
        assert rep.first_equivalent and rep.follow_equivalent, name
        for stats in (rep.first_stats, rep.follow_stats):
            if name == "fig1.gr":
                assert len(stats["naive"].rows) >= 2
                assert stats["active"].attempts < stats["naive"].attempts
            if len(stats["naive"].rows) >= 2:
                assert stats["active"].events < stats["naive"].events, name

    rng = random.Random(551)
    for _ in range(100):
        g = parse_grammar(random_feature_grammar(rng))
        rep = compare_modes(g)
        assert rep.first_equivalent and rep.follow_equivalent, g.name
        for stats in (rep.first_stats, rep.follow_stats):
            if len(stats["naive"].rows) >= 2:
                assert stats["active"].events < stats["naive"].events

    # agreement far past the random grammars' sizes, and with the
    # context-free FIRST and FOLLOW of each grammar's label skeleton
    for made in scale_grammars():
        g = parse_grammar(made.text, made.name)
        rep = compare_modes(g)
        assert rep.first_equivalent and rep.follow_equivalent, made.name
        first, _ = compute_first(g)
        follow, _ = compute_follow(g, first)
        tables = oracle.CFTables(made.skeleton)
        assert oracle.check_pairs(tables, first, "first") + oracle.check_pairs(tables, follow, "follow") == [], made.name

    g21 = load_fixture("bench21.gr")
    _, stats = compute_first(g21, "active")
    for row in stats.rows:
        assert row.considered <= row.total
    final = stats.rows[-1]
    assert final.considered < 0.25 * final.total, (
        f"final iteration considered {final.considered} vs total {final.total}"
    )

    code = main(["bench", fixture_path("bench21.gr")])
    out = capsys.readouterr().out
    assert code == 0
    assert "attempt ratio (naive/active):" in out


@criterion(6, "algebra property suite")
def test_criterion_6_algebra_laws():
    # exhaustive at depth <= 1 (closed under unification, so the common
    # extension cross-check is sound there)
    u1 = lt.exhaustive_universe(depth=1)
    pairs1 = [(a, b) for a in u1 for b in u1]
    triples1 = [(a, b, c) for a in u1[::2] for b in u1[::2] for c in u1[::2]]
    violations = (
        lt.check_idempotence(u1)
        + lt.check_commutativity(pairs1)
        + lt.check_associativity(triples1)
        + lt.check_unify_bounds(pairs1)
        + lt.check_common_extension(pairs1, u1)
        + lt.check_partial_order(u1, pairs1, triples1)
    )
    # every structure of depth <= 2 over two features and two atoms,
    # including the shared variants; quantifier pairs sampled
    u2 = lt.exhaustive_universe(depth=2)
    rng = random.Random(606)
    pairs2 = [(rng.choice(u2), rng.choice(u2)) for _ in range(2000)]
    triples2 = [tuple(rng.choice(u2) for _ in range(3)) for _ in range(1000)]
    violations += (
        lt.check_idempotence(u2)
        + lt.check_commutativity(pairs2)
        + lt.check_associativity(triples2)
        + lt.check_unify_bounds(pairs2)
        + lt.check_partial_order(u2, pairs2, triples2)
    )
    # randomized structures at depth <= 4 with sharing
    deep = [_random_structure(rng, 4) for _ in range(400)]
    pairs4 = [(rng.choice(deep), rng.choice(deep)) for _ in range(800)]
    triples4 = [tuple(rng.choice(deep) for _ in range(3)) for _ in range(400)]
    violations += (
        lt.check_idempotence(deep)
        + lt.check_commutativity(pairs4)
        + lt.check_associativity(triples4)
        + lt.check_unify_bounds(pairs4)
        + lt.check_partial_order(deep, pairs4, triples4)
    )
    assert violations == [], violations[:5]


def _random_structure(rng, depth):
    pool = []

    def build(d):
        roll = rng.random()
        if d == 0 or roll < 0.35:
            made = fs.atom(rng.choice("xy")) if rng.random() < 0.7 else fs.empty()
        else:
            arcs = {}
            for feat in ("f", "g"):
                if rng.random() < 0.6:
                    if pool and rng.random() < 0.25:
                        arcs[feat] = rng.choice(pool)
                    else:
                        arcs[feat] = build(d - 1)
            made = fs.Node(arcs=arcs)
        pool.append(made)
        return made

    return build(depth)


@criterion(7, "non-termination guard")
def test_criterion_7_guard(capsys):
    g = load_fixture("guard.gr")
    with pytest.raises(LimitExceeded) as err:
        compute_first(g)
    assert err.value.kind == "iterations"
    assert err.value.stats.rows and not err.value.stats.fixpoint  # reported with the last rows
    code = main(["first", fixture_path("guard.gr")])
    capsys.readouterr()
    assert code == 5

    restricted = load_fixture("guard.gr", restrictor=["orth"])
    first, stats = compute_first(restricted)
    assert stats.fixpoint and len(stats.rows) == 2
    assert project(first)["np"] == {"det"}
    code = main(["first", fixture_path("guard.gr"), "--restrictor", "orth"])
    capsys.readouterr()
    assert code == 0


@criterion(8, "antichain and restriction safety")
def test_criterion_8_stored_set_hygiene():
    fixtures = [
        ("fig1.gr", None),
        ("cf-intro.gr", None),
        ("agr.gr", None),
        ("bench13.gr", None),
        ("bench21.gr", None),
        ("guard.gr", ["orth"]),
    ]
    for name, restrictor in fixtures:
        g = load_fixture(name, restrictor=restrictor)
        first, _ = compute_first(g)
        follow, _ = compute_follow(g, first)
        for pairset in (first, follow):
            pairs = list(pairset)
            for p in pairs:
                for q in pairs:
                    if p is not q:
                        assert not pair_subsumes(p, q), (
                            name,
                            format_pair(p),
                            format_pair(q),
                        )
                roots = list(p.lhs) + ([] if p.is_epsilon else [p.rhs])
                for root in roots:
                    for path in g.restrictor:
                        assert not has_path(root, path), (name, format_pair(p), path)
