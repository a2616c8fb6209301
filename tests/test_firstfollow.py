"""Engine behaviour: the antichain operator, fixpoints, modes, lookups."""

import collections
import dataclasses
import functools
import json
import random
from pathlib import Path

import pytest

import featflow
from featflow import firstfollow as ff
from featflow import fs
from featflow.fs import atom, deref
from featflow.firstfollow import (
    EPSILON,
    EpsilonMark,
    LimitExceeded,
    Pair,
    PairSet,
    UnknownCategory,
    MODES,
    _bind,
    _Recorder,
    compare_modes,
    compute_first,
    compute_follow,
    first_of_string,
    format_pair,
    pair_equivalent,
    pair_sets_equivalent,
    pair_subsumes,
    query,
)
from featflow.grammar import (
    format_roots,
    is_preterminal,
    label_of,
    parse_category,
    parse_category_sequence,
    parse_grammar,
)
from cf_oracle import (
    leftmost_terminals,
    loosely_labelled_grammar,
    random_cf_grammar,
    random_feature_grammar,
)
from support import gen, has_path, load_fixture, node_state, project, scale_grammars

ENGINE_GOLDEN = Path(__file__).parent / "goldens" / "engine.json"


def cat_pair(lhs_text, rhs_text):
    if rhs_text is None:
        return Pair((parse_category(lhs_text),), EPSILON)
    roots = parse_category_sequence(f"{lhs_text} {rhs_text}")
    return Pair((roots[0],), roots[1])


# ---------------------------------------------------------------------------
# the antichain operator

def test_add_equivalent_pair_is_a_no_op():
    s = PairSet()
    assert s.add(cat_pair("np[]", "det[ter=+]"))
    assert not s.add(cat_pair("np[]", "det[ter=+]"))
    assert len(s) == 1 and s.rejected == 1


def test_reentrant_pair_subsumes_equal_atom_pair():
    # ([f=$1], [f=$1]) against ([f=sg], [f=sg]): the shared empty value
    # imposes only that both sides agree, which two equal atoms satisfy,
    # so the reentrant pair is the more general one and replaces the other
    reentrant = cat_pair("[f=$1]", "[f=$1]")
    atoms = cat_pair("[f=sg]", "[f=sg]")
    assert pair_subsumes(reentrant, atoms)
    assert not pair_subsumes(atoms, reentrant)
    s = PairSet()
    s.add(atoms)
    assert s.add(reentrant)
    assert len(s) == 1 and s.removed == 1
    assert pair_equivalent(s.pairs[0], reentrant)


def test_general_incomer_replaces_all_subsumed():
    s = PairSet()
    s.add(cat_pair("np[agr=sg]", "det[agr=sg]"))
    s.add(cat_pair("np[agr=pl]", "det[agr=pl]"))
    assert s.add(cat_pair("np[]", "det[]"))
    assert len(s) == 1 and s.removed == 2


def test_epsilon_pairs_never_compare_with_category_pairs():
    s = PairSet()
    s.add(cat_pair("np[]", None))
    assert s.add(cat_pair("np[]", "det[]"))
    assert len(s) == 2


def test_pair_without_cat_rejects_labelled_incomers():
    s = PairSet()
    s.add(cat_pair("[agr=sg]", "det[]"))
    s.add(cat_pair("np[]", "[ter=+]"))
    s.add(cat_pair("[]", None))
    assert not s.add(cat_pair("np[agr=sg]", "det[]"))
    assert not s.add(cat_pair("np[]", "det[ter=+]"))
    assert not s.add(cat_pair("vp[]", None))
    assert s.add(cat_pair("np[agr=sg]", "n[]"))
    assert len(s) == 4 and s.rejected == 3


def test_pair_without_cat_replaces_labelled_pairs():
    s = PairSet()
    s.add(cat_pair("np[agr=sg]", "det[]"))
    s.add(cat_pair("vp[agr=sg]", "det[agr=pl]"))
    s.add(cat_pair("np[agr=sg]", "n[]"))
    s.add(cat_pair("np[agr=pl]", "det[]"))
    s.add(cat_pair("np[]", "det[ter=+]"))
    assert s.add(cat_pair("[agr=sg]", "det[]"))
    assert s.removed == 2
    assert s.add(cat_pair("np[]", "[ter=+]"))
    assert s.removed == 3
    assert [format_pair(p) for p in s] == [
        "(np[agr=sg] , n[])",
        "(np[agr=pl] , det[])",
        "([agr=sg] , det[])",
        "(np[] , [ter=+])",
    ]


def test_pairs_differing_only_in_reentrancy_are_both_kept():
    left = cat_pair("x[f=$1, g=[]]", "y[f=$1, g=[]]")
    right = cat_pair("x[f=[], g=$1]", "y[f=[], g=$1]")
    assert left.key == right.key
    s = PairSet()
    assert s.add(left) and s.add(right)
    assert len(s) == 2


def linear_antichain(pairs):
    """What a scan over every stored pair keeps, in insertion order."""
    kept = []
    for p in pairs:
        if not any(pair_subsumes(q, p) for q in kept):
            kept = [q for q in kept if not pair_subsumes(p, q)] + [p]
    return kept


def test_bucketed_add_keeps_what_a_linear_scan_keeps():
    rng = random.Random(23)

    def rand_cat():
        parts = [f"cat={rng.choice('ab')}"] if rng.random() < 0.7 else []
        for f in ("f", "g"):
            r = rng.random()
            if r < 0.3:
                parts.append(f"{f}={rng.choice('xy')}")
            elif r < 0.45:
                parts.append(f"{f}=$1")
        return "[" + ", ".join(parts) + "]"

    def rand_pair():
        width = rng.choice((1, 1, 2))
        roots = parse_category_sequence(" ".join(rand_cat() for _ in range(width + 1)))
        if rng.random() < 0.2:
            return Pair(tuple(roots[:width]), EPSILON)
        return Pair(tuple(roots[:width]), roots[width])

    for _ in range(60):
        incoming = [rand_pair() for _ in range(rng.randint(4, 16))]
        s = PairSet()
        for p in incoming:
            s.add(p)
        expected = linear_antichain(incoming)
        assert [p.serial for p in s] == [p.serial for p in expected]
        assert s.added + s.rejected == len(incoming)
        assert s.added - s.removed == len(expected)


def test_pair_sets_equivalent_ignores_insertion_order():
    texts = [("x[f=p]", "a[]"), ("y[]", None), ("[g=q]", "b[f=$1:[]]"), ("x[f=q]", "a[f=q]")]
    a, b = PairSet(), PairSet()
    for lhs, rhs in texts:
        assert a.add(cat_pair(lhs, rhs))
    for lhs, rhs in reversed(texts):
        assert b.add(cat_pair(lhs, rhs))
    assert pair_sets_equivalent(a, b) and pair_sets_equivalent(b, a)


def test_pair_sets_of_different_sizes_are_not_equivalent():
    a, b = PairSet(), PairSet()
    for s in (a, b):
        assert s.add(cat_pair("x[f=p]", "a[]"))
    assert b.add(cat_pair("y[]", None))
    assert not pair_sets_equivalent(a, b) and not pair_sets_equivalent(b, a)


def test_pair_sets_differing_in_one_reentrancy_are_not_equivalent():
    a, b = PairSet(), PairSet()
    for s, (lhs, rhs) in ((a, ("x[f=$1]", "y[f=$1]")), (b, ("x[f=[]]", "y[f=[]]"))):
        assert s.add(cat_pair("z[]", "w[]"))
        assert s.add(cat_pair(lhs, rhs))
    assert not pair_sets_equivalent(a, b) and not pair_sets_equivalent(b, a)


# ---------------------------------------------------------------------------
# one bind, one unification

def bind_once(site, pair):
    return _bind(site, pair, [site], frozenset(), False)


def test_a_same_label_clash_is_one_unfiltered_attempt():
    # only the label index filters; unification finds every other clash
    assert bind_once(parse_category("np[agr=sg]"), cat_pair("np[agr=pl]", "det[]")) is None


def test_nested_clash_is_found_by_full_unification():
    assert bind_once(parse_category("np[agr=[num=sg]]"), cat_pair("np[agr=[num=pl]]", "det[]")) is None


def test_atoms_against_complex_nodes_reach_full_unification():
    assert bind_once(parse_category("np[agr=sg]"), cat_pair("np[agr=[num=sg]]", "det[]")) is None
    got = bind_once(parse_category("np[agr=sg]"), cat_pair("np[agr=$1:[]]", "det[agr=$1]"))
    assert got is not None
    assert fs.equivalent(got[1], parse_category("det[agr=sg]"))
    assert bind_once(atom("sg"), Pair((atom("pl"),), atom("pl"))) is None


def test_run_stats_count_filtered_attempts():
    g = load_fixture("bench21.gr")
    first, fstats = compute_first(g)
    _, ostats = compute_follow(g, first)
    for stats in (fstats, ostats):
        assert 0 < stats.filtered < stats.attempts


# ---------------------------------------------------------------------------
# FIRST

def assert_same_pairs(computed, expected):
    assert len(computed.pairs) == len(expected)
    for e in expected:
        assert any(pair_equivalent(e, p) for p in computed.pairs), format_pair(e)


def test_first_fig1_without_restriction():
    g = load_fixture("fig1.gr", restrictor=[])
    first, stats = compute_first(g)
    assert stats.fixpoint
    proj = project(first)
    assert proj["s"] == {"det"}  # the epsilon route is cut by slash values
    det = parse_category("det[ter=+]")
    n = parse_category("n[ter=+]")
    vtra = parse_category("vtra[ter=+]")
    vp = parse_category_sequence("vp[agr=$1] vtra[agr=$1, ter=+]")
    expected = [
        Pair((det,), det),
        Pair((n,), n),
        Pair((vtra,), vtra),
        Pair((vp[0],), vp[1]),
        cat_pair("np[slash=null]", "det[ter=+]"),
        Pair((parse_category("np[slash=np[]]"),), EPSILON),
        cat_pair("s[]", "det[ter=+]"),
    ]
    assert_same_pairs(first, expected)


def test_first_single_epsilon_rule():
    g = parse_grammar("S -> .")
    first, _ = compute_first(g)
    assert len(first) == 1
    p = first.pairs[0]
    assert p.is_epsilon and label_of(p.lhs[0]) == "s"


def test_preterminal_seed_pairs_are_fully_shared():
    g = load_fixture("cf-intro.gr")
    first, _ = compute_first(g)
    det = [p for p in first if label_of(p.lhs[0]) == "det"]
    assert len(det) == 1
    assert deref(det[0].lhs[0]) is deref(det[0].rhs)


# ---------------------------------------------------------------------------
# FIRST of a string

def test_string_first_single_preterminal():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    out = first_of_string(first, g, parse_category_sequence("Det[]"))
    assert len(out) == 1
    p = out.pairs[0]
    assert label_of(p.lhs[0]) == "det" and label_of(p.rhs) == "det"


def test_string_first_single_np_includes_epsilon():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    out = first_of_string(first, g, parse_category_sequence("NP[]"))
    got = {("ε" if p.is_epsilon else label_of(p.rhs)) for p in out}
    assert got == {"det", "ε"}


def test_string_first_of_a_long_labelled_string_finishes():
    # no empty rules, so only position 0 binds; every result pair carries
    # all 24 labelled categories on its left side
    g = load_fixture("cf-intro.gr")
    first, _ = compute_first(g)
    out = first_of_string(first, g, parse_category_sequence(" ".join(["NP[] VP[]"] * 12)))
    assert len(out) == 1
    p = out.pairs[0]
    assert len(p.lhs) == 24 and label_of(p.rhs) == "det"


def test_string_first_unknown_category():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    with pytest.raises(UnknownCategory):
        first_of_string(first, g, parse_category_sequence("zzz[]"))


def test_string_first_rejects_empty_sequence():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    with pytest.raises(ValueError):
        first_of_string(first, g, [])


# ---------------------------------------------------------------------------
# FOLLOW

def test_follow_single_epsilon_rule():
    g = parse_grammar("S -> .")
    first, _ = compute_first(g)
    follow, _ = compute_follow(g, first)
    assert len(follow) == 1
    p = follow.pairs[0]
    assert label_of(p.lhs[0]) == "s" and label_of(p.rhs) == "$"


def test_follow_end_marker_never_unifies_with_grammar_categories():
    g = load_fixture("cf-intro.gr")
    first, _ = compute_first(g)
    follow, _ = compute_follow(g, first)
    enders = [p.rhs for p in follow if not p.is_epsilon and label_of(p.rhs) == "$"]
    assert enders
    for root in (r.mother for r in g.rules):
        assert not fs.unifiable(enders[0], root)


# ---------------------------------------------------------------------------
# query

def test_query_first_s_gives_det_and_vtra():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    out = query(first, parse_category("S[]"))
    labels = sorted(label_of(x) for x in out if not isinstance(x, EpsilonMark))
    assert labels == ["det", "vtra"]


def test_query_binding_flows_through_pair():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    out = query(first, parse_category("VP[agr=sg]"))
    assert len(out) == 1
    assert fs.equivalent(out[0], parse_category("vtra[agr=sg, ter=+]"))


def test_query_unknown_label_empty():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    assert query(first, parse_category("[cat=zzz]")) == []


def test_seeds_and_empty_rule_mothers_are_stored_restricted():
    g = parse_grammar("restrict orth. S[orth=s] -> B[] a[ter=+, orth=x]. B[orth=b] -> .")
    first, _ = compute_first(g)
    follow, _ = compute_follow(g, first)
    for s in (first, follow):
        assert len(s) > 0
        for p in s:
            assert not any(has_path(r, ("orth",)) for r in p.comparison_roots), format_pair(p)


def test_query_binds_no_empty_pair_after_the_first_empty_answer(monkeypatch):
    g = parse_grammar("S[] -> X[] a[ter=+]. X[agr=sg] -> . X[agr=pl] -> .")
    first, _ = compute_first(g)
    assert sum(p.is_epsilon for p in first) == 2
    # every bind unifies once, whether it copies out (fs.unify_copy) or,
    # keeping nothing, only tests (fs.unifiable): both call unify_in_place
    calls = []
    real = fs.unify_in_place

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fs, "unify_in_place", counted)
    out = query(first, parse_category("X[]"))
    assert len(out) == 1 and isinstance(out[0], EpsilonMark)
    assert len(calls) == 1


def test_binds_leave_rules_stored_pairs_and_queries_unchanged():
    # fig1.gr with a tag used before its value is given, so rule 1 holds a
    # node with a forwarding pointer
    g = parse_grammar(
        """restrict slash.
        S[] -> NP[agr=$1, slash=null] VP[slash=null, agr=$1:[num=sg]].
        S[] -> NP[slash=null] NP[agr=$1, slash=null] VP[agr=$1, slash=$2:NP[]].
        VP[agr=$1, slash=$2] -> Vtra[agr=$1, ter=+] NP[slash=$2].
        NP[agr=$1, slash=null] -> Det[ter=+] N[agr=$1, ter=+].
        NP[slash=NP[]] -> ."""
    )
    rules = [c for r in g.rules for c in r.roots()]
    before = node_state(rules)
    assert any(forward is not None for _, forward, _ in before.values())
    first, _ = compute_first(g)
    follow, _ = compute_follow(g, first)
    assert node_state(rules) == before
    stored = [r for s in (first, follow) for p in s for r in p.comparison_roots]
    shown = [format_pair(p) for s in (first, follow) for p in s]
    stored_before = node_state(stored)
    cats = parse_category_sequence("NP[agr=$1] VP[agr=$1] S[]")
    cats_before = node_state(cats)
    assert len(first_of_string(first, g, cats[:2])) > 0
    answers = [v for s in (first, follow) for c in cats for v in query(s, c) if isinstance(v, fs.Node)]
    # some answers are stored right sides themselves, handed out unbound
    assert any(v is p.rhs for v in answers for s in (first, follow) for p in s)
    answers_before, answers_shown = node_state(answers), format_roots(answers)
    # further binds and queries leave what the queries returned as it was
    compute_follow(g, first)
    assert len(first_of_string(first, g, cats)) > 0
    for s in (first, follow):
        for c in cats:
            query(s, c)
    assert node_state(answers) == answers_before and format_roots(answers) == answers_shown
    assert node_state(cats) == cats_before
    assert node_state(stored) == stored_before
    assert [format_pair(p) for s in (first, follow) for p in s] == shown
    assert node_state(rules) == before


def test_query_and_unify_keep_an_empty_node_shared_across_the_pair():
    # the stored pair keeps #1 because both sides share it; a copy of the
    # right side alone reaches it once, and neither query nor fs.unify
    # prunes it away
    g = parse_grammar("S[f=$1] -> A[g=$1, ter=+].")
    first, _ = compute_first(g)
    (pair,) = [p for p in first if label_of(p.lhs[0]) == "s"]
    assert format_pair(pair) == "(s[f=#1:[]] , a[g=#1, ter=+])"
    assert format_roots(query(first, parse_category("S[]"))) == ["a[g=[], ter=+]"]
    assert format_roots([fs.unify(pair.rhs, parse_category("A[]"))]) == ["a[g=[], ter=+]"]


def test_query_reads_a_node_of_the_pair_it_binds_as_a_value():
    # the left side is a tree and the queried category is its own node
    # under f; bound as that very node it would make x = x.f, a cycle
    lhs, rhs = parse_category_sequence("x[f=$1] $1:x[]")
    s = PairSet()
    s.add(Pair((lhs,), rhs))
    assert s.pairs[0].lhs_is_tree()
    before = node_state([lhs])
    assert format_roots(query(s, rhs)) == format_roots(query(s, parse_category("x[]"))) == ["x[]"]
    g = parse_grammar("X[] -> .")
    got = first_of_string(s, g, [rhs])
    assert [format_pair(p) for p in got] == ["(x[f=#1:x[]] , #1)"]
    assert [format_pair(p) for p in first_of_string(s, g, [parse_category("x[]")])] == ["(x[f=#1:x[]] , #1)"]
    assert node_state([lhs]) == before


def test_query_dedupes_coinciding_bound_values():
    s = PairSet()
    s.add(cat_pair("x[f=p]", "a[]"))
    s.add(cat_pair("x[g=q]", "a[]"))
    out = query(s, parse_category("x[]"))
    assert len(out) == 1
    assert fs.equivalent(out[0], parse_category("a[]"))


def test_query_dedupe_keeps_the_more_specific_value():
    for texts in (
        [("x[g=q]", "a[]"), ("x[h=r]", "a[f=p]")],
        [("x[h=r]", "a[f=p]"), ("x[g=q]", "a[]")],
    ):
        s = PairSet()
        for lhs, rhs in texts:
            assert s.add(cat_pair(lhs, rhs))
        out = query(s, parse_category("x[]"))
        assert len(out) == 1
        assert fs.equivalent(out[0], parse_category("a[f=p]"))
        assert query(s, parse_category("y[]")) == []


def test_query_dedupe_keeps_values_of_different_cat_side_by_side():
    s = PairSet()
    for lhs, rhs in (("x[f=p]", "a[]"), ("x[g=q]", "b[]"), ("x[h=r]", "a[k=s]")):
        assert s.add(cat_pair(lhs, rhs))
    out = query(s, parse_category("x[]"))
    assert format_roots(out) == ["a[k=s]", "b[]"]


def test_query_dedupe_compares_values_without_cat_with_labelled_ones():
    for texts in (
        [("x[g=q]", "[f=p]"), ("x[h=r]", "a[f=p]")],  # the labelled value replaces
        [("x[h=r]", "a[f=p]"), ("x[g=q]", "[f=p]")],  # the labelled value absorbs
    ):
        s = PairSet()
        for lhs, rhs in texts:
            assert s.add(cat_pair(lhs, rhs))
        assert format_roots(query(s, parse_category("x[]"))) == ["a[f=p]"]


def test_a_left_side_class_holds_in_every_set_that_holds_the_pair():
    # the X[f=a] pair is classed in a first set, then held by a second one
    # whose own first class is X[f=b]'s: the two must not share a class
    shared = cat_pair("X[f=a]", "r1[ter=+]")
    first = PairSet()
    for p in (shared, cat_pair("X[f=b]", "r2[ter=+]")):
        assert first.add(p)
    assert format_roots(query(first, parse_category("X[f=a]"))) == ["r1[ter=+]"]
    second = PairSet()
    for p in (cat_pair("X[f=b]", "r3[ter=+]"), shared):
        assert second.add(p)
    assert format_roots(query(second, parse_category("X[f=b]"))) == ["r3[ter=+]"]
    got = first_of_string(second, parse_grammar("S[] -> X[]."), [parse_category("X[f=a]")])
    assert [format_pair(p) for p in got] == ["(x[f=a] , r1[ter=+])"]


QUERY_ANTICHAIN_RULES = (
    "A[f=one] -> term X[a=one].",
    "A[g=one] -> term X[b=one].",
    "A[h=one] -> term X[a=one, b=one].",
)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_query_answer_replaces_every_kept_value_it_is_more_specific_than(order):
    """``x[a=one, b=one]`` is more specific than both ``x[a=one]`` and
    ``x[b=one]``: whichever order the rules come in, it is the one answer."""
    rules = " ".join(QUERY_ANTICHAIN_RULES[i] for i in order)
    g = parse_grammar(f"S[] -> A[] B[]. {rules} B[] -> term Y[].")
    first, _ = compute_first(g)
    assert format_roots(query(first, parse_category("A[]"))) == ["x[a=one, b=one, ter=+]"]


def test_query_includes_epsilon_and_dedupes():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    out = query(first, parse_category("NP[]"))
    assert sum(isinstance(x, EpsilonMark) for x in out) == 1
    labels = sorted(label_of(x) for x in out if not isinstance(x, EpsilonMark))
    assert labels == ["det"]


# ---------------------------------------------------------------------------
# guards

def test_pair_limit_guard():
    g = load_fixture("guard.gr")
    g.max_pairs = 20
    with pytest.raises(LimitExceeded) as err:
        compute_first(g)
    assert err.value.kind == "pairs"


@pytest.mark.parametrize("mode", MODES)
def test_pair_guard_fires_on_the_seed_that_exceeds_it(mode):
    g = parse_grammar("S[] -> A[].\n" + "".join(f"A[] -> t{i}[ter=+].\n" for i in range(60)))
    g.max_pairs = 10
    with pytest.raises(LimitExceeded) as err:
        compute_first(g, mode)
    assert err.value.kind == "pairs"
    assert err.value.stats.rows[-1].total == g.max_pairs + 1


@pytest.mark.parametrize("mode", MODES)
def test_pair_guard_fires_inside_the_visit_that_exceeds_it(mode):
    text = "S[] -> A[] B[].\nA[] -> a[ter=+].\n"
    g = parse_grammar(text + "".join(f"B[] -> t{i}[ter=+].\n" for i in range(60)))
    first, _ = compute_first(g, mode)
    g.max_pairs = 10  # FOLLOW(A) gets all 60 terminals in one visit of the first rule
    with pytest.raises(LimitExceeded) as err:
        compute_follow(g, first, mode)
    assert err.value.kind == "pairs"
    assert err.value.stats.rows[-1].total == g.max_pairs + 1


# ---------------------------------------------------------------------------
# modes and instrumentation

FIXTURES = ["fig1.gr", "cf-intro.gr", "agr.gr", "bench13.gr", "bench21.gr"]


def holds_a_pair_set(value):
    if isinstance(value, PairSet):
        return True
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(map(holds_a_pair_set, value))


def test_an_unknown_mode_is_a_value_error():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    with pytest.raises(ValueError, match="mode must be one of"):
        compute_first(g, "eager")
    with pytest.raises(ValueError, match="mode must be one of"):
        compute_follow(g, first, "eager")


def test_a_mode_report_keeps_verdicts_and_counters_not_pair_sets():
    rep = compare_modes(load_fixture("fig1.gr"))
    fields = [f.name for f in dataclasses.fields(rep)]
    assert fields == ["rules", "first_equivalent", "follow_equivalent", "first_stats", "follow_stats"]
    assert not any(holds_a_pair_set(getattr(rep, name)) for name in fields)
    assert "mode" not in [f.name for f in dataclasses.fields(ff.RunStats)]


@pytest.mark.parametrize("mode", MODES)
def test_every_empty_string_side_is_the_one_constant(mode):
    eps_pairs = eps_answers = 0
    for name in [*FIXTURES, "guard.gr"]:
        g = load_fixture(name, restrictor=["orth"] if name == "guard.gr" else None)
        first, _ = compute_first(g, mode)
        for p in first:
            if p.is_epsilon:
                eps_pairs += 1
                assert p.rhs is featflow.EPSILON, name
            for value in query(first, p.lhs[0]):
                if isinstance(value, EpsilonMark):
                    eps_answers += 1
                    assert value is featflow.EPSILON, name
        if name == "fig1.gr":
            out = first_of_string(first, g, parse_category_sequence("NP[slash=NP[]]"))
            assert [p.rhs for p in out if p.is_epsilon] == [featflow.EPSILON]
    assert eps_pairs >= 3 and eps_answers >= 3, (eps_pairs, eps_answers)
    assert EpsilonMark.__slots__ == () and not hasattr(EpsilonMark(), "__dict__")


def test_single_rule_grammar_modes_trivially_equal():
    g = parse_grammar("S -> det[ter=+].")
    rep = compare_modes(g)
    assert rep.first_equivalent and rep.follow_equivalent


class VisitLog(_Recorder):
    """Logs each visit in ``visits`` as (its offer, the serials offered,
    the reads it binds in order).  Each pass visits every rule in order."""

    visits = None

    def begin_visit(self, offer):
        super().begin_visit(offer)
        listed, start, end = offer.pset._span(ff._ALL, None, offer.lo, offer.hi)
        self.visits.append((offer, [p.serial for p in listed[start:end]], []))

    def began(self, read, filtered):
        super().began(read, filtered)
        self.visits[-1][2].append(read)


def test_active_event_accounting_identity(monkeypatch):
    monkeypatch.setattr(ff, "_Recorder", VisitLog)
    for name in FIXTURES:
        g = load_fixture(name)
        monkeypatch.setattr(VisitLog, "visits", [])
        first, stats = compute_first(g, "active")
        offers = collections.Counter(s for _, serials, _ in VisitLog.visits for s in serials)
        # every surviving pair is offered to every rule once, a replaced
        # pair to the rules visited before it left the set
        assert all(offers[p.serial] == len(g.rules) for p in first)
        assert max(offers.values()) == len(g.rules)
        assert stats.events == sum(offers.values())


def test_an_empty_rule_stores_its_mother_only_when_offered_every_pair(monkeypatch):
    """A visit offered pairs above 0 stores no empty rule's mother, which a
    covered pair would reject: an active run stores it once, a naive run
    once per pass."""
    g = load_fixture("fig1.gr")
    mothers = {id(r.mother) for r in g.rules if r.is_epsilon}
    real = fs.restrict
    for mode in MODES:
        stored = collections.Counter()

        def counted(root, *args, **kwargs):
            stored[id(root)] += id(root) in mothers
            return real(root, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(fs, "restrict", counted)
            _, stats = compute_first(g, mode)
        passes = 1 if mode == "active" else len(stats.rows)
        assert mothers and len(stats.rows) > 1
        assert all(stored[mother] == passes for mother in mothers), mode


def test_first_of_a_string_is_the_same_from_either_modes_first_set():
    """The modes reach the same FIRST set, so the FIRST of a string read
    from it is the same, pair for pair and in order, or unknown in both."""
    rng = random.Random(27)
    grammars = [load_fixture(name) for name in FIXTURES]
    grammars += [parse_grammar(random_cf_grammar(rng)[0]) for _ in range(8)]
    grammars += [parse_grammar(random_feature_grammar(rng)) for _ in range(8)]
    grammars += [parse_grammar(loosely_labelled_grammar(rng)) for _ in range(8)]
    fixed = [parse_category_sequence(text) for text in ("NP[] NP[] VP[]", "NP[]", "S[]", "VP[]")]
    probes = parse_category_sequence("[] zz[] t0[ter=+]")
    outcomes = collections.Counter()
    for g in grammars:
        firsts = [compute_first(g, mode)[0] for mode in MODES]
        cats = [c for r in g.rules for c in r.roots()] + probes
        strings = fixed + [[rng.choice(cats) for _ in range(rng.randint(1, 3))] for _ in range(12)]
        for string in strings:
            naive, active = (string_first_or_unknown(first, g, string) for first in firsts)
            assert naive == active, (g.name, format_roots(string))
            outcomes[naive == "unknown"] += 1
    assert outcomes[True] and outcomes[False], outcomes


# ---------------------------------------------------------------------------
# projection against the independent oracle

def test_first_soundness_by_leftmost_derivation():
    rng = random.Random(31337)
    for _ in range(30):
        text, rules, terminals, _ = random_cf_grammar(rng)
        g = parse_grammar(text)
        first_pairs, _ = compute_first(g)
        for sym, values in project(first_pairs).items():
            if sym in terminals:
                continue
            derivable = leftmost_terminals(rules, sym, terminals)
            for v in values:
                assert v in derivable, (text, sym, v)


# ---------------------------------------------------------------------------
# shared right sides

def complex_nodes(roots):
    """The complex nodes reachable from ``roots``, read through forwarding
    pointers, by id: the walk each pair's apart flag is checked against."""
    out = {}
    stack = list(roots)
    while stack:
        n = deref(stack.pop())
        if n.atom is None and id(n) not in out:
            out[id(n)] = n
            stack.extend(n.arcs.values())
    return out


def sharing_runs():
    """For each fixture (``guard`` with ``orth`` restricted) and twelve
    seeded random feature grammars, the pair sets its runs make: FIRST,
    FOLLOW and the FIRST of each rule's daughters as a string."""
    grammars = [load_fixture(name) for name in FIXTURES] + [load_fixture("guard.gr", restrictor=["orth"])]
    rng = random.Random(29)
    grammars += [parse_grammar(random_feature_grammar(rng)) for _ in range(12)]
    for g in grammars:
        first, _ = compute_first(g)
        follow, _ = compute_follow(g, first)
        sets = [first, follow]
        for r in g.rules:
            if r.daughters:
                try:
                    sets.append(first_of_string(first, g, list(r.daughters)))
                except UnknownCategory:
                    pass
        yield sets


def test_each_pair_knows_whether_its_sides_are_apart():
    """Each pair's apart flag matches a walk of its sides, and a run stores
    every apart left side on one node per class: in a FIRST or FOLLOW set,
    two pairs whose sides are apart and whose left sides have one
    ``fs.canonical_key`` share their left node."""
    seen = collections.Counter()
    for sets in sharing_runs():
        for p in (p for s in sets for p in s):
            walked = p.is_epsilon or not complex_nodes(p.lhs).keys() & complex_nodes([p.rhs]).keys()
            assert p.sides_apart() == walked, format_pair(p)
            seen[walked] += 1
        for s in sets[:2]:
            nodes = {}  # canonical key of an apart left side -> its node
            for p in (p for p in s if p.sides_apart()):
                key = fs.canonical_key(p.lhs)
                seen["shared"] += key in nodes
                assert nodes.setdefault(key, p.lhs[0]) is p.lhs[0], format_pair(p)
    assert seen[True] and seen[False] and seen["shared"], seen


def test_no_left_side_holds_a_node_of_another_pairs_right_side():
    shared = lefts_shared = 0
    for sets in sharing_runs():
        pairs = [p for s in sets for p in s]
        # the products of one grouped bind share their left roots, so a left
        # node belongs to one tuple of left roots, not to one pair
        owner = {}  # complex node id -> the ids of the one left-root tuple that reaches it
        reaching = collections.defaultdict(list)  # complex node id -> the pairs whose left side reaches it
        for p in pairs:
            roots = tuple(map(id, p.lhs))
            for key in complex_nodes(p.lhs):
                assert owner.setdefault(key, roots) == roots, format_pair(p)
                reaching[key].append(p)
        holders = collections.Counter()
        for q in pairs:
            if not q.is_epsilon:
                holders[id(q.rhs)] += 1
                for key in complex_nodes([q.rhs]):
                    assert all(p is q for p in reaching.get(key, ())), (format_pair(q), format_pair(reaching[key][0]))
        shared += sum(n > 1 for n in holders.values())
        lefts_shared += sum(len(ps) > 1 for ps in reaching.values())
    assert shared  # right sides are shared between pairs, so the check reads something
    assert lefts_shared  # and so are left sides


def test_sides_that_share_only_a_nested_node_are_bound_through_a_copy():
    # the S pair's sides share agr's node, not a root: binding its left
    # side must reach the right side, so a bind copies it
    g = parse_grammar("S[agr=$1:[num=sg]] -> A[agr=$1, ter=+]. T[] -> S[agr=[per=third]].")
    first, _ = compute_first(g)
    (s_pair,) = [p for p in first if label_of(p.lhs[0]) == "s"]
    (t_pair,) = [p for p in first if label_of(p.lhs[0]) == "t"]
    assert format_pair(s_pair) == "(s[agr=#1:[num=sg]] , a[agr=#1, ter=+])"
    assert s_pair.lhs[0] is not s_pair.rhs and not s_pair.sides_apart()
    assert format_pair(t_pair) == "(t[] , a[agr=[num=sg, per=third], ter=+])"
    (value,) = query(first, parse_category("S[agr=[per=third]]"))
    assert format_roots([value]) == ["a[agr=[num=sg, per=third], ter=+]"]
    assert value is not s_pair.rhs
    # the T pair's sides are apart, so a query hands out its right side
    assert t_pair.sides_apart() and query(first, parse_category("T[]")) == [t_pair.rhs]


def test_antichain_holds_after_any_addition_sequence():
    rng = random.Random(11)
    labels = ("a", "b")
    feats = ("f", "g")
    atoms = ("x", "y")

    def rand_cat():
        parts = [f"cat={rng.choice(labels)}"] if rng.random() < 0.8 else []
        for f in feats:
            r = rng.random()
            if r < 0.3:
                parts.append(f"{f}={rng.choice(atoms)}")
            elif r < 0.45:
                parts.append(f"{f}=$1")
        return "[" + ", ".join(parts) + "]"

    for _ in range(40):
        s = PairSet()
        for _ in range(rng.randint(3, 12)):
            roots = parse_category_sequence(f"{rand_cat()} {rand_cat()}")
            s.add(Pair((roots[0],), roots[1]))
            pairs = list(s)
            for p in pairs:
                for q in pairs:
                    if p is not q:
                        assert not pair_subsumes(p, q), (format_pair(p), format_pair(q))


def test_add_idempotent_over_fixpoint_clones():
    g = load_fixture("fig1.gr")
    first, _ = compute_first(g)
    for p in list(first.pairs):
        twin = Pair(tuple(fs.clone_many(p.lhs)), p.rhs if p.is_epsilon else fs.clone_many([*p.lhs, p.rhs])[-1])
        if not p.is_epsilon:
            roots = fs.clone_many([*p.lhs, p.rhs])
            twin = Pair(tuple(roots[:-1]), roots[-1])
        assert not first.add(twin)
    assert len(first) == 8


def joint_text(p):
    """``p`` printed from one ``format_roots`` walk of both its sides."""
    texts = format_roots([*p.lhs] if p.is_epsilon else [*p.lhs, p.rhs])
    rhs = "ε" if p.is_epsilon else texts.pop()
    return f"({' '.join(texts)} , {rhs})"


def test_each_pair_prints_as_its_sides_print_together():
    # sides that share a node, a left side and a right side with a tag of
    # their own, and a side that prints alone but sits in such a pair
    tagged = parse_grammar(
        "S[f=$1:[h=x], g=$1] -> A[] B[f=$2:[h=y], g=$2, ter=+] C[]. A[] -> a[ter=+]. C[] -> c[ter=+]."
    )
    fixtures = [load_fixture(name) for name in FIXTURES] + [load_fixture("guard.gr", restrictor=["orth"]), tagged]
    grammars = fixtures + [parse_grammar(r["grammar"]) for r in json.loads(ENGINE_GOLDEN.read_text(encoding="utf-8"))]
    grammars += [parse_grammar(made.text, made.name) for made in scale_grammars()]
    # a set built by hand prints through its memo as the engine's sets do
    by_hand = PairSet()
    for lhs, rhs in (
        ("x[f=$1:[h=a], g=$1]", "a[]"),
        ("y[f=$1:[]]", "b[f=$1]"),
        ("z[]", "c[g=$1:[], h=$1]"),
        ("w[]", None),
    ):
        assert by_hand.add(cat_pair(lhs, rhs))
    sets = [("by hand", by_hand)]
    for idx, g in enumerate(grammars):
        first, _ = compute_first(g)
        follow, _ = compute_follow(g, first)
        sets += [(g.name, first), (g.name, follow)]
        if idx < len(fixtures):
            # FIRST of each category of a rule, as a one-category query string
            for c in (c for r in g.rules for c in r.roots()):
                try:
                    sets.append((g.name, first_of_string(first, g, [c])))
                except UnknownCategory:
                    pass
    shown = set()
    for name, s in sets:
        for p in s:
            text = format_pair(p)
            assert text == joint_text(p) == format_pair(p), (name, text, joint_text(p))
            shown.add(text)
    assert {
        "(#1:det[ter=+] , #1)",
        "(vp[agr=#1:[]] , vtra[agr=#1, ter=+])",
        "(s[f=#1:[h=x], g=#1] , a[ter=+])",
        "(a[] , b[f=#1:[h=y], g=#1, ter=+])",
        "(b[f=#1:[h=y], g=#1, ter=+] , c[ter=+])",
        "(x[f=#1:[h=a], g=#1] , a[])",
        "(y[f=#1:[]] , b[f=#1])",
        "(z[] , c[g=#1:[], h=#1])",
        "(w[] , ε)",
    } <= shown


# ---------------------------------------------------------------------------
# label-indexed pools against a full scan

def bind_args(space, keep, restrictor):
    """What ``_bind`` takes after the pair, as ``_bind_each`` prepares it:
    the kept roots, the restriction and the prune flag."""
    kept = space if keep is None else [space[i] for i in keep]
    return kept, restrictor or frozenset(), restrictor is not None


def labels_clash(a, b):
    """Whether ``a`` and ``b`` both have an atomic ``cat`` and the two
    differ, so that unifying them fails."""
    x, y = label_of(a), label_of(b)
    return x is not None and y is not None and x != y


def full_scan_bind_each(space, pos, read, rec, keep=None, restrictor=None, made=None, grouped=None):
    """The loop the label index and the left-side classes replaced: go
    through every pair of the read's serial range, note each serial in the
    visit, and bind each whose label does not differ, on its own, into a
    fresh copy: ``made`` is not read.  The read is begun
    on entry with the count of the others, as ``_bind_each`` says, and
    each bind is an attempt.

    Given a Counter as ``grouped``, it counts by outcome (True for a bind)
    the binds ``_bind_each`` groups: those of a pair whose sides are apart
    and whose left side is equivalent to one bound before in the read."""
    listed, start, end = read.pset._span(read.kind, None, read.lo, read.hi)
    scan = listed[start:end]
    rec.began(read, sum(labels_clash(space[pos], p.lhs[0]) for p in scan))
    args = bind_args(space, keep, restrictor)
    bound = set()  # the canonical keys of the apart left sides the read bound
    for p in scan:
        if rec.tried is not None:
            rec.tried.add(p.serial)
        if not labels_clash(space[pos], p.lhs[0]):
            rec.attempts += 1
            got = _bind(space[pos], p, *args)
            if grouped is not None and p.sides_apart():
                key = fs.canonical_key(p.lhs)
                if key in bound:
                    grouped[got is not None] += 1
                bound.add(key)
            if got is not None:
                yield p, *got


def scanned(pairs, kind, lo, hi):
    """The serials of the ``kind`` pairs among ``pairs`` in (lo, hi], found
    by a scan."""
    keep = {ff._ALL: lambda p: True, ff._EPS: lambda p: p.is_epsilon, ff._DRIVERS: lambda p: not p.is_epsilon}[kind]
    return [p.serial for p in pairs if len(p.lhs) == 1 and keep(p) and lo < p.serial <= hi]


class ScanRecorder(_Recorder):
    """Counts a visit's ``considered`` as the distinct serials it tried,
    with those of every range it began to read, whole, with a bind or, as
    ``passed``, without: a visit no offered pair can bind passes its reads,
    ``_first_of_span`` passes the empty pairs where a position's label has
    none, and FOLLOW's kept tails pass them when some tail is not empty.
    So the serials of each read's range are scanned, and added, when the
    visit begins it, over the pairs as they stood when the visit began: a
    store earlier in the visit may have replaced a pair the range holds.
    A visit stores only into the set it is offered."""

    tried = None

    def begin_visit(self, offer):
        super().begin_visit(offer)
        self.tried = set()
        self.stood = (offer.pset, list(offer.pset.pairs))

    def began(self, read, filtered):
        super().began(read, filtered)
        if self.tried is not None:
            pset, pairs = self.stood
            pairs = pairs if read.pset is pset else read.pset.pairs
            self.tried.update(scanned(pairs, read.kind, read.lo, read.hi))

    passed = began

    def end_visit(self):
        super().end_visit()
        self._considered[-1] = len(self.tried)
        self.tried = None


def full_scan_query(result, cat):
    """``query`` as a scan over every stored pair, deduping each value
    against every kept one; a pair with a different label is passed over,
    as the label index passes it."""
    out = []
    have_eps = False
    for p in result.pairs:
        if len(p.lhs) != 1 or labels_clash(cat, p.lhs[0]):
            continue
        roots = fs.clone_many([cat, p.lhs[0]] + ([] if p.is_epsilon else [p.rhs]))
        try:
            fs.unify_in_place(roots[1], roots[0])
        except fs.UnificationFailed:
            continue
        if p.is_epsilon:
            if not have_eps:
                out.append(p.rhs)
                have_eps = True
            continue
        rhs = fs.clone(roots[2])
        for idx, have in enumerate(out):
            if isinstance(have, EpsilonMark):
                continue
            if fs.subsumes(rhs, have):
                break
            if fs.subsumes(have, rhs):
                out[idx] = rhs
                break
        else:
            out.append(rhs)
    return out


def full_scan_unknown(first, cats):
    return any(
        not is_preterminal(c)
        and not any(len(p.lhs) == 1 and fs.unifiable(c, p.lhs[0]) for p in first.pairs)
        for c in cats
    )


def rendered(values):
    return ["ε" if isinstance(v, EpsilonMark) else format_roots([v])[0] for v in values]


def stats_of(stats):
    return stats.attempts, stats.filtered, stats.events, stats.rows, stats.fixpoint


def string_first_or_unknown(first, g, cats):
    try:
        return [format_pair(p) for p in first_of_string(first, g, cats)]
    except UnknownCategory:
        return "unknown"


def test_label_pools_match_a_full_scan(monkeypatch):
    rng = random.Random(606)
    grammars = [random_cf_grammar(rng)[0] for _ in range(8)]
    grammars += [random_feature_grammar(rng) for _ in range(8)]
    grammars += [loosely_labelled_grammar(rng) for _ in range(16)]
    # the benchmark's dense grammars read many pairs of one left-side
    # class, which _bind_each binds once and the full scan binds each
    grammars += [gen.dense_features(random.Random(k), f"dense/{k}", n).text for k, n in ((3, 20), (1, 24))]
    grouped = collections.Counter()  # grouped binds by outcome, True for a bind
    probes = parse_category_sequence("[] [cat=[k=x0]] [agr=sg] zz[] t0[ter=+]")
    for text in grammars:
        g = parse_grammar(text)
        cats = [c for r in g.rules for c in r.roots()] + probes
        strings = [[fs.clone(rng.choice(cats)) for _ in range(rng.randint(1, 3))] for _ in range(12)]
        for mode in MODES:
            runs = []
            for bind_each, recorder, lookup in (
                (ff._bind_each, _Recorder, query),
                (functools.partial(full_scan_bind_each, grouped=grouped), ScanRecorder, full_scan_query),
            ):
                with monkeypatch.context() as m:
                    m.setattr(ff, "_bind_each", bind_each)
                    m.setattr(ff, "_Recorder", recorder)
                    first, fstats = compute_first(g, mode)
                    follow, ostats = compute_follow(g, first, mode)
                    runs.append(
                        (
                            [format_pair(p) for p in first],
                            [format_pair(p) for p in follow],
                            stats_of(fstats),
                            stats_of(ostats),
                            [rendered(lookup(s, c)) for s in (first, follow) for c in cats],
                            [string_first_or_unknown(first, g, w) for w in strings],
                            [full_scan_unknown(first, w) for w in strings],
                        )
                    )
            assert runs[0] == runs[1], text
            answers, unknown = runs[0][5], runs[0][6]
            assert [a == "unknown" for a in answers] == unknown, text
    # the reads compared hold 4,278 grouped binds, 163 of them failing:
    # 3,629 and 66 on the two dense grammars
    assert grouped[True] > 4000 and grouped[False] > 150, grouped


# ---------------------------------------------------------------------------
# a visit's counts

def test_a_visit_considers_the_widest_range_it_began_of_each_kind():
    s = PairSet()
    pairs = [cat_pair(f"x{i}[]", "t[]") for i in range(6)] + [cat_pair(f"e{i}[]", None) for i in range(2)]
    assert all(s.add(p) for p in pairs)
    at = [p.serial for p in pairs]
    every, drivers = ff._Read(s, ff._ALL, 0, at[7]), ff._Read(s, ff._DRIVERS, 0, at[5])
    rec = _Recorder()
    rec.began(every, 2)  # outside a visit: counts in no row
    rec.passed(every, 1)  # nor does one begun without a bind
    rec.begin_iteration(s)
    rec.begin_visit(ff._Read(s, ff._ALL, at[-1], at[-1]))  # offered nothing
    assert every.n == 8 and drivers.n == 6  # made, not begun
    rec.began(ff._Read(s, ff._DRIVERS, at[1], at[4]), 1)  # pairs 2-4
    rec.began(ff._Read(s, ff._DRIVERS, at[2], at[5]), 0)  # pairs 3-5, as wide
    rec.passed(ff._Read(s, ff._DRIVERS, 0, at[4]), 4)  # pairs 0-4, wider, not bound
    rec.began(ff._Read(s, ff._DRIVERS, at[1], at[3]), 0)  # within the last
    rec.began(ff._Read(s, ff._EPS, 0, at[7]), 0)  # both empty pairs
    stats = rec.finish(False, 0.0, s)  # closes the visit and the iteration
    assert [r.considered for r in stats.rows] == [7.0]
    assert (stats.attempts, stats.filtered) == (8, 8) and stats.rows[0].attempts == 5


# ---------------------------------------------------------------------------
# the level-by-level enumerator

def test_empty_string_derivations_are_stored_restricted_and_pruned():
    """The enumerator yields an empty-string derivation as the whole bound
    space; what FIRST and ``first_of_string`` store of it is restricted and
    pruned, as every other product is."""
    g = parse_grammar("""restrict orth.
    S[orth=$1, g=x] -> A[orth=$1] B[].  A[orth=a] -> .  B[] -> .""")
    first, _ = compute_first(g)
    assert [format_pair(p) for p in first] == ["(a[] , ε)", "(b[] , ε)", "(s[g=x] , ε)"]
    string = first_of_string(first, g, parse_category_sequence("A[orth=$1] S[orth=$1] B[]"))
    assert [format_pair(p) for p in string] == ["(a[] s[g=x] b[] , ε)"]
    for p in [*first, *string]:
        assert not any(has_path(root, ("orth",)) for root in p.lhs), format_pair(p)


# S binds C after two empty prefixes, A's and B's, two ways each
TWO_EMPTY_PREFIXES = """S[] -> A[f=$1] B[g=$2] C[f=$1, g=$2].
A[f=x] -> .  A[f=y] -> .  B[g=u] -> .  B[g=v] -> .
C[f=x, g=u] -> p[ter=+].  C[f=x, g=v] -> q[ter=+].
C[f=y, g=u] -> r[ter=+].  C[f=y, g=v] -> w[ter=+].
"""


def test_products_after_empty_prefixes_follow_the_order_of_the_prefixes():
    # A's empty pairs are stored x before y and B's u before v, so the
    # prefixes of C come (x, u), (x, v), (y, u), (y, v)
    g = parse_grammar(TWO_EMPTY_PREFIXES)
    for mode in MODES:
        first, _ = compute_first(g, mode)
        mother = [format_pair(p) for p in first if label_of(p.lhs[0]) == "s"]
        assert mother == [f"(s[] , {t}[ter=+])" for t in "pqrw"], mode


def test_a_guard_stop_counts_only_the_prefixes_its_visit_reached():
    # attempts in all and per row when the pair guard stops FIRST inside
    # S's second visit: each empty prefix is bound only as its position
    # is driven, so a stop leaves later prefixes unbound
    want = {
        "naive": {12: (74, [38, 36]), 13: (84, [38, 46]), 14: (96, [38, 58])},
        "active": {12: (70, [38, 32]), 13: (80, [38, 42]), 14: (92, [38, 54])},
    }
    g = parse_grammar(TWO_EMPTY_PREFIXES)
    for mode in MODES:
        for limit, counts in want[mode].items():
            with pytest.raises(LimitExceeded) as stop:
                compute_first(dataclasses.replace(g, max_pairs=limit), mode)
            stats = stop.value.stats
            assert (stats.attempts, [r.attempts for r in stats.rows]) == counts, (mode, limit)


def test_empty_pairs_a_first_daughter_lacks_are_counted_not_read(monkeypatch):
    g = parse_grammar("S[] -> A[] B[] C[]. A[] -> a[ter=+]. B[] -> . C[] -> c[ter=+].")
    first, _ = compute_first(g)
    assert [format_pair(p) for p in first if p.is_epsilon] == ["(b[] , ε)"]
    # attempts, filtered, events and each row's considered when the empty
    # pairs were read once per visit
    read_once = {"naive": (21, 15, 28, [2.25, 3.0]), "active": (18, 12, 22, [2.25, 2.25])}
    monkeypatch.setattr(ff, "_Recorder", VisitLog)
    for mode in MODES:
        monkeypatch.setattr(VisitLog, "visits", [])
        _, stats = compute_first(g, mode)
        # each visit binds the drivers of its rule's first daughter, which
        # has no empty pair, and no other read
        kinds = [[read.kind for read in reads] for _, _, reads in VisitLog.visits]
        assert kinds == [[] if r.is_epsilon else [ff._DRIVERS] for r in g.rules] * len(stats.rows), mode
        counts = (stats.attempts, stats.filtered, stats.events, [r.considered for r in stats.rows])
        assert counts == read_once[mode], mode


# ---------------------------------------------------------------------------
# waking a visit: a root without an atomic cat may bind a pair of any
# label, and a pair whose left side has none may bind a root of any label


def test_first_wakes_a_rule_whose_daughter_has_no_cat():
    g = parse_grammar("S[] -> [f=a].\nX[f=a] -> b[ter=+, f=c].\n")
    for mode in MODES:
        first, _ = compute_first(g, mode)
        assert "(s[] , b[f=c, ter=+])" in [format_pair(p) for p in first], mode


def test_first_wakes_a_daughter_for_a_pair_without_cat():
    # no stored pair is labelled y: only ([g=u] , b) binds the daughter
    g = parse_grammar("S[] -> Y[].\n[g=u] -> b[ter=+].\n")
    for mode in MODES:
        first, _ = compute_first(g, mode)
        assert "(s[] , b[ter=+])" in [format_pair(p) for p in first], mode


def test_follow_wakes_a_rule_whose_mother_has_no_cat():
    # (a[] , b) is stored after the [k=v] rule's first visit: only a later
    # visit, which any pair wakes, passes it on to d
    g = parse_grammar("start S.\n[k=v] -> d[ter=+].\nS[] -> A[] b[ter=+].\nA[] -> e[ter=+].\n")
    for mode in MODES:
        first, _ = compute_first(g, mode)
        follow, _ = compute_follow(g, first, mode)
        assert "(d[ter=+] , b[ter=+])" in [format_pair(p) for p in follow], mode


def test_follow_wakes_a_mother_for_a_pair_without_cat():
    # no stored pair is labelled y: only ([k=v] , b), stored after the Y
    # rule's first visit, binds its mother
    g = parse_grammar("start S.\nY[] -> d[ter=+].\nS[] -> [k=v] b[ter=+].\n")
    for mode in MODES:
        first, _ = compute_first(g, mode)
        follow, _ = compute_follow(g, first, mode)
        assert "(d[ter=+] , b[ter=+])" in [format_pair(p) for p in follow], mode

