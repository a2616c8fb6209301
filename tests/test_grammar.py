"""Grammar notation: parsing, printing, round trips, validation."""

import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from featflow import fs
from featflow.firstfollow import compute_first, compute_follow, first_of_string, query
from featflow.fs import atom, deref, node
from featflow.grammar import (
    RESERVED_WORDS,
    Diagnostic,
    GrammarSyntaxError,
    format_roots,
    is_preterminal,
    label_of,
    parse_category,
    parse_category_sequence,
    parse_grammar,
    parse_restrictor,
    validate,
)
from cf_oracle import random_cf_grammar, random_feature_grammar
from support import format_grammar, format_node, instantiate, load_fixture

FIXTURES = ("fig1.gr", "cf-intro.gr", "agr.gr", "guard.gr", "bench13.gr", "bench21.gr")

FIG1 = """
restrict slash.
S[] -> NP[agr=$1, slash=null] VP[agr=$1, slash=null].
S[] -> NP[slash=null] NP[agr=$1, slash=null] VP[agr=$1, slash=$2:NP[]].
VP[agr=$1, slash=$2] -> Vtra[agr=$1, ter=+] NP[slash=$2].
NP[agr=$1, slash=null] -> Det[ter=+] N[agr=$1, ter=+].
NP[slash=NP[]] -> .
"""


def test_fig1_parses_to_five_rules_with_final_epsilon():
    g = parse_grammar(FIG1)
    assert len(g.rules) == 5
    assert not g.rules[4].daughters
    assert label_of(g.rules[4].mother) == "np"
    assert label_of(deref(g.rules[4].mother).arcs["slash"]) == "np"
    assert g.restrictor == frozenset({("slash",)})
    assert [label_of(r.mother) for r in g.rules] == ["s", "s", "vp", "np", "np"]
    assert is_preterminal(g.rules[2].daughters[0])  # Vtra carries ter=+
    assert not is_preterminal(g.rules[2].mother)


def test_rule_ids_run_from_one_to_the_rule_count():
    g = parse_grammar(FIG1)
    assert [g.rule(i) for i in range(1, 6)] == list(g.rules)
    for bad in (0, -1, 6):
        with pytest.raises(IndexError):
            g.rule(bad)


def test_minimal_epsilon_grammar():
    g = parse_grammar("restrict slash. S -> .")
    assert len(g.rules) == 1
    assert g.rules[0].is_epsilon
    assert g.restrictor == frozenset({("slash",)})


def test_tag_shares_one_node_between_categories():
    g = parse_grammar("S -> NP[agr=$1] VP[agr=$1].")
    d1, d2 = g.rules[0].daughters
    assert deref(deref(d1).arcs["agr"]) is deref(deref(d2).arcs["agr"])


def test_tag_constraint_at_any_occurrence():
    g = parse_grammar("VP[agr=$1, slash=$2] -> Vtra[agr=$1] NP[slash=$2:NP[]].")
    mother = deref(g.rules[0].mother)
    assert label_of(deref(mother.arcs["slash"])) == "np"


def test_tag_scope_is_one_rule():
    g = parse_grammar("A -> B[f=$1:x]. C -> D[f=$1:y].")
    b = deref(g.rules[0].daughters[0])
    d = deref(g.rules[1].daughters[0])
    assert deref(b.arcs["f"]).atom == "x"
    assert deref(d.arcs["f"]).atom == "y"


def test_incompatible_tag_annotations_reported_with_position():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("S -> NP[agr=$1:sg] VP[agr=$1:pl].")
    issues = err.value.issues
    assert any("incompatible" in i.message for i in issues)
    assert all(i.line >= 1 and i.col >= 1 for i in issues)


def test_duplicate_feature_in_one_avm():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("S -> NP[agr=sg, agr=pl].")
    assert any("duplicate feature" in i.message for i in err.value.issues)


def test_malformed_restrictor_path():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("restrict $1. S -> .")
    assert any("restrictor path malformed" in i.message for i in err.value.issues)


def test_unknown_syntax_has_line_and_column():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("S -> ] .")
    issue = err.value.issues[0]
    assert issue.line == 1 and issue.col > 1
    assert "unknown syntax" in issue.message


def test_multiple_errors_collected_across_statements():
    bad = "S -> [agr=sg, agr=pl].\nX -> ] .\n"
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(bad)
    lines = {i.line for i in err.value.issues}
    assert {1, 2} <= lines


DEEP = "x[f=" * 10000 + "a" + "]" * 10000


def test_too_deep_rule_is_a_positioned_issue_and_later_statements_parse():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(f"S -> a[ter=+].\nS[] -> {DEEP}.\nT -> ] .\n")
    deep, later = err.value.issues
    assert deep.line == 2 and deep.col > len("S[] -> ")
    assert "nested too deeply" in deep.message
    assert later.line == 3 and "unknown syntax" in later.message


def test_too_deep_category_string_is_a_positioned_issue():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_category_sequence(f"np[] {DEEP}")
    (issue,) = err.value.issues
    assert issue.line == 1 and issue.col > len("np[] ")
    assert "nested too deeply" in issue.message


def test_cyclic_tag_structure_rejected():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("X[f=$1:[g=$1]] -> .")
    assert any("cycl" in i.message or "cycle" in i.message for i in err.value.issues)


def test_a_category_that_is_an_atom_is_rejected():
    """A category is an AVM: a mother, a daughter or a string position that
    a tag binds to an atom, there or later in the statement, is an issue at
    the token where the category starts."""
    for parse, text, col, shown in (
        (parse_grammar, "S[] -> $1:a. [] -> t[ter=+].", 8, "a"),  # a daughter
        (parse_grammar, "$1:a -> t[ter=+].", 1, "a"),  # a mother
        (parse_grammar, "S[] -> $1 X[f=$1:a]. X[f=a] -> .", 8, "a"),  # bound later
        (parse_grammar, "S[] -> term $1:+.", 13, "+"),
        (parse_category_sequence, "$1:+ t[ter=+]", 1, "+"),  # a string position
        (parse_category_sequence, "np[] $2 [f=$2:b]", 6, "b"),
    ):
        with pytest.raises(GrammarSyntaxError) as err:
            parse(text)
        (issue,) = err.value.issues
        assert (issue.line, issue.col) == (1, col), text
        assert issue.message == f"a category is an AVM, not the atom {shown}", text
    # a tag bound to an atom is still a value inside an AVM
    assert len(parse_grammar("S[f=$1] -> X[g=$1:a].").rules) == 1
    assert len(parse_category_sequence("np[f=$1:a] [g=$1] $")) == 3


def test_comments_and_blank_lines():
    g = parse_grammar("% top comment\nS -> NP[].  % tail comment\nNP -> det[ter=+].\n")
    assert len(g.rules) == 2


def test_term_sugar_injects_preterminal_mark():
    g = parse_grammar("NP -> term Det[] term N[agr=$1].")
    assert all(is_preterminal(d) for d in g.rules[0].daughters)


@pytest.mark.parametrize("text", ["S[] -> term X[ter=-] Y[] Z[].", "S[] -> term X[ter=-].", "S[] -> term $1:[ter=-] Y[]."])
def test_a_term_clash_is_reported_at_the_category(text):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    (issue,) = err.value.issues
    assert (issue.line, issue.col) == (1, 13), issue
    assert issue.message == "term used on a category with ter incompatible with '+'"


def test_a_string_is_not_a_restrictor():
    g = parse_grammar("S[] -> a[ter=+].")
    with pytest.raises(TypeError, match="parse_restrictor"):
        g.with_restrictor("agr.num")
    assert g.with_restrictor(("agr.num",)).restrictor == frozenset({("agr", "num")})


def test_start_declaration_overrides_first_mother():
    g = parse_grammar("start VP. S -> VP[]. VP -> v[ter=+].")
    assert label_of(g.start) == "vp"
    default = parse_grammar("S -> VP[]. VP -> v[ter=+].")
    assert label_of(default.start) == "s"


def test_multi_segment_restrictor_paths():
    g = parse_grammar("restrict agr.num, slash. S -> .")
    assert g.restrictor == frozenset({("agr", "num"), ("slash",)})


def test_parse_restrictor_text():
    assert parse_restrictor("") == frozenset()
    assert parse_restrictor("slash, agr.num") == frozenset({("slash",), ("agr", "num")})
    with pytest.raises(ValueError, match="'9bad' at character 4"):
        parse_restrictor("a, 9bad")


def test_labels_lowercased_and_quoted_atoms():
    g = parse_grammar('S -> Np[orth="the Dog"].')
    d = deref(g.rules[0].daughters[0])
    assert label_of(d) == "np"
    assert deref(d.arcs["orth"]).atom == "the Dog"


def test_hash_tags_accepted_as_synonyms():
    a = parse_category("np[agr=#1, num=#1]")
    b = parse_category("np[agr=$1, num=$1]")
    assert fs.equivalent(a, b)
    n = deref(a)
    assert deref(n.arcs["agr"]) is deref(n.arcs["num"])


def test_parse_category_sequence_shares_tags():
    cats = parse_category_sequence("NP[agr=$1] VP[agr=$1]")
    assert deref(deref(cats[0]).arcs["agr"]) is deref(deref(cats[1]).arcs["agr"])


def test_end_marker_parses_only_standalone():
    cat = parse_category("$")
    assert label_of(cat) == "$"
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S -> $ .")


def test_instantiate_is_fresh_and_equivalent():
    g = parse_grammar(FIG1)
    r = g.rules[0]
    fresh = instantiate(r)
    assert fresh.mother is not r.mother
    assert fs.equivalent_many(fresh.roots(), r.roots())
    d1, d2 = fresh.daughters
    assert deref(deref(d1).arcs["agr"]) is deref(deref(d2).arcs["agr"])


# ---------------------------------------------------------------------------
# printing

def test_format_roots_tags_shared_nodes():
    shared = node(ter=atom("+"), cat=atom("det"))
    texts = format_roots([shared, shared])
    assert texts == ["#1:det[ter=+]", "#1"]
    back = parse_category_sequence(" ".join(texts))
    assert deref(back[0]) is deref(back[1])


def test_format_node_round_trips_quoted_and_empty():
    for text in ('np[orth="the dog"]', "np[]", "[f=[]]", "$", 'x[f="a\\\nb"]'):
        reparsed = format_node(parse_category(text))
        assert fs.equivalent(parse_category(reparsed), parse_category(text))


def test_grammar_round_trip_fixtures():
    for name in FIXTURES:
        g = load_fixture(name)
        again = parse_grammar(format_grammar(g), name=name)
        assert len(again.rules) == len(g.rules)
        assert again.restrictor == g.restrictor
        for r1, r2 in zip(g.rules, again.rules):
            assert fs.equivalent_many(r1.roots(), r2.roots())


def with_reserved_labels(rng, text):
    """``text`` with some of its labels renamed to reserved words, written
    capitalised so that they read as labels."""
    words = [w.capitalize() for w in RESERVED_WORDS]
    names = sorted(set(re.findall(r"\b[xt]\d\b", text)))
    renamed = dict(zip(rng.sample(names, min(len(names), len(words))), rng.sample(words, len(words))))
    return re.sub(r"\b[xt]\d\b", lambda m: renamed.get(m.group(), m.group()), text)


def test_grammar_round_trip_random():
    rng = random.Random(7)
    for i in range(25):
        text = random_feature_grammar(rng)
        if i % 2:
            text = with_reserved_labels(rng, text)
        g = parse_grammar(text)
        again = parse_grammar(format_grammar(g))
        assert len(again.rules) == len(g.rules)
        for r1, r2 in zip(g.rules, again.rules):
            assert fs.equivalent_many(r1.roots(), r2.roots())


def test_reserved_word_labels_round_trip():
    for word in RESERVED_WORDS:
        label = word.capitalize()
        for text in (
            f"{label}[] -> B[]. B[] -> .",  # mother
            f"{label}[f=a] -> .",
            f"S[] -> {label}[] B[]. {label}[] -> . B[] -> .",  # daughter
            f"S[] -> term {label}[agr=$1] B[f={label}[g=$1]]. B[] -> .",  # nested value
        ):
            g = parse_grammar(text)
            printed = format_grammar(g)
            assert f"[cat={word}" in printed and f"{word}[" not in printed, printed
            again = parse_grammar(printed)
            assert len(again.rules) == len(g.rules), printed
            for r1, r2 in zip(g.rules, again.rules):
                assert fs.equivalent_many(r1.roots(), r2.roots()), printed
        cats = parse_category_sequence(f"{label}[] np[f={label}[g=$1]] $1:{label}[h=b]")  # string elements
        shown = format_roots(cats)
        assert shown == [f"[cat={word}]", f"np[f=[cat={word}, g=#1:[cat={word}, h=b]]]", "#1"]
        assert fs.equivalent_many(parse_category_sequence(" ".join(shown)), cats)


def test_a_cat_atom_with_capitals_prints_as_a_feature():
    cat = parse_category("[cat=NP, agr=sg]")
    assert format_node(cat) == "[agr=sg, cat=NP]"
    assert fs.equivalent(parse_category(format_node(cat)), cat)


def test_a_parse_shares_one_atom_per_name():
    g = parse_grammar("S[f=a, g=+] -> A[f=a] term b[]. A[f=a, h=\"a\"] -> .")
    s, a, b = g.rules[0].roots()
    assert deref(s).arcs["f"] is deref(a).arcs["f"] is deref(g.rules[1].mother).arcs["h"]
    assert deref(s).arcs["g"] is deref(b).arcs["ter"]
    assert deref(g.rules[1].mother).arcs["cat"] is deref(a).arcs["cat"]


def reachable_nodes(roots):
    seen = {}
    stack = list(roots)
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            if n.forward is not None:
                stack.append(n.forward)
            stack.extend((n.arcs or {}).values())
    return list(seen.values())


def test_shared_atoms_stay_atoms_through_the_engine():
    """A parse hands out one atom per name, which is sound only while no
    operation gives an atom arcs or forwards it."""
    for name in FIXTURES:
        g = load_fixture(name, restrictor=["orth"] if name == "guard.gr" else None)
        first, _ = compute_first(g)
        follow, _ = compute_follow(g, first)
        cats = [c for r in g.rules for c in r.roots()]
        roots = [g.start, *cats]
        for p in [*first, *follow]:
            roots += p.comparison_roots
        for c in cats:
            roots += [v for v in query(first, c) + query(follow, c) if isinstance(v, fs.Node)]
        for r in g.rules:
            if r.daughters:
                roots += [root for p in first_of_string(first, g, list(r.daughters)) for root in p.comparison_roots]
        atoms = [n for n in reachable_nodes(roots) if n.atom is not None]
        assert atoms, name
        assert all(not n.arcs and n.forward is None for n in atoms), name


# ---------------------------------------------------------------------------
# validation

def test_validate_fig1_clean():
    assert validate(parse_grammar(FIG1)) == []


def test_validate_cf_intro_clean():
    assert validate(load_fixture("cf-intro.gr")) == []


def test_validate_missing_mother_names_rule_and_daughter():
    g = parse_grammar("S -> NP[] PP[]. NP -> det[ter=+].")
    diags = validate(g)
    errors = [d for d in diags if d.severity == "error"]
    assert len(errors) == 1
    assert errors[0].rule_id == 1
    assert "daughter 2" in errors[0].message


def test_validate_unreachable_rule_warns():
    g = parse_grammar("S -> det[ter=+]. X -> det[ter=+].")
    diags = validate(g)
    assert any(d.severity == "warning" and d.rule_id == 2 for d in diags)
    assert not any(d.severity == "error" for d in diags)


def test_validate_epsilon_rule_with_preterminal_mother_warns():
    g = parse_grammar("S -> X[]. X[ter=+] -> .")
    diags = validate(g)
    assert any("preterminal" in d.message and d.severity == "warning" for d in diags)


def test_validate_matches_direct_set_computation_on_feature_free_grammars():
    rng = random.Random(2024)
    for _ in range(30):
        nts = [f"a{i}" for i in range(rng.randint(2, 6))]
        with_rules = set(rng.sample(nts, rng.randint(1, len(nts))))
        lines, expected = [], set()
        rid = 0
        for nt in sorted(with_rules):
            rid += 1
            k = rng.randint(0, 3)
            rhs = []
            for idx in range(1, k + 1):
                if rng.random() < 0.4:
                    rhs.append("t[ter=+]")
                else:
                    sym = rng.choice(nts)
                    rhs.append(f"{sym}[]")
                    if sym not in with_rules:
                        expected.add((rid, idx))
            lines.append(f"{nt}[] -> {' '.join(rhs)}." if rhs else f"{nt}[] -> .")
        g = parse_grammar("\n".join(lines))
        got = {
            (d.rule_id, int(d.message.split()[1]))
            for d in validate(g)
            if d.severity == "error"
        }
        assert got == expected, "\n".join(lines)


def test_validate_respects_restriction():
    # without restriction the daughter cannot rewrite; with slash discarded
    # it unifies with the epsilon rule's mother
    text = "S -> NP[slash=null]. NP[slash=NP[]] -> ."
    g = parse_grammar(text)
    assert any(d.severity == "error" for d in validate(g))
    assert not any(d.severity == "error" for d in validate(g.with_restrictor(["slash"])))


def validate_by_rescanning(g):
    """``validate`` as it was before the label index and the worklist: each
    daughter restricted per check, and every unreached rule rescanned
    against the whole frontier until nothing changes.  The reference for
    ``validate``."""
    out = []
    mothers = [fs.restrict(r.mother, g.restrictor) for r in g.rules]
    for r in g.rules:
        for idx, d in enumerate(r.daughters, start=1):
            if is_preterminal(d):
                continue
            rd = fs.restrict(d, g.restrictor)
            if not any(fs.unifiable(rd, m) for m in mothers):
                out.append(
                    Diagnostic("error", f"daughter {idx} unifies with no rule mother", r.rule_id)
                )
    reachable = set()
    frontier = [fs.restrict(g.start, g.restrictor)]
    changed = True
    while changed:
        changed = False
        for r, m in zip(g.rules, mothers):
            if r.rule_id in reachable:
                continue
            if any(fs.unifiable(m, c) for c in frontier):
                reachable.add(r.rule_id)
                frontier.extend(fs.restrict(d, g.restrictor) for d in r.daughters)
                changed = True
    for r in g.rules:
        if r.rule_id not in reachable:
            out.append(Diagnostic("warning", "unreachable from the start category", r.rule_id))
        if r.is_epsilon and is_preterminal(r.mother):
            out.append(Diagnostic("warning", "empty rule with a preterminal mother", r.rule_id))
    return out


def loosely_validated_grammar(rng):
    """A random grammar with the cases the label index must get right:
    unlabelled categories, a complex ``cat``, labels without rules (so
    daughters that unify with no mother), a start that leaves rules
    unreachable, empty rules and tags shared across a rule."""
    labels = [f"x{i}" for i in range(rng.randint(2, 6))]
    ruled = labels[: rng.randint(1, len(labels))]

    def category(label):
        r = rng.random()
        feats = []
        if rng.random() < 0.4:
            feats.append(f"agr={rng.choice(('sg', 'pl', '$1', '[num=sg]'))}")
        if rng.random() < 0.2:
            feats.append("ter=+")
        if r < 0.15:
            return f"[{', '.join(feats)}]"
        if r < 0.25:
            return f"[cat=[k={label}]{''.join(', ' + f for f in feats)}]"
        if r < 0.3:
            return f"[cat=$2{''.join(', ' + f for f in feats)}]"
        return f"{label}[{', '.join(feats)}]"

    lines = [f"start {rng.choice(labels)}."] if rng.random() < 0.5 else []
    for _ in range(rng.randint(1, 9)):
        mother = category(rng.choice(ruled))
        rhs = [category(rng.choice(labels)) for _ in range(rng.randint(0, 3))]
        lines.append(f"{mother} -> {' '.join(rhs)}.")
    return "\n".join(lines) + "\n"


RESTRICTORS = ((), ("cat",), ("agr",), ("agr.num",), ("cat", "agr"))


def test_validate_matches_rescanning_on_fixtures():
    for name in FIXTURES:
        for restrictor in (None, *RESTRICTORS):
            g = load_fixture(name, restrictor)
            assert validate(g) == validate_by_rescanning(g), (name, restrictor)


def test_validate_matches_rescanning_on_random_grammars():
    rng = random.Random(808)
    texts = [random_cf_grammar(rng)[0] for _ in range(40)]
    texts += [random_feature_grammar(rng) for _ in range(40)]
    texts += [loosely_validated_grammar(rng) for _ in range(300)]
    seen = set()
    for text in texts:
        g = parse_grammar(text)
        for restrictor in RESTRICTORS:
            h = g.with_restrictor(restrictor)
            got = validate(h)
            assert got == validate_by_rescanning(h), (text, restrictor)
            seen.update(re.sub(r"\d+", "N", d.message) for d in got)
    assert seen == {
        "daughter N unifies with no rule mother",
        "unreachable from the start category",
        "empty rule with a preterminal mother",
    }


def test_validate_label_index_keeps_wildcard_and_complex_cat_mothers():
    g = parse_grammar(
        "start s. s[] -> [agr=sg] np[] [cat=[k=v]]. [agr=sg] -> . [cat=[k=v]] -> . vp[agr=pl] -> ."
    )
    # np[] rewrites only by the unlabelled mother; vp[agr=pl] is reached by
    # no daughter, though the unlabelled one is tested against it
    assert [str(d) for d in validate(g)] == ["warning: rule 4: unreachable from the start category"]
    assert validate(g) == validate_by_rescanning(g)


def chain_grammar(n):
    """``start l0.``, then rules listed bottom-up: each rule reaches only
    the one listed before it, so a rescan finds one new rule per pass."""
    lines = ["start l0.", f"L{n}[] -> t[ter=+]."]
    lines += [f"L{i}[] -> L{i + 1}[] t[ter=+]." for i in range(n - 1, -1, -1)]
    return "\n".join(lines) + "\n"


def test_validate_time_grows_linearly_with_a_chain_grammar():
    # rescanning every unreached rule per pass takes minutes here
    g = parse_grammar(chain_grammar(1000))
    t0 = time.perf_counter()
    diags = validate(g)
    elapsed = time.perf_counter() - t0
    assert diags == []
    assert elapsed < 2, f"validating a 1,001-rule chain took {elapsed:.1f} s"


def test_validate_chain_grammar_matches_rescanning():
    g = parse_grammar(chain_grammar(30).replace("L0[] -> L1[]", "L0[] -> L2[]"))
    assert validate(g) == validate_by_rescanning(g)
    assert [d.rule_id for d in validate(g)] == [30]  # L1's rule is cut off


# ---------------------------------------------------------------------------
# any text parses or is rejected with a position

NOTATION_PIECES = (
    *"SNPVabfgx[]=,.:$#%\"\\+- \n\t0123",
    "->", "restrict ", "start ", "term ", "$1", "#2", "cat", "NP[", "].", "agr.num",
)
TEXTS = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(NOTATION_PIECES), max_size=40).map("".join),
)


def assert_positioned(err, text):
    assert err.issues
    lines = text.count("\n") + 1
    for issue in err.issues:
        assert 1 <= issue.line <= lines and issue.col >= 1, (issue, text)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(TEXTS)
def test_any_text_parses_or_raises_a_positioned_error(text):
    for parse in (parse_grammar, parse_category_sequence):
        try:
            parse(text)
        except GrammarSyntaxError as err:
            assert_positioned(err, text)
    try:
        parse_restrictor(text)
    except ValueError as err:
        start = int(re.search(r"at character (\d+)$", str(err)).group(1))
        assert 1 <= start <= len(text)


# ---------------------------------------------------------------------------
# cycle checks in the parser

def test_cyclic_tags_still_rejected_and_tag_free_texts_parse():
    for parse, text, message in (
        (parse_grammar, "S[f=$1:[g=$1]] -> a[ter=+].", "rule builds a cyclic structure"),
        (parse_grammar, "S[f=$1:[g=$2], h=$2:[k=$1]] -> a[ter=+].", "rule builds a cyclic structure"),
        (parse_category_sequence, "[f=$1:[g=$1]]", "cycle"),
        (parse_category_sequence, "[f=$1:[g=$2]] [h=$2:[k=$1]]", "cycle"),
    ):
        with pytest.raises(GrammarSyntaxError) as err:
            parse(text)
        assert any(message in i.message for i in err.value.issues), (text, err.value.issues)
        # the tag annotation's unification meets the cycle first, but leaves
        # it to the rule's or the sequence's own check: one issue
        assert len(err.value.issues) == 1, (text, err.value.issues)
    g = parse_grammar("S[f=[g=[h=x]]] -> term A[f=[g=y]] B[]. A -> . B -> .")
    assert len(g.rules) == 3 and not fs._cyclic(g.rules[0].roots())
    cats = parse_category_sequence("[f=[g=x]] np[agr=sg] $")
    assert len(cats) == 3 and not fs._cyclic(cats)


def test_a_failed_tag_annotation_still_gets_the_cycle_check():
    """Only a statement whose tag annotation failed to unify is walked for
    cycles: the failure can leave a cycle behind, or one that is dropped."""
    for text, messages in (
        # the clash on h stops the union after k=$1 closed a cycle
        (
            "S[f=$1:[h=a], g=$1:[k=$1, h=b]] -> x[].",
            ["incompatible value annotations (clash: a / b)", "rule builds a cyclic structure"],
        ),
        # the duplicate f drops the cyclic value of the failed annotation
        ("S[f=x, f=$1:[g=$1]] -> a[ter=+].", ["duplicate feature 'f' in one AVM"]),
    ):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_grammar(text)
        got = [i.message for i in err.value.issues]
        assert len(got) == len(messages) and all(m in g for m, g in zip(messages, got)), got


# ---------------------------------------------------------------------------
# printed spaces read back

def test_printed_rules_and_pairs_read_back_with_and_without_tags():
    golden = Path(__file__).parent / "goldens" / "engine.json"
    grammars = [load_fixture(name, restrictor=["orth"] if name == "guard.gr" else None) for name in FIXTURES]
    grammars += [parse_grammar(rec["grammar"]) for rec in json.loads(golden.read_text(encoding="utf-8"))]
    shared = alone = 0
    for g in grammars:
        spaces = [r.roots() for r in g.rules]
        first, _ = compute_first(g)
        follow, _ = compute_follow(g, first)
        for p in [*first, *follow]:
            spaces.append(list(p.lhs) if p.is_epsilon else [*p.lhs, p.rhs])
        for space in spaces:
            texts = format_roots(space)
            assert fs.equivalent_many(parse_category_sequence(" ".join(texts)), space), texts
            if any("#" in text for text in texts):
                shared += 1
            else:
                alone += 1
    assert shared > 20 and alone > 200, (shared, alone)


@st.composite
def tagged_category_texts(draw):
    """Category strings whose values share nodes through ``$n`` tags."""

    def value(depth):
        kind = draw(st.sampled_from(["atom", "tag", "tag", "avm", "tagged avm"] if depth < 3 else ["atom", "tag"]))
        if kind == "atom":
            return draw(st.sampled_from(["a", "b", "+", '"x y"']))
        if kind == "tag":
            return draw(st.sampled_from(["$1", "$2", "$3"]))
        text = avm(depth + 1)
        return f"{draw(st.sampled_from(['$1', '$2', '$3']))}:{text}" if kind == "tagged avm" else text

    def avm(depth):
        label = draw(st.sampled_from(["", "np", "Vp", "Term", "start"]))
        names = ["f", "g", "h"] if label else ["f", "g", "h", "cat"]
        feats = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
        return f"{label}[{', '.join(f'{f}={value(depth)}' for f in feats)}]"

    return " ".join(draw(st.sampled_from(["$", "$1", "$2:" + avm(0)])) if draw(st.booleans()) else avm(0)
                    for _ in range(draw(st.integers(1, 4))))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tagged_category_texts())
# a root that a tag binds to an atom, which hypothesis found at seed 7: the
# parser refuses it, where the printer once wrote it as a bare atom that
# read back as a category
@example("$1 [] [] np[f=$2:[f=$1, g=a], g=a, h=$2:[f=a]]")
def test_printed_tagged_strings_read_back(text):
    try:
        cats = parse_category_sequence(text)
    except GrammarSyntaxError:
        return
    assert fs.equivalent_many(parse_category_sequence(" ".join(format_roots(cats))), cats)


# ---------------------------------------------------------------------------
# token positions

def test_an_escaped_newline_inside_a_string_moves_later_tokens_down():
    text = 'S[f="a\\\nb"] -> x[\ng="\\\n"].\n$'
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    (issue,) = err.value.issues
    assert (issue.line, issue.col) == (5, 1)
    assert issue.message == "unknown syntax: '$' is reserved for the end marker"
    assert [r.line for r in parse_grammar(text[:-1]).rules] == [1]


def test_a_tag_number_is_ascii_digits():
    """``$n`` and ``#n`` take 0-9 only: any other digit after ``$``, a
    decimal one of another script ('３', '٣') or not ('²', '①'), is an
    unexpected character after an end mark."""
    for text in ("A[f=$²]", "A[f=$①]", "A[f=$３]", "A[f=$٣]"):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_category_sequence(text)
        assert str(err.value.issues[0]) == f"1:6: unknown syntax: unexpected character {text[5]!r}", text
    assert fs.equivalent_many(parse_category_sequence("A[f=$09] B[g=#09]"), parse_category_sequence("A[f=$1] B[g=$1]"))


@pytest.mark.parametrize("blank", ["\f", "\v", "\xa0"])
def test_only_space_tab_return_and_newline_separate_tokens(blank):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_category_sequence(f"A[]{blank}B[]")
    assert [str(i) for i in err.value.issues] == [f"1:4: unknown syntax: unexpected character {blank!r}"]


def test_a_stray_character_in_a_grammar_of_many_lines_is_placed():
    """Lines count the newlines of comments and escaped ones in strings; the
    lexer reports a character no token starts with and reads on."""
    text = 'S[] -> A[orth="x\\\ny"].  % two lines\nA[] -> .\n  B[] -> @ C[]. C[] -> ~.\n'
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert [str(i) for i in err.value.issues] == [
        "4:10: unknown syntax: unexpected character '@'",
        "4:24: unknown syntax: unexpected character '~'",
    ]
    assert [r.line for r in parse_grammar(text.replace("@", "").replace("~", "")).rules] == [1, 3, 4, 4]


def test_a_string_that_a_newline_leaves_open_is_not_a_value():
    for parse, text, col in ((parse_category_sequence, 'A[f="x\n]', 5), (parse_grammar, 'S[] -> A[f="x\n].', 12)):
        with pytest.raises(GrammarSyntaxError) as err:
            parse(text)
        assert [str(i) for i in err.value.issues] == [
            f"1:{col}: unknown syntax: unterminated string",
            "2:1: unknown syntax: expected a value, found ']'",
        ]


def test_parsing_time_grows_linearly_with_the_text():
    # 20,000 rules, 0.9 MB: a rescan of the text per token takes minutes
    text = "".join(f"S{i}[agr=$1, f=[g=a]] -> A{i}[agr=$1] b[].\n" for i in range(20_000))
    t0 = time.perf_counter()
    g = parse_grammar(text)
    elapsed = time.perf_counter() - t0
    assert [r.line for r in g.rules[-2:]] == [19_999, 20_000]
    assert elapsed < 15, f"parsing 20,000 rules took {elapsed:.1f} s"
