"""Feature-structure algebra: contract examples and algebra laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featflow import fs, grammar
from featflow.fs import (
    Node,
    UnificationFailed,
    atom,
    clone,
    clone_many,
    empty,
    equivalent,
    node,
    restrict,
    restrict_many,
    subsumes,
    subsumes_many,
    unify,
    unify_copy,
    unify_in_place,
)
from featflow.grammar import format_roots, parse_category, parse_category_sequence
import lattice_tools as lt
from support import has_path, node_state


def np(**extra):
    return Node(arcs={"cat": atom("np"), **extra})


# ---------------------------------------------------------------------------
# unify

def test_unify_variable_against_atom():
    out = unify(node(agr=empty()), node(agr=atom("sg")))
    assert equivalent(out, node(agr=atom("sg")))


def test_unify_atom_clash():
    with pytest.raises(UnificationFailed):
        unify(atom("sg"), atom("pl"))


def test_unify_slash_value_clash_without_restriction():
    a = np(slash=atom("null"))
    b = np(slash=np())
    with pytest.raises(UnificationFailed):
        unify(a, b)


def test_unify_does_not_mutate_inputs():
    a = node(agr=empty())
    b = node(agr=atom("sg"))
    unify(a, b)
    assert fs.deref(a.arcs["agr"]).atom is None
    assert equivalent(a, node(agr=empty()))


def test_unify_in_place_propagates_bindings_through_rule_space():
    # VP[agr=#1] -> Vtra[agr=#1] joined with a fully shared (Vtra, Vtra) pair
    shared = empty()
    mother = Node(arcs={"cat": atom("vp"), "agr": shared})
    daughter = Node(arcs={"cat": atom("vtra"), "agr": shared, "ter": atom("+")})
    pair_root = Node(arcs={"cat": atom("vtra"), "ter": atom("+")})
    unify_in_place(daughter, pair_root)
    merged = fs.deref(pair_root)
    assert fs.deref(mother.arcs["agr"]) is fs.deref(merged.arcs["agr"])


def test_unify_in_place_idempotent_against_equal_category():
    a = np(agr=atom("sg"))
    b = np(agr=atom("sg"))
    snapshot = clone(a)
    unify_in_place(a, b)
    assert equivalent(fs.deref(a), snapshot)


def test_unify_restricted_epsilon_category_accepts_slash_null_daughter():
    daughter = np(slash=atom("null"))
    eps_lhs = restrict(np(slash=np()), fs.make_restrictor(["slash"]))
    out = unify(daughter, eps_lhs)
    assert equivalent(out, np(slash=atom("null")))


def test_unify_rejects_cycles_with_distinct_diagnostic():
    inner = empty()
    a = node(f=inner, g=inner)
    b = node(f=node(h=empty()), g=node())  # forces f/g merge targets to nest
    b.arcs["g"] = b.arcs["f"].arcs["h"]
    with pytest.raises(UnificationFailed) as err:
        unify(a, b)
    assert err.value.reason == "cycle"


# ---------------------------------------------------------------------------
# unifiability

def test_any_top_level_atom_clash_fails_unification():
    for a, b in (
        (np(), node(cat=atom("vp"))),
        (np(ter=atom("+")), np(ter=atom("-"))),
        (np(agr=atom("sg")), np(agr=atom("pl"))),
    ):
        assert not fs.unifiable(a, b) and not fs.unifiable(b, a)
        with pytest.raises(UnificationFailed) as err:
            unify(a, b)
        assert err.value.reason == "clash"


def test_a_nested_atom_clash_fails_unification():
    a = np(agr=node(num=atom("sg")))
    b = np(agr=node(num=atom("pl")))
    assert not fs.unifiable(a, b)
    with pytest.raises(UnificationFailed) as err:
        unify(a, b)
    assert err.value.reason == "clash"


def test_unifiable_atom_roots_and_atoms_against_complex_nodes():
    for a, b, outcome in (
        (atom("sg"), atom("pl"), False),
        (atom("sg"), atom("sg"), True),
        (atom("sg"), np(), False),
        (atom("sg"), empty(), True),
        (np(agr=atom("sg")), np(agr=node(num=atom("sg"))), False),
        (np(agr=atom("sg")), np(agr=empty()), True),
    ):
        assert fs.unifiable(a, b) is outcome and fs.unifiable(b, a) is outcome


def test_unifiable_reads_through_forwarding_pointers():
    a = np(agr=empty())
    unify_in_place(a.arcs["agr"], atom("sg"))
    assert not fs.unifiable(a, np(agr=atom("pl")))
    assert fs.unifiable(a, np(agr=atom("sg")))


# ---------------------------------------------------------------------------
# subsumption

def test_subsumes_less_information():
    assert subsumes(np(), np(agr=atom("sg")))
    assert not subsumes(np(agr=atom("sg")), np())


def test_subsumes_reentrancy_against_equal_atoms():
    sh = empty()
    reentrant = node(f=sh, g=sh)
    atoms = node(f=atom("sg"), g=atom("sg"))
    assert subsumes(reentrant, atoms)
    assert not subsumes(atoms, reentrant)


def test_subsumes_reentrancy_needs_matching_targets():
    sh = empty()
    reentrant = node(f=sh, g=sh)
    assert not subsumes(reentrant, node(f=atom("sg"), g=atom("pl")))
    assert not subsumes(reentrant, node(f=empty(), g=empty()))


def test_subsumes_reflexive():
    sh = empty()
    for x in (atom("sg"), empty(), np(agr=sh, num=sh)):
        assert subsumes(x, x)


def test_pair_space_subsumption_shared_side():
    # a two-rooted space with a cross-root reentrancy is subsumed by the
    # same space without it
    sh = empty()
    with_link = [node(f=sh), node(f=sh)]
    without = [node(f=empty()), node(f=empty())]
    assert subsumes_many(without, with_link)
    assert not subsumes_many(with_link, without)


# ---------------------------------------------------------------------------
# restriction

def test_restrict_drops_slash():
    sh = empty()
    out = restrict(np(agr=sh, slash=atom("null")), fs.make_restrictor(["slash"]))
    # the empty agr is reached once, so the stored form prunes it
    assert equivalent(out, np())
    assert not has_path(out, ("slash",))


def test_restrict_empty_restrictor_is_identity():
    x = np(agr=atom("sg"), slash=np())
    assert equivalent(restrict(x, frozenset()), x)


def test_restrict_collapses_orth_variants():
    a = restrict(node(orth=atom("the dog")), fs.make_restrictor(["orth"]))
    b = restrict(node(orth=atom("the fat dog")), fs.make_restrictor(["orth"]))
    assert equivalent(a, b)


def test_a_string_is_not_a_restrictor():
    with pytest.raises(TypeError, match="parse_restrictor"):
        fs.make_restrictor("orth")
    with pytest.raises(TypeError, match="parse_restrictor"):
        fs.make_restrictor(b"orth")
    # a segment that is not a string is a malformed path
    with pytest.raises(ValueError, match="malformed feature path"):
        fs.make_restrictor([("a", 1)])
    assert not fs.valid_feature(1) and not fs.valid_feature(b"a")
    assert fs.make_restrictor(["orth"]) == frozenset({("orth",)})


def test_restrict_idempotent():
    phi = fs.make_restrictor(["slash", "agr.num"])
    x = np(agr=node(num=atom("sg"), per=atom("3")), slash=np())
    once = restrict(x, phi)
    twice = restrict(once, phi)
    assert equivalent(once, twice)
    assert not has_path(once, ("slash",))
    assert not has_path(once, ("agr", "num"))
    assert has_path(once, ("agr", "per"))


def test_restrict_applies_through_reentrancies():
    sh = node(mark=atom("z"))
    x = node(f=sh, g=sh)
    out = restrict(x, fs.make_restrictor(["f.mark"]))
    # f and g share, so the deleted arc disappears from both routes
    assert not has_path(out, ("g", "mark"))


def test_restrict_multi_root_spaces():
    sh = empty()
    pair = [np(agr=sh, slash=atom("null")), Node(arcs={"cat": atom("det"), "slash": atom("null")})]
    out = restrict_many(pair, fs.make_restrictor(["slash"]))
    assert not has_path(out[0], ("slash",))
    assert not has_path(out[1], ("slash",))


# ---------------------------------------------------------------------------
# cloning and equivalence

def test_clone_preserves_cross_root_sharing():
    sh = empty()
    mother = np(agr=sh)
    daughter = Node(arcs={"cat": atom("vp"), "agr": sh})
    cm, cd = clone_many([mother, daughter])
    assert fs.deref(cm.arcs["agr"]) is fs.deref(cd.arcs["agr"])
    assert cm is not mother and fs.deref(cm.arcs["agr"]) is not sh


def test_clone_atom():
    assert equivalent(clone(atom("sg")), atom("sg"))


def test_clones_are_independent():
    x = node(agr=empty())
    a, b = clone(x), clone(x)
    unify_in_place(a.arcs["agr"], atom("sg"))
    assert fs.deref(b.arcs["agr"]).atom is None


def test_equivalent_with_clone_and_not_with_different_atom():
    x = np(agr=atom("sg"))
    assert equivalent(x, clone(x))
    assert not equivalent(node(f=atom("sg")), node(f=atom("pl")))


def test_equivalent_sharing_differs():
    sh = empty()
    assert not equivalent(node(f=sh, g=sh), node(f=empty(), g=empty()))


def test_prune_empty_leaves_keeps_shared_and_roots():
    sh = empty()
    a = node(agr=empty(), deep=node(hollow=empty()), link=sh, cross=sh)
    (out,) = fs.prune_empty_leaves([a])
    assert "agr" not in out.arcs
    assert "deep" not in out.arcs  # recursively hollow
    assert "link" in out.arcs and "cross" in out.arcs  # shared pair survives


# ---------------------------------------------------------------------------
# randomized structures with sharing, depth <= 4

FEATS = ("f", "g", "h")
ATOM_NAMES = ("x", "y", "z")


@st.composite
def structures(draw, max_depth=4, tree=False):
    """Random structures reusing earlier nodes at random; with ``tree``,
    only atoms are reused."""
    pool = []

    def build(depth):
        kinds = ("atom", "empty", "complex") if depth > 0 else ("atom", "empty")
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            made = atom(draw(st.sampled_from(ATOM_NAMES)))
        elif kind == "empty":
            made = empty()
        else:
            arcs = {}
            for feat in FEATS:
                if not draw(st.booleans()):
                    continue
                if pool and draw(st.integers(0, 3)) == 0:
                    arcs[feat] = pool[draw(st.integers(0, len(pool) - 1))]
                else:
                    arcs[feat] = build(depth - 1)
            made = Node(arcs=arcs)
        if made.atom is not None or not tree:
            pool.append(made)
        return made

    return build(max_depth)


@settings(max_examples=150, deadline=None)
@given(structures(), structures())
def test_random_commutativity(a, b):
    assert lt.check_commutativity([(a, b)]) == []


@settings(max_examples=120, deadline=None)
@given(structures(), structures(), structures())
def test_random_associativity(a, b, c):
    assert lt.check_associativity([(a, b, c)]) == []


@settings(max_examples=150, deadline=None)
@given(structures())
def test_random_idempotence_and_reflexivity(a):
    assert lt.check_idempotence([a]) == []
    assert subsumes(a, a)


@settings(max_examples=150, deadline=None)
@given(structures(), structures())
def test_random_unify_bounds_and_antisymmetry(a, b):
    assert lt.check_unify_bounds([(a, b)]) == []
    if subsumes(a, b) and subsumes(b, a):
        assert equivalent(a, b)


@settings(max_examples=120, deadline=None)
@given(structures(), structures(), structures())
def test_random_transitivity(a, b, c):
    if subsumes(a, b) and subsumes(b, c):
        assert subsumes(a, c)


@settings(max_examples=200, deadline=None)
@given(structures(), structures())
def test_random_unifiable_matches_unify(a, b):
    assert fs.unifiable(a, b) == (lt.try_unify(a, b) is not None)


@settings(max_examples=300, deadline=None)
@given(structures(tree=True), structures())
def test_random_unifiable_skipping_the_cycle_check_next_to_a_tree(a, b):
    # two draws share no node, and one is a tree: no cycle can form
    assert fs.unifiable(a, b, tree=True) == fs.unifiable(a, b)
    assert fs.unifiable(b, a, tree=True) == fs.unifiable(b, a)


@settings(max_examples=100, deadline=None)
@given(structures())
def test_random_clone_and_restrict(a):
    assert equivalent(a, clone(a))
    phi = fs.make_restrictor(["f", "g.h"])
    out = restrict(a, phi)
    assert not has_path(out, ("f",))
    assert not has_path(out, ("g", "h"))
    assert equivalent(out, restrict(out, phi))


# ---------------------------------------------------------------------------
# unify_copy against clone, unify and restrict done in turn

RESTRICTOR_PATHS = (("f",), ("g",), ("f", "g"), ("g", "h"), ("h", "f", "g"))


def restrict_by_deleting(roots, restrictor):
    """The stored form as a copy followed by deleting each path's last arc,
    one path after another in sorted order, then ``prune_empty_leaves``:
    the reference for restrict_many."""
    out = clone_many(roots)
    for path in sorted(restrictor):
        for root in out:
            n = root
            for seg in path[:-1]:
                if n.atom is not None:
                    n = None
                    break
                n = n.arcs.get(seg)
                if n is None:
                    break
                n = fs.deref(n)
            if n is not None and n.atom is None:
                n.arcs.pop(path[-1], None)
    return fs.prune_empty_leaves(out)


def clone_unify_restrict(space, a, b, keep, restrictor):
    """What a bind did before unify_copy: clone the whole space, unify the
    clones, and take the kept roots as they are without a ``restrictor``,
    or in the stored form with one.  Returns the copies, or the reason
    unification failed."""
    copies = clone_many(space)
    twin = dict(zip(map(id, space), copies))
    try:
        unify_in_place(twin[id(a)], twin[id(b)])
    except UnificationFailed as exc:
        return exc.reason
    kept = [twin[id(k)] for k in keep]
    return kept if restrictor is None else restrict_by_deleting(kept, restrictor)


def reachable(root):
    out, stack = [], [root]
    while stack:
        n = fs.deref(stack.pop())
        if all(m is not n for m in out):
            out.append(n)
            stack.extend((n.arcs or {}).values())
    return out


@st.composite
def unify_cases(draw):
    """A space of three roots sharing nodes, two of its nodes to unify, the
    roots to keep and a restrictor.  The second node is drawn from inside
    the first one's graph at times, which makes cycles; a parsed root holds
    a tag node that carries a forwarding pointer."""
    a = draw(structures())
    inside = draw(st.integers(0, 3)) == 0
    b = draw(st.sampled_from(reachable(a))) if inside else draw(structures())
    if draw(st.booleans()):
        a = node(g=a, h=parse_category("x[h=$1, f=$1:[g=y]]"))
    c = node(f=a, g=b)
    space = [a, b, c]
    keep = draw(st.lists(st.sampled_from(space), max_size=3))
    restrictor = frozenset(draw(st.sets(st.sampled_from(RESTRICTOR_PATHS), max_size=3)))
    return space, a, b, keep, restrictor


@settings(max_examples=300, deadline=None)
@given(unify_cases(), st.booleans())
def test_random_unify_copy_matches_clone_unify_restrict(case, working):
    space, a, b, keep, restrictor = case
    if working:
        restrictor = None
    before, shown = node_state(space), format_roots(space)
    expected = clone_unify_restrict(space, a, b, keep, restrictor)
    assert node_state(space) == before
    try:
        got = unify_copy(a, b, keep, restrictor)
    except UnificationFailed as exc:
        got = exc.reason
    assert node_state(space) == before
    assert format_roots(space) == shown
    if isinstance(expected, str):
        assert got == expected
    else:
        assert fs.equivalent_many(got, expected)
        assert all(n.forward is None for r in got for n in reachable(r))


@settings(max_examples=200, deadline=None)
@given(structures(), st.sets(st.sampled_from(RESTRICTOR_PATHS), max_size=4))
def test_random_restrict_many_matches_deleting_from_a_copy(a, paths):
    space = [a, node(f=a, h=a), reachable(a)[-1]]
    before = node_state(space)
    got = restrict_many(space, frozenset(paths))
    assert node_state(space) == before
    assert fs.equivalent_many(got, restrict_by_deleting(space, frozenset(paths)))


@settings(max_examples=300, deadline=None)
@given(unify_cases())
def test_random_pruning_copy_matches_copy_then_prune(case):
    space, a, b, keep, restrictor = case
    before = node_state(space)
    want = restrict_by_deleting(space, restrictor)
    got = restrict_many(space, restrictor)
    assert node_state(space) == before
    assert fs.equivalent_many(got, want)
    assert format_roots(got) == format_roots(want)
    expected = clone_unify_restrict(space, a, b, keep, restrictor)
    try:
        got = unify_copy(a, b, keep, restrictor)
    except UnificationFailed as exc:
        got = exc.reason
    assert node_state(space) == before
    if isinstance(expected, str):
        assert got == expected
    else:
        assert fs.equivalent_many(got, expected)
        assert format_roots(got) == format_roots(expected)


def test_only_the_pruning_copy_prunes():
    # the node under f is empty: reached once in a copy of the first root
    # alone, and pruned there; shared with the second root, and kept
    space = parse_category_sequence("x[f=$1, g=[h=[]]] y[k=$1]")
    assert format_roots(restrict_many(space[:1], frozenset())) == ["x[]"]
    assert format_roots(restrict_many(space, frozenset())) == ["x[f=#1:[]]", "y[k=#1]"]
    assert format_roots(clone_many(space[:1])) == ["x[f=[], g=[h=[]]]"]
    assert format_roots([unify(space[0], parse_category("x[]"))]) == ["x[f=[], g=[h=[]]]"]
    (got,) = unify_copy(space[1], parse_category("y[]"), [space[0]], frozenset())
    assert format_roots([got]) == ["x[]"]
    (got,) = unify_copy(space[1], parse_category("y[]"), [space[0]])
    assert format_roots([got]) == ["x[f=[], g=[h=[]]]"]


@pytest.mark.parametrize(
    "a, b, reason",
    [
        ("x[f=[g=p]]", "x[f=[g=q]]", "clash"),
        ("x[f=p]", "x[f=[g=q]]", "kind"),
        ("x[h=$1, f=$1:[g=p]]", "x[h=[g=q]]", "clash"),
    ],
)
def test_unify_copy_failure_leaves_inputs_as_they_were(a, b, reason):
    a, b = parse_category(a), parse_category(b)
    before = node_state([a, b])
    with pytest.raises(UnificationFailed) as err:
        unify_copy(a, b, [a, b])
    assert err.value.reason == reason
    assert node_state([a, b]) == before
    assert not fs.unifiable(a, b)
    assert node_state([a, b]) == before


def test_unify_copy_leaves_a_forwarded_tag_node_as_it_was():
    # h reaches the tag node, whose pointer leads to the node under f; the
    # unification forwards that node in turn, so a deref that shortened
    # chains would leave the tag node pointing past it after the undo
    a = parse_category("x[h=$1, f=$1:[g=y]]")
    b = parse_category("x[f=[k=z]]")
    before = node_state([a, b])
    (got,) = unify_copy(a, b, [a])
    assert format_roots([got]) == ["x[f=#1:[g=y, k=z], h=#1]"]
    assert node_state([a, b]) == before


def test_unify_copy_cycle_leaves_inputs_as_they_were():
    inner = empty()
    a = node(f=node(g=inner))
    before = node_state([a])
    with pytest.raises(UnificationFailed) as err:
        unify_copy(a, inner, [a])
    assert err.value.reason == "cycle"
    assert node_state([a]) == before


def test_unify_copy_tagged_cycle_in_one_space():
    # f's tag node has a forwarding pointer; unifying it with the node
    # that contains it under h makes $1 = $1.h
    a = parse_category("x[f=$1:[k=z], g=[h=$1]]")
    f, g = a.arcs["f"], a.arcs["g"]
    assert fs.is_tree(g) and not fs.is_tree(a)
    before = node_state([a])
    with pytest.raises(UnificationFailed) as err:
        unify_copy(f, g, [a])
    assert err.value.reason == "cycle"
    assert node_state([a]) == before


def test_is_tree_allows_shared_atoms_only():
    sg = atom("sg")
    assert fs.is_tree(node(f=sg, g=node(h=sg), k=empty()))
    sh = empty()
    assert not fs.is_tree(node(f=sh, g=node(h=sh)))
    assert fs.is_tree(parse_category("x[f=$1:[g=y], h=[k=z]]"))
    assert not fs.is_tree(parse_category("x[h=$1, f=$1:[g=y]]"))


@st.composite
def disjoint_sides(draw):
    """Two acyclic structures sharing no node, one of them a tree, in
    either order; a parsed side holds a forwarded tag node at times."""
    tree = draw(structures(tree=True))
    other = draw(structures())
    if draw(st.booleans()):
        other = node(g=other, h=parse_category("x[h=$1, f=$1:[g=y]]"))
    return (tree, other) if draw(st.booleans()) else (other, tree)


@settings(max_examples=300, deadline=None)
@given(disjoint_sides())
def test_random_skipped_cycle_check_agrees_with_the_full_check(sides):
    a, b = sides
    assert fs.is_tree(a) or fs.is_tree(b)
    results = []
    for tree in (False, True):
        try:
            results.append(format_roots(unify_copy(a, b, [a, b], tree=tree)))
        except UnificationFailed as exc:
            results.append(exc.reason)
    assert results[0] == results[1]
    assert results[0] != "cycle"


def test_unify_copy_undoes_a_recursion_error():
    a, b = atom("p"), empty()
    for _ in range(5000):
        a, b = node(f=a), node(f=b, g=atom("q"))
    before = node_state([a, b])
    with pytest.raises(RecursionError):
        unify_copy(a, b, [a])
    assert node_state([a, b]) == before


class TrailThatFails(list):
    """A trail whose ``append`` raises once it holds ``limit`` entries, as
    a C call can raise ``RecursionError`` at any depth."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def append(self, entry):
        if len(self) >= self.limit:
            raise RecursionError("trail append refused")
        super().append(entry)


@pytest.mark.parametrize(
    "a, b",
    [
        # each kind of binding: a complex node forwarded to a complex one,
        # an empty node forwarded to an atom on either side, an arc added
        ("x[f=[], g=p, h=[m=q]]", "x[f=r, g=[], h=[n=s], k=t]"),
        ("x[f=$1, g=$1:[h=p]]", "x[f=[k=q], g=[m=r]]"),
        ("x[f=[g=[h=[]]]]", "x[f=[g=[h=[k=p], m=q], n=r]]"),
    ],
)
def test_a_trail_that_fails_at_any_entry_undoes_every_binding(a, b):
    a, b = parse_category(a), parse_category(b)
    before = node_state([a, b])
    full = []
    unify_in_place(a, b, full)
    fs._undo(full)
    assert node_state([a, b]) == before
    for limit in range(len(full)):
        trail = TrailThatFails(limit)
        with pytest.raises(RecursionError):
            unify_in_place(a, b, trail)
        fs._undo(trail)
        assert node_state([a, b]) == before, limit


def test_unify_copy_keeps_only_the_listed_roots_restricted():
    a = parse_category("x[agr=$1, slash=[cat=np]]")
    b = parse_category("x[agr=sg]")
    other = node(link=a.arcs["agr"], slash=a.arcs["slash"])
    (got,) = unify_copy(a, b, [other], fs.make_restrictor(["slash"]))
    assert format_roots([got]) == ["[link=sg]"]
    assert unify_copy(a, b, ()) == []
    assert format_roots([a, b]) == ["x[agr=[], slash=np[]]", "x[agr=sg]"]


def test_restrict_a_path_and_its_extension_through_a_shared_node():
    # a.b goes through the arc that path a already cut, so it does not
    # resolve, and the shared node keeps b under c
    shared = node(b=atom("p"), d=atom("q"))
    root = node(a=shared, c=shared)
    phi = fs.make_restrictor(["a", "a.b"])
    want = node(c=node(b=atom("p"), d=atom("q")))
    assert equivalent(restrict(root, phi), want)
    assert equivalent(restrict_by_deleting([root], phi)[0], want)
    (got,) = unify_copy(root, empty(), [root], phi)
    assert equivalent(got, want)


# ---------------------------------------------------------------------------
# atoms are values: copies share them and unification never forwards them

def forwarded_atoms(roots):
    return [i for i, (name, forward, _) in node_state(roots).items() if name is not None and forward is not None]


def assert_copied_out(inputs, outputs):
    """The outputs hold fresh complex nodes only, no forwarding pointer,
    and atoms that are atom objects of the inputs."""
    before = node_state(inputs)
    for i, (name, forward, _) in node_state(outputs).items():
        assert forward is None
        if name is None:
            assert i not in before
        else:
            assert i in before and before[i][0] == name


@pytest.mark.parametrize(
    "a, b, reason",
    [
        # f reaches p through the tag node, which is forwarded to it
        ("x[f=$1, g=$1:p]", "x[f=p, g=p, k=[h=q]]", None),
        ("x[f=$1, g=$1:p, h=q]", "x[f=p, h=r]", "clash"),
        ("x[f=$1, g=$1:p, h=q]", "x[f=p, h=[k=q]]", "kind"),
        (atom("p"), atom("p"), None),
        (atom("p"), atom("q"), "clash"),
    ],
)
def test_no_atom_is_forwarded_whatever_the_outcome(a, b, reason):
    a, b = (parse_category(x) if isinstance(x, str) else x for x in (a, b))
    before = node_state([a, b])
    trail = []
    try:
        unify_in_place(a, b, trail)
        got = None
    except UnificationFailed as exc:
        got = exc.reason
    assert got == reason
    assert forwarded_atoms([a, b]) == []
    fs._undo(trail)
    assert node_state([a, b]) == before


def test_no_atom_is_forwarded_on_a_cycle():
    # f's tag node is bound to the node under g, which holds it under h;
    # the z atom behind $2 meets the one under g's k before the cycle check
    a = parse_category("x[f=$1:[k=$2], g=[h=$1, k=z], m=$2:z]")
    before = node_state([a])
    trail = []
    with pytest.raises(UnificationFailed) as err:
        unify_in_place(a.arcs["f"], a.arcs["g"], trail)
    assert err.value.reason == "cycle"
    assert forwarded_atoms([a]) == []
    fs._undo(trail)
    assert node_state([a]) == before


@settings(max_examples=300, deadline=None)
@given(unify_cases())
def test_random_unification_never_forwards_an_atom(case):
    space, a, b, keep, restrictor = case
    trail = []
    try:
        unify_in_place(a, b, trail)
    except UnificationFailed:
        pass
    assert forwarded_atoms(space) == []
    fs._undo(trail)
    try:
        got = unify_copy(a, b, keep, restrictor)
    except UnificationFailed:
        got = []
    assert forwarded_atoms(space) == []
    assert forwarded_atoms(got) == []


@settings(max_examples=300, deadline=None)
@given(unify_cases())
def test_random_copies_share_atoms_and_no_complex_node(case):
    space, a, b, keep, restrictor = case
    assert_copied_out(space, clone_many(space))
    assert_copied_out(space, restrict_many(space, restrictor))
    try:
        got = unify_copy(a, b, keep, restrictor) + unify_copy(a, b, keep)
    except UnificationFailed:
        return
    assert_copied_out(space, got)


def subsumes_by_image(gen_roots, spec_roots):
    """Subsumption with every node of the general space, atoms included,
    mapped to its image: the reference for subsumes_many."""
    gen_roots = list(gen_roots)
    spec_roots = list(spec_roots)
    if len(gen_roots) != len(spec_roots):
        return False
    image = {}

    def walk(x, y):
        x = fs.deref(x)
        y = fs.deref(y)
        prev = image.get(id(x))
        if prev is not None:
            if prev is y:
                return True
            return prev.atom is not None and prev.atom == y.atom
        image[id(x)] = y
        if x.atom is not None:
            return y.atom == x.atom
        if x.arcs:
            if y.atom is not None:
                return False
            for feat, child in x.arcs.items():
                other = y.arcs.get(feat)
                if other is None or not walk(child, other):
                    return False
        return True

    return all(walk(x, y) for x, y in zip(gen_roots, spec_roots))


def assert_subsumption_matches_the_reference(spaces):
    for x in spaces:
        for y in spaces:
            assert subsumes_many(x, y) == subsumes_by_image(x, y), (x, y)


@settings(max_examples=300, deadline=None)
@given(unify_cases())
def test_random_iterative_subsumption_matches_the_recursive_walk(case):
    space, a, b, keep, restrictor = case
    spaces = [space, [a], [b], [space[2]], clone_many(space), restrict_many(space, restrictor)]
    if keep:
        spaces.append(keep)
    assert_subsumption_matches_the_reference(spaces)
    # merged spaces read through forwarding pointers, before the undo
    trail = []
    try:
        unify_in_place(a, b, trail)
    except UnificationFailed:
        pass  # a partly merged space is still a graph to compare
    try:
        assert_subsumption_matches_the_reference(spaces)
    finally:
        fs._undo(trail)


def chain(depth, leaf):
    """A path f.f.....f of ``depth`` arcs ending in ``leaf``."""
    root = n = Node(arcs={})
    for _ in range(depth - 1):
        n.arcs["f"] = n = Node(arcs={})
    n.arcs["f"] = leaf
    return root


def test_subsumption_of_deep_chains_needs_no_recursion():
    depth = 5_000
    general, specific = chain(depth, Node(arcs={})), chain(depth, atom("x"))
    assert subsumes_many([general], [specific])
    assert not subsumes_many([specific], [general])
    assert subsumes_many([specific], [chain(depth, atom("x"))])
    assert not subsumes_many([specific], [chain(depth, atom("y"))])
    assert not subsumes_many([chain(depth + 1, atom("x"))], [specific])
    # a forwarded node deep down is read through
    deep = chain(depth, Node(arcs={}))
    n = deep
    for _ in range(depth):
        n = n.arcs["f"]
    n.forward = atom("x")
    assert subsumes_many([specific], [deep]) and subsumes_many([deep], [specific])


def test_apartness_of_deep_chains_needs_no_recursion():
    depth = 10_000
    leaf = Node(arcs={})
    a = chain(depth, leaf)
    assert fs.apart([a], [chain(depth, atom("x"))])
    assert not fs.apart([a], [chain(depth, leaf)])
    assert not fs.apart([chain(depth, Node(arcs={"g": leaf}))], [a])


def test_apart_counts_shared_complex_nodes_not_shared_atoms():
    sg, inner = atom("sg"), node(num=atom("sg"))
    assert fs.apart([node(agr=sg)], [node(agr=sg)])
    assert not fs.apart([node(agr=inner)], [node(f=node(agr=inner))])
    a = node(f=empty())
    assert not fs.apart([a], [a]) and fs.apart([a], []) and fs.apart([], [a])
    # a forwarding pointer is read through
    b = node(g=empty())
    unify_in_place(b.arcs["g"], a.arcs["f"])
    assert not fs.apart([a], [b])


def test_unifiable_copies_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("unifiable made a copy")

    monkeypatch.setattr(fs, "_copy", refuse)
    a, b = parse_category("np[agr=$1, h=$1]"), parse_category("np[agr=sg]")
    before = node_state([a, b])
    assert fs.unifiable(a, b) and not fs.unifiable(a, parse_category("np[h=pl, agr=sg]"))
    assert node_state([a, b]) == before


def format_roots_by_visiting_atoms(roots):
    """format_roots with atoms visited like complex nodes when counting and
    rendering: its reference."""
    roots = [fs.deref(r) for r in roots]
    counts = {}

    def count(n):
        n = fs.deref(n)
        if n.atom is not None:
            return
        counts[id(n)] = counts.get(id(n), 0) + 1
        if counts[id(n)] == 1:
            for _, child in sorted(n.arcs.items()):
                count(child)

    for r in roots:
        count(r)

    tag_ids = {}

    def render(n):
        n = fs.deref(n)
        if n.atom is not None:
            return grammar._atom_text.__wrapped__(n.atom)
        prefix = ""
        if counts.get(id(n), 0) > 1:
            known = tag_ids.get(id(n))
            if known is not None:
                return f"#{known}"
            tag_ids[id(n)] = len(tag_ids) + 1
            prefix = f"#{tag_ids[id(n)]}:"
        cat = n.arcs.get("cat")
        cat_atom = fs.deref(cat).atom if cat is not None else None
        if not prefix and cat_atom == grammar.END_CATEGORY_ATOM and len(n.arcs) == 1:
            return "$"
        label = ""
        rest = dict(n.arcs)
        # a label reads back lowercased, and a reserved word there would
        # open a statement or mark a preterminal
        if (
            cat_atom is not None
            and fs.valid_feature(cat_atom)
            and cat_atom.islower()
            and cat_atom not in grammar.RESERVED_WORDS
        ):
            label = cat_atom
            del rest["cat"]
        parts = [f"{feat}={render(child)}" for feat, child in sorted(rest.items())]
        return f"{prefix}{label}[{', '.join(parts)}]"

    return [render(r) for r in roots]


@settings(max_examples=300, deadline=None)
@given(structures(), structures(), structures())
def test_random_subsumption_matches_the_image_reference(a, b, c):
    spaces = [[a], [b], [c], [clone(a)], [restrict(b, fs.make_restrictor(["g"]))]]
    if fs.unifiable(a, b):
        spaces.append([unify(a, b)])
    for x in spaces:
        for y in spaces:
            assert subsumes_many(x, y) == subsumes_by_image(x, y)
    pairs = [[a, node(f=a, g=b)], [b, node(f=b, g=b)], [c, node(f=c, g=c)], clone_many([a, node(f=a, g=b)])]
    for x in pairs:
        for y in pairs:
            assert subsumes_many(x, y) == subsumes_by_image(x, y)


# ---------------------------------------------------------------------------
# canonical keys

def lattice_spaces(rng, count):
    """Spaces of one and two roots over the depth-two universe of
    ``lattice_tools``, whose structures hold reentrancies, same-named atoms
    on two paths, shared or not, and shared empty nodes.  Some spaces share
    a node across their roots, or hold one root twice."""
    universe = lt.exhaustive_universe(depth=2)
    spaces = [[a] for a in universe]
    for _ in range(count):
        a, b = rng.choice(universe), rng.choice(universe)
        spaces += [[a, b], [a, node(f=a, g=b)], [b, b], [b, clone(b)]]
    return spaces


def test_canonical_keys_are_equal_exactly_when_spaces_are_equivalent():
    spaces = lattice_spaces(random.Random(20261020), 300)
    classes = {}
    for space in spaces:
        key = fs.canonical_key(space)
        assert fs.canonical_key(clone_many(space)) == key
        classes.setdefault(key, []).append(space)
    # equal keys: every space of a class is equivalent to its first
    for members in classes.values():
        assert all(fs.equivalent_many(members[0], s) for s in members[1:]), lt.fs_repr(members[0][0])
    merged = sum(len(members) > 1 for members in classes.values())
    assert merged > 100  # many classes hold spaces that are distinct objects
    # different keys: neighbours in key order differ least, so check those,
    # and pairs drawn at random
    firsts = sorted((members[0] for members in classes.values()), key=lambda s: repr(fs.canonical_key(s)))
    rng = random.Random(7)
    pairs = list(zip(firsts, firsts[1:])) + [tuple(rng.sample(firsts, 2)) for _ in range(2000)]
    for x, y in pairs:
        assert not fs.equivalent_many(x, y), (format_roots(x), format_roots(y))


@settings(max_examples=300, deadline=None)
@given(unify_cases(), structures())
def test_random_canonical_keys_match_equivalence(case, other):
    space, a, b, keep, restrictor = case
    for x, y in ([a], [b]), ([a], [other]), (space, clone_many(space)), ([space[2]], [other]):
        assert (fs.canonical_key(x) == fs.canonical_key(y)) == fs.equivalent_many(x, y)
    # a merged space is read through its forwarding pointers
    trail = []
    try:
        unify_in_place(a, b, trail)
        assert fs.canonical_key(space) == fs.canonical_key(clone_many(space))
    except UnificationFailed:
        pass
    finally:
        fs._undo(trail)


def test_canonical_keys_of_reentrancies_atoms_and_empty_nodes():
    key = fs.canonical_key
    shared_empty = parse_category("[f=$1:[], g=$1]")
    assert key([shared_empty]) != key([parse_category("[f=[], g=[]]")])
    # atoms of one name count as one value, shared or not
    assert key([parse_category("[f=$1:x, g=$1]")]) == key([parse_category("[f=x, g=x]")])
    assert key([parse_category("[f=x]")]) != key([parse_category("[f=y]")])
    assert key([parse_category("[f=x]")]) != key([parse_category("[f=[]]")])
    # features in sorted order, so the order they were written in is lost
    assert key([parse_category("[g=y, f=x]")]) == key([parse_category("[f=x, g=y]")])
    # sharing across roots is part of a space's key
    a = parse_category("[f=x]")
    assert key([a, a]) != key([a, clone(a)]) and key([a, a]) == key(clone_many([a, a]))


CAT_ATOMS = ("np", "Np", "term", "start", "v_2", "$", "a b")


@settings(max_examples=300, deadline=None)
@given(unify_cases(), st.data())
def test_random_rendering_matches_the_atom_visiting_reference(case, data):
    space, a, b, keep, restrictor = case
    for n in [n for r in space for n in reachable(r)]:
        if n.atom is None and "cat" not in n.arcs and data.draw(st.booleans()):
            n.arcs["cat"] = atom(data.draw(st.sampled_from(CAT_ATOMS)))
    assert format_roots(space) == format_roots_by_visiting_atoms(space)
    trail = []
    try:
        unify_in_place(a, b, trail)
        assert format_roots(space) == format_roots_by_visiting_atoms(space)
    except UnificationFailed:
        pass
    finally:
        fs._undo(trail)
