"""Brute-force structure universes and algebra law checkers.

The exhaustive universe holds every structure of depth at most two over
two features and two atoms, as trees plus the variants obtained by
merging positions with equal subtree content (all the ways such a small
graph can share nodes).  Laws are then checked against whichever
subsumption/unification the package actually implements, so the checks
are independent oracles only in the quantifier, not in the relation.
"""

import itertools

from featflow import fs
from featflow.fs import Node, UnificationFailed, atom, empty
from featflow.grammar import format_roots


FEATURES = ("f", "g")
ATOMS = ("x", "y")


def _leaf_choices():
    return [("atom", "x"), ("atom", "y"), ("empty", None)]


def _tree_specs(depth):
    """Nested specs for all trees of the given depth bound."""
    specs = list(_leaf_choices())
    if depth == 0:
        return specs
    sub = _tree_specs(depth - 1)
    for feats in (("f",), ("g",), ("f", "g")):
        for combo in itertools.product(sub, repeat=len(feats)):
            specs.append(("complex", tuple(zip(feats, combo))))
    return specs


def _build(spec):
    kind, payload = spec
    if kind == "atom":
        return atom(payload)
    if kind == "empty":
        return empty()
    return Node(arcs={f: _build(s) for f, s in payload})


def _positions(node, prefix=()):
    yield prefix, node
    if node.atom is None:
        for f, c in node.arcs.items():
            yield from _positions(c, prefix + (f,))


def _merged_variants(spec):
    """For each pair of equal-subspec, non-overlapping positions of the
    tree, one variant where the two positions share a single node."""
    root = _build(spec)
    base = [(p, repr_spec) for p, repr_spec in _spec_positions(spec)]
    out = []
    for (p1, s1), (p2, s2) in itertools.combinations(base, 2):
        if not p1 or not p2:
            continue  # the root cannot be merged into a descendant
        if p1 == p2[: len(p1)] or p2 == p1[: len(p2)]:
            continue  # ancestor/descendant merge would be cyclic
        if s1 != s2:
            continue
        variant = _build(spec)
        shared = _node_at(variant, p1)
        parent = _node_at(variant, p2[:-1])
        parent.arcs[p2[-1]] = shared
        out.append(variant)
    return out


def _spec_positions(spec, prefix=()):
    yield prefix, spec
    kind, payload = spec
    if kind == "complex":
        for f, sub in payload:
            yield from _spec_positions(sub, prefix + (f,))


def _node_at(root, path):
    n = root
    for seg in path:
        n = n.arcs[seg]
    return n


def exhaustive_universe(depth=2, with_sharing=True):
    """All depth<=bound structures over FEATURES x ATOMS; with sharing,
    every single-merge variant of every tree is included too."""
    specs = _tree_specs(depth)
    out = [_build(s) for s in specs]
    if with_sharing:
        for s in specs:
            out.extend(_merged_variants(s))
    return out


def try_unify(a, b):
    try:
        return fs.unify(a, b)
    except UnificationFailed:
        return None


# ---------------------------------------------------------------------------
# laws; each returns a list of violation descriptions (empty: law holds)

def check_idempotence(universe):
    bad = []
    for a in universe:
        c = try_unify(a, a)
        if c is None or not fs.equivalent(a, c):
            bad.append(f"unify(x, x) != x for {fs_repr(a)}")
    return bad


def check_commutativity(pairs):
    bad = []
    for a, b in pairs:
        ab, ba = try_unify(a, b), try_unify(b, a)
        if (ab is None) != (ba is None):
            bad.append(f"success asymmetry for {fs_repr(a)} / {fs_repr(b)}")
        elif ab is not None and not fs.equivalent(ab, ba):
            bad.append(f"result asymmetry for {fs_repr(a)} / {fs_repr(b)}")
    return bad


def check_associativity(triples):
    bad = []
    for a, b, c in triples:
        left = _unify3(try_unify(a, b), c)
        right = _unify3(try_unify(b, c), a)
        if (left is None) != (right is None):
            bad.append(f"assoc success mismatch: {fs_repr(a)}/{fs_repr(b)}/{fs_repr(c)}")
        elif left is not None and not fs.equivalent(left, right):
            bad.append(f"assoc result mismatch: {fs_repr(a)}/{fs_repr(b)}/{fs_repr(c)}")
    return bad


def _unify3(partial, other):
    if partial is None:
        return None
    return try_unify(partial, other)


def check_unify_bounds(pairs):
    """unify(a, b) = c implies a and b both subsume c."""
    bad = []
    for a, b in pairs:
        c = try_unify(a, b)
        if c is not None and not (fs.subsumes(a, c) and fs.subsumes(b, c)):
            bad.append(f"result not bounded: {fs_repr(a)} / {fs_repr(b)}")
    return bad


def check_common_extension(pairs, universe):
    """unify succeeds iff some universe element extends both inputs.

    Sound only on a universe closed under unification of its members.
    """
    bad = []
    for a, b in pairs:
        c = try_unify(a, b)
        witness = any(fs.subsumes(a, u) and fs.subsumes(b, u) for u in universe)
        if (c is None) == witness:
            bad.append(f"extension mismatch: {fs_repr(a)} / {fs_repr(b)} (unified={c is not None})")
    return bad


def check_partial_order(universe, pairs, triples):
    bad = []
    for a in universe:
        if not fs.subsumes(a, a):
            bad.append(f"not reflexive: {fs_repr(a)}")
    for a, b in pairs:
        if fs.subsumes(a, b) and fs.subsumes(b, a) and not fs.equivalent(a, b):
            bad.append(f"antisymmetry breach: {fs_repr(a)} / {fs_repr(b)}")
    for a, b, c in triples:
        if fs.subsumes(a, b) and fs.subsumes(b, c) and not fs.subsumes(a, c):
            bad.append(f"not transitive: {fs_repr(a)} / {fs_repr(b)} / {fs_repr(c)}")
    return bad


def fs_repr(n):
    return format_roots([n])[0]
