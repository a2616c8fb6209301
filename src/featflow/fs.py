"""Feature structure algebra: attribute-value graphs with structure sharing.

A feature structure is a rooted, finite, acyclic graph.  Each node is
either an atom (a named leaf) or a complex node carrying a mapping from
feature names to child nodes.  An empty complex node is the most general
value.  Two paths that reach the same node form a reentrancy; reentrancy
is part of a structure's identity and matters for unification,
subsumption and copying.

Atoms are values.  Nothing ever mutates an atom: unification forwards a
variable to an atom but never an atom, and two atoms of one name count
as one shared value everywhere (subsumption, printing).
So copies share atoms: a copy makes fresh complex nodes and hands back
the very atom objects of its source.

Several operations work on *spaces*: collections of roots whose reachable
graphs may share nodes (a rule's mother and daughters, or the two sides of
a FIRST/FOLLOW pair).  Destructive unification (``unify_in_place``)
propagates bindings through the whole space; on failure the space is trash
and must be discarded.

A copy is one of two kinds.  A *working copy* (``clone_many``) keeps
everything, to be bound further.  The *stored form* (``restrict_many``,
given a restrictor, an empty one too) is restricted and then pruned of
vacuous leftovers (``prune_empty_leaves``), so that equal claims come out
equal; the engine stores nothing else.

``unify_copy`` unifies without copying first: it binds the two inputs in
place, records every binding on an undo trail, copies out only the roots
the caller keeps (a working copy, or the stored form when given a
restrictor) and undoes the trail before it returns or raises.  The
structures it is given, stored pairs and grammar rules included, are
therefore bound during the call and restored before it returns.  They
are safe to share between callers in one thread, but not across threads
while such a call is running.  ``apart`` tells when a
stored FIRST/FOLLOW right side can be shared instead of copied, and
``canonical_key`` names the class of equivalent spaces a left side
belongs to, so that equivalent left sides are bound once; the invariants
these rest on are listed in ``firstfollow``'s docstring.

Unification checks its result for cycles, and fails with reason
``cycle`` on one.  The check walks everything below the merged node, so
a caller may skip it where no cycle can form: both inputs acyclic (the
grammar parser rejects cyclic rules and category strings, and every
unification result is checked or cannot be cyclic), their graphs
sharing no complex node, and one of them a tree (``is_tree``).  Shared
atoms do not count: an atom has no arcs and is never forwarded, so it
links nothing.  A stored FIRST/FOLLOW pair bound to a rule, or to a copy
of a queried category, meets all three when its left side is a tree;
everything else keeps the check.

The kernels on the bind path (``_union``, ``_cyclic``, ``is_tree``,
``apart``, ``_cuts``, ``_copy`` and ``subsumes_many``) make no helper call
per node.
The benchmark's products are a few nodes each, so the fixed Python cost
of a call outweighs the graph work.  They follow ``forward`` inline
instead of calling ``deref``, key their memos by the node itself (it
hashes by identity) rather than by ``id``, build nodes without
``Node.__init__``, and use no closure or generator per node.  The
only per-node call left is a kernel's own recursion (``_union``, and
``_copy``'s walk ``_cp``), a module-level function, as the rule in
``tests/test_no_cycles.py`` asks.  ``deref`` stays the public way to
read through forwarding pointers.
"""

from __future__ import annotations

import functools
import re

FeaturePath = tuple  # tuple[str, ...]

_FEATURE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class UnificationFailed(Exception):
    """No common extension exists (or one would have to be cyclic)."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class Node:
    """One graph node: ``atom`` set on leaves, ``arcs`` on complex nodes.

    After destructive unification a complex node may carry a forwarding
    pointer; ``deref`` must be applied before inspecting ``atom`` or
    ``arcs``.  An atom never carries one.
    """

    __slots__ = ("atom", "arcs", "forward")

    def __init__(self, atom=None, arcs=None):
        self.atom = atom
        self.arcs = arcs if atom is None and arcs is not None else (None if atom else {})
        self.forward = None

    def __repr__(self):
        n = deref(self)
        if n.atom is not None:
            return f"Node(atom={n.atom!r})"
        return f"Node(arcs=[{', '.join(sorted(n.arcs))}])"


def atom(name: str) -> Node:
    return Node(atom=name)


def empty() -> Node:
    return Node()


def node(**arcs: Node) -> Node:
    """Complex node from keyword features (test and fixture convenience)."""
    return Node(arcs=dict(arcs))


def deref(n: Node) -> Node:
    """The node ``n`` stands for, following forwarding pointers.

    Chains are never shortened: ``unify_copy`` undoes the pointers it set,
    and a shortcut written across one of them would outlive the undo.
    """
    while n.forward is not None:
        n = n.forward
    return n


def valid_feature(name) -> bool:
    """Whether ``name`` is a string that names a feature."""
    return isinstance(name, str) and bool(_FEATURE_RE.match(name))


def make_path(text: str) -> FeaturePath:
    """Parse ``a.b.c`` into a feature path, validating each segment."""
    segments = tuple(text.split("."))
    if not segments or any(not valid_feature(s) for s in segments):
        raise ValueError(f"malformed feature path: {text!r}")
    return segments


def make_restrictor(paths) -> frozenset:
    """Build a restrictor from a collection of path tuples or dotted
    strings; ``grammar.parse_restrictor`` parses restrictor text."""
    if isinstance(paths, (str, bytes)):  # each character or byte would be read as a path
        raise TypeError(f"a restrictor is a collection of paths, not the string {paths!r}: use parse_restrictor")
    out = set()
    for p in paths:
        out.add(make_path(p) if isinstance(p, str) else tuple(p))
    for p in out:
        if not p or any(not valid_feature(s) for s in p):
            raise ValueError(f"malformed feature path: {p!r}")
    return frozenset(out)


# ---------------------------------------------------------------------------
# unification

def _union(a: Node, b: Node, trail: list) -> None:
    """Merge two nodes and everything below them.  Each forward set goes on
    ``trail`` as (node, None) and each arc added as (arcs dict, feature),
    for ``_undo``.  An entry goes on before its binding is made, so an
    append that raises (a ``RecursionError`` can come from any call) leaves
    no binding off the trail.

    Atoms are values: two atoms of one name unify as they are, and no atom
    is ever forwarded (a variable is forwarded to the atom instead), so the
    trail records no atom bindings.  Two atom children under one feature
    are compared here, without a call."""
    while a.forward is not None:
        a = a.forward
    while b.forward is not None:
        b = b.forward
    if a is b:
        return
    if a.atom is not None:
        if b.atom is not None:
            if a.atom != b.atom:
                raise UnificationFailed("clash", f"{a.atom} / {b.atom}")
            return
        if b.arcs:
            raise UnificationFailed("kind", f"atom {a.atom} against complex node")
        trail.append((b, None))
        b.forward = a
        return
    if b.atom is not None:
        if a.arcs:
            raise UnificationFailed("kind", f"atom {b.atom} against complex node")
        trail.append((a, None))
        a.forward = b
        return
    trail.append((a, None))
    a.forward = b
    # a is forwarded now, so nothing reads a.arcs or adds to it below
    for feat, child in a.arcs.items():
        tgt = b  # a union below may have forwarded b
        while tgt.forward is not None:
            tgt = tgt.forward
        if tgt.atom is not None:
            raise UnificationFailed("kind", f"atom {tgt.atom} against complex node")
        arcs = tgt.arcs
        have = arcs.get(feat)
        if have is None:
            trail.append((arcs, feat))
            arcs[feat] = child
        elif child.atom is not None and have.atom is not None:
            # an atom is never forwarded, so neither needs a deref
            if child.atom != have.atom:
                raise UnificationFailed("clash", f"{child.atom} / {have.atom}")
        else:
            _union(child, have, trail)


def _undo(trail) -> None:
    for target, feat in reversed(trail):
        if feat is None:
            target.forward = None
        else:
            del target[feat]


def _cyclic(roots) -> bool:
    # iterative tri-color DFS; nodes may be revisited through sharing
    done = set()
    on_path = set()
    for root in roots:
        while root.forward is not None:
            root = root.forward
        stack = [(root, False)]
        while stack:
            n, leaving = stack.pop()
            if leaving:
                on_path.discard(n)
                done.add(n)
                continue
            if n in done:
                continue
            if n in on_path:
                return True
            on_path.add(n)
            stack.append((n, True))
            if n.atom is None:
                for c in n.arcs.values():
                    while c.forward is not None:
                        c = c.forward
                    if c in on_path:
                        return True
                    if c not in done:
                        stack.append((c, False))
    return False


def unify_in_place(a: Node, b: Node, trail=None, tree=False) -> Node:
    """Destructively merge two nodes of one space; returns the merged node.

    Bindings propagate through everything reachable in the space.  On
    failure the space is left partially merged: discard it.  Given a list
    ``trail``, every binding is also appended to it, on failure too, so
    that ``_undo(trail)`` can restore the space.

    The merged node is then checked for cycles, unless ``tree`` says that
    no cycle can form: ``a`` and ``b`` lie in acyclic graphs that share no
    complex node, and one of the two is a tree (``is_tree``).  Then every
    path equation of the result follows from those of the other side
    alone, so a cycle p = p.q in the result would be one u = u.s in that
    side, which has none.
    """
    _union(a, b, [] if trail is None else trail)
    merged = deref(a)
    if not tree and _cyclic([merged]):
        raise UnificationFailed("cycle", "unification produced a cyclic structure")
    return merged


def is_tree(root: Node) -> bool:
    """True when no complex node below ``root`` is reachable by two paths.
    Atoms may be shared: they have no arcs, so a cycle never runs through
    one."""
    seen = set()
    stack = [root]
    while stack:
        n = stack.pop()
        while n.forward is not None:
            n = n.forward
        if n.atom is None:
            if n in seen:
                return False
            seen.add(n)
            stack.extend(n.arcs.values())
    return True


def unify_copy(a: Node, b: Node, keep, restrictor=None, tree=False) -> list:
    """Copies of the roots ``keep`` under the unification of ``a`` and
    ``b``; raises UnificationFailed when the two do not unify.  The inputs
    come back unchanged.  Without a ``restrictor`` the copies are a working
    copy, as ``clone_many`` makes; given one, an empty one too, they are
    the stored form, restricted and pruned as ``restrict_many`` makes it.

    Nothing is copied before unifying (nondestructive unification in the
    manner of Wroblewski 1987 and Tomabechi 1991): ``a`` and ``b`` are
    merged in place with their bindings on a trail, then only the kept
    roots are copied, so a failure copies nothing, and the trail is undone
    on every exit, by return, UnificationFailed or RecursionError alike.  ``unifiable`` is the test that copies nothing.

    The result is checked for cycles as ``unify_in_place`` does: always,
    unless the caller passes ``tree`` to say that ``a`` and ``b`` lie in
    acyclic graphs sharing no complex node, one of them a tree, where no
    cycle can form.
    """
    trail = []
    try:
        unify_in_place(a, b, trail, tree)
        return clone_many(keep) if restrictor is None else restrict_many(keep, restrictor)
    finally:
        _undo(trail)


def unify(a: Node, b: Node) -> Node:
    """Non-destructive unification; the inputs come back unchanged."""
    return unify_copy(a, b, [a])[0]


def unifiable(a: Node, b: Node, tree=False) -> bool:
    """Whether ``a`` and ``b`` unify; nothing is copied and the inputs come
    back unchanged.  ``tree`` skips the cycle check as in ``unify_copy``.

    It binds the two in place on a trail and undoes the trail, as
    ``unify_copy`` does, but copies nothing, not even an empty list of
    kept roots."""
    trail = []
    try:
        unify_in_place(a, b, trail, tree)
        return True
    except UnificationFailed:
        return False
    finally:
        _undo(trail)


def apart(roots, others) -> bool:
    """Whether no complex node reachable from ``roots`` is reachable from
    ``others``; shared atoms do not count.  Two loops over a stack, so
    depth costs no recursion."""
    mine = set()
    stack = list(roots)
    while stack:
        n = stack.pop()
        while n.forward is not None:
            n = n.forward
        if n.atom is None and n not in mine:
            mine.add(n)
            stack.extend(n.arcs.values())
    seen = set()
    stack = list(others)
    while stack:
        n = stack.pop()
        while n.forward is not None:
            n = n.forward
        if n.atom is None and n not in seen:
            if n in mine:
                return False
            seen.add(n)
            stack.extend(n.arcs.values())
    return True


# ---------------------------------------------------------------------------
# copying

def clone_many(roots) -> list:
    """Copy a whole space: same internal sharing, fresh complex nodes.  This
    is the working copy: nothing is restricted or pruned.

    Cross-root sharing is preserved because all roots go through one memo.
    Forwarding pointers are resolved away, so clones are always clean.
    Atoms are shared with the source, not copied: they are never mutated.
    """
    return _copy(roots, None)


_new_node = object.__new__  # makes a Node without running Node.__init__


def _copy(roots, cut) -> list:
    """The copy of a space: a working copy when ``cut`` is None, otherwise
    the stored form, which leaves out the arcs in ``cut``, {node:
    features}, and is pruned.

    An atom is returned as it is, so the memo and the pruning bookkeeping
    below only ever hold complex nodes.  They key by the node itself, which
    hashes by identity, so no ``id`` call is needed.

    The stored form comes out as ``prune_empty_leaves`` would leave it, in
    the same walk: a complex copy all of whose arcs are candidates goes in
    ``lone`` until the memo hands it out a second time, and every arc to a
    member of ``lone`` is a candidate, listed children first.  Once every
    reference has been seen, a candidate whose child is still in ``lone``
    and has no arcs left is deleted.
    """
    memo = {}
    lone = None if cut is None else set()  # copies that may end up empty, reached once so far
    hollow = []  # candidate arcs as (arcs dict, feature, child), in post-order
    out = []
    for r in roots:
        out.append(_cp(r, memo, cut, lone, hollow))
    for arcs, feat, child in hollow:
        if child in lone and not child.arcs:
            del arcs[feat]
    return out


def _cp(n, memo, cut, lone, hollow):
    """``_copy``'s walk: the copy of ``n``.  ``cut`` and ``lone`` are None
    in a working copy."""
    while n.forward is not None:
        n = n.forward
    if n.atom is not None:
        return n
    got = memo.get(n)
    if got is not None:
        if lone is not None:
            lone.discard(got)
        return got
    new = _new_node(Node)
    new.atom = new.forward = None
    new.arcs = arcs = {}
    memo[n] = new
    drop = cut.get(n, ()) if cut else ()
    candidates = 0
    for feat, child in n.arcs.items():
        if feat in drop:
            continue
        if child.atom is not None:
            arcs[feat] = child
            continue
        c = arcs[feat] = _cp(child, memo, cut, lone, hollow)
        if lone is not None and c in lone:
            hollow.append((arcs, feat, c))
            candidates += 1
    if lone is not None and candidates == len(arcs):
        lone.add(new)
    return new


def clone(root: Node) -> Node:
    return clone_many([root])[0]


# ---------------------------------------------------------------------------
# subsumption

def subsumes_many(gen_roots, spec_roots) -> bool:
    """True when the first space is at least as general as the second; both
    are sequences of roots.

    Every path defined in the general space must be defined in the specific
    one with a matching atom or a recursively subsuming value, and every
    shared node must stay shared.  Two atoms with the same name count as a
    shared target: sharing of fully determined values adds no information.

    One loop over a stack of (general, specific) node pairs: each complex
    general node is mapped to its image on first visit, and a second visit
    must find the same image (or a same-named atom).  The outcome does not
    depend on the visiting order, and depth costs no recursion.
    """
    if len(gen_roots) != len(spec_roots):
        return False
    image = {}
    stack = [*zip(gen_roots, spec_roots)]
    pop = stack.pop
    push = stack.append
    while stack:
        x, y = pop()
        while x.forward is not None:
            x = x.forward
        while y.forward is not None:
            y = y.forward
        if x.atom is not None:
            if y.atom != x.atom:
                return False
            continue
        prev = image.get(x)
        if prev is not None:
            if prev is not y and (prev.atom is None or prev.atom != y.atom):
                return False
            continue
        image[x] = y
        if not x.arcs:
            continue
        if y.atom is not None:
            return False
        theirs = y.arcs
        for feat, child in x.arcs.items():
            other = theirs.get(feat)
            if other is None:
                return False
            # an atom matches by name: all the image check asks of it
            if child.atom is not None:
                while other.forward is not None:
                    other = other.forward
                if other.atom != child.atom:
                    return False
            else:
                push((child, other))
    return True


def subsumes(a: Node, b: Node) -> bool:
    return subsumes_many([a], [b])


def equivalent_many(a_roots, b_roots) -> bool:
    return subsumes_many(a_roots, b_roots) and subsumes_many(b_roots, a_roots)


def equivalent(a: Node, b: Node) -> bool:
    return equivalent_many([a], [b])


def canonical_key(roots) -> tuple:
    """A tuple that two spaces share exactly when ``equivalent_many``
    holds of them: the roots walked in order, depth first, through one
    numbering.  An atom is written as its name, so atoms of one name
    count as one value, as subsumption counts them.  A complex node is
    numbered at its first visit and written as ``-1 - len(arcs)`` followed
    by each feature, in sorted order, and its value; a later visit writes
    its number alone, so sharing is part of the key.  One loop over a
    stack, so depth costs no recursion."""
    number = {}
    out = []
    stack = list(reversed(roots))
    while stack:
        n = stack.pop()
        if n.__class__ is str:  # a feature, written before its value
            out.append(n)
            continue
        while n.forward is not None:
            n = n.forward
        if n.atom is not None:
            out.append(n.atom)
            continue
        k = number.get(n)
        if k is not None:
            out.append(k)
            continue
        number[n] = len(number)
        arcs = n.arcs
        out.append(-1 - len(arcs))
        for feat in sorted(arcs, reverse=True):
            stack.append(arcs[feat])
            stack.append(feat)
    return tuple(out)


# ---------------------------------------------------------------------------
# restriction

def restrict_many(roots, restrictor) -> list:
    """The stored form of a space: a copy that deletes the final arc of
    every restrictor path and drops the vacuous leftovers as
    ``prune_empty_leaves`` does.

    Each path is resolved from each root; deletion happens at whatever node
    the prefix reaches, so values reached through reentrancies disappear
    from every route at once.  Paths that do not resolve are ignored.
    Paths apply one after another in sorted order, so a path whose prefix
    runs through an arc an earlier path deleted does not resolve.  The
    deletions are found on the source and left out of one copy, which is
    pruned in the same walk.  An empty restrictor only prunes.
    """
    return _copy(roots, _cuts(roots, restrictor))


def _cuts(roots, restrictor) -> dict:
    cut = {}
    if not restrictor:
        return cut
    for prefix, last in _split_paths(frozenset(restrictor)):
        for n in roots:
            while n.forward is not None:
                n = n.forward
            for seg in prefix:
                if n.atom is not None or seg in cut.get(n, ()):
                    n = None
                    break
                n = n.arcs.get(seg)
                if n is None:
                    break
                while n.forward is not None:
                    n = n.forward
            if n is not None and n.atom is None and last in n.arcs:
                cut.setdefault(n, set()).add(last)
    return cut


@functools.lru_cache(maxsize=256)
def _split_paths(restrictor: frozenset) -> tuple:
    """A restrictor's paths in the sorted order they apply in, each as
    (prefix, last feature); a grammar has one restrictor, so this is
    worked out once, not on every copy."""
    return tuple((path[:-1], path[-1]) for path in sorted(restrictor))


def restrict(root: Node, restrictor) -> Node:
    return restrict_many([root], restrictor)[0]


def prune_empty_leaves(roots) -> list:
    """Drop arcs to unshared, contentless nodes, in place; returns roots.

    A contentless node is a complex node with no arcs left after pruning.
    An arc to one is dropped unless the node is reachable more than once
    (a reentrancy) or is itself a root.  Vacuous leftovers from discarded
    context carry no information: they never affect a unification outcome,
    so stored results are canonicalized this way.  ``restrict_many`` makes
    the stored form, restricted and pruned, in its one walk; this is the
    reference its pruning is tested against.
    """
    roots = [deref(r) for r in roots]
    refs = {}
    for r in roots:
        refs[id(r)] = refs.get(id(r), 0) + 1
    order = []
    visited = set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        n, leaving = stack.pop()
        if leaving:
            order.append(n)
            continue
        if n.atom is not None or id(n) in visited:
            continue
        visited.add(id(n))
        stack.append((n, True))
        for child in n.arcs.values():
            c = deref(child)
            refs[id(c)] = refs.get(id(c), 0) + 1
            if c.atom is None and id(c) not in visited:
                stack.append((c, False))
    for n in order:  # children precede parents
        for feat in [f for f, c in n.arcs.items() if _vacuous(deref(c), refs)]:
            del n.arcs[feat]
    return roots


def _vacuous(n: Node, refs) -> bool:
    return n.atom is None and not n.arcs and refs.get(id(n), 0) == 1
