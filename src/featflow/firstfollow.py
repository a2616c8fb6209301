"""FIRST and FOLLOW for unification grammars, as binding-preserving pairs.

Instead of sets of category symbols, both functions are computed as sets
of *pairs*: the left side is a category (or a category string), the right
side is a FIRST/FOLLOW value or an empty-string mark, and the two sides
live in one shared node space so that bindings between them survive.

Pairs are stored through ``PairSet.add``, which keeps the set an
antichain: an incoming pair subsumed by a stored one is dropped, and an
incoming pair that subsumes stored ones replaces them.
Every stored pair has the grammar's restrictor applied first; that is
what keeps the set finite for grammars whose raw category space is not.
A product of a binding is restricted and pruned as it is copied out of
the bound space, by ``fs.unify_copy``, which also leaves the rule and the
stored pair it bound as they were.

Right sides are shared, read-only values, as atoms are.  A bind can reach
a pair's right side only through a complex node both sides share, so when
the sides are *apart* (``Pair.sides_apart``) a bind copies out only the
kept roots and hands the stored right side on as it is: to the product,
whose sides are then apart too, or to ``query``, which then copies
nothing.  Apartness is known by construction, with no walk, for an
empty-string pair (apart), a product whose right side was shared (apart:
its left roots are fresh copies) and a FIRST seed (not: its two sides are
one node); a product whose right side was copied with its left roots is
walked once, where the run stores it.

Pairs whose sides are apart and whose left sides are equivalent bind
alike.  The run interns every apart left side where it stores the
product (``_fixpoint``): it looks up the ``fs.canonical_key`` of the left
side and stores the product on the first left root it was offered with
that key.  So a left-side class is a node, the left root of every pair
of the class.  A read binds once per class: ``_bind_each`` binds the
first pair of a class and hands the same kept copies to every later pair
of it, with that pair's own right side; ``query`` calls ``fs.unifiable``
once per class.  Where the bound space lasts for the whole run, a FIRST
rule's own roots at its first daughter and each of FOLLOW's kept tail
spaces, the outcome of a class is kept for the run, so the class is
bound there once.  A product that repeats an earlier offer node for node
is rejected by identity.  Every pair still counts as an attempt.  So
products share their left-side nodes across a whole run, as right sides
are shared.  Sharing rests on an invariant the engine keeps:

- nothing mutates a stored right side: a bind binds a pair's right side
  only when the sides are not apart, and only for the duration of a
  ``fs.unify_copy``, and that right side is never shared;
- nothing binds a stored left side outside ``fs.unify_copy``, which
  undoes every binding it made before it returns;
- a right-side node is never another pair's left-side node (a FIRST
  seed's two sides are one node, so it is not apart), and a left-side
  node is reached only from the left roots of the pairs that share it;
- working spaces (rules, their copies, cloned query strings) never hold
  a stored node;
- ``query`` may return stored nodes, which a caller treats as read-only
  and clones before any destructive unification.

FIRST and FOLLOW run one fixpoint driver, ``_fixpoint``, which keeps the
agenda: it offers each rule visit one range of pairs, and the visit
enumerates only combinations that use an offered pair.  The two modes
differ only in that offer, and give equivalent fixpoints:

- ``naive``: every stored pair is offered on every visit.
- ``active``: each pair is offered to each rule exactly once, above the
  rule's mark, the newest serial the driver offered it before.

Visits read the set through its label index: each pool, an offer too, is
a ``_Read``, a serial range (lo, hi] of one kind of pair, which counts
its pairs when it is made.  A bind over a read tries the pairs its
position's label allows and passes the others over as ``attempts`` that
are ``filtered``.  The run's ``_Recorder`` keeps every count.  A visit's
``considered`` follows one rule: for each kind of pair, the widest range
it began to read.  A visit wakes only when some pair above its ``lo`` has
a label one of its positions can bind; one that does not binds nothing,
and passes the reads a full visit would begin.  FIRST
of a span of positions, in a rule or in a category string, is one
enumerator, ``_first_of_span``.  It runs level by level: the ways to bind
the positions before j to empty pairs are made once, kept, and extended
by one step, ``_eps_step``, for j + 1; asked, it also yields the ways the
whole span derives the empty string, as bound spaces.  FOLLOW takes each
rule's empty-string tails from it on the rule's first visit and keeps
them, since FIRST does not change while FOLLOW runs.  Nothing here
recurses.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import time
from dataclasses import dataclass, field

from . import fs
from .fs import Node, UnificationFailed
from .grammar import Grammar, end_category, format_roots, format_unshared, is_preterminal, label_of

MODES = ("naive", "active")


class LimitExceeded(Exception):
    """The iteration or pair-count guard fired before a fixpoint of
    ``function``, "FIRST" or "FOLLOW".

    Usually a sign that the restrictor does not collapse the category
    space into finitely many equivalence classes.
    """

    def __init__(self, function: str, kind: str, limit: int, stats: "RunStats"):
        self.function = function
        self.kind = kind
        self.limit = limit
        self.stats = stats
        super().__init__(f"{function} has no fixpoint within {limit} {kind}")


class UnknownCategory(Exception):
    """A queried category is neither preterminal nor known to FIRST."""


class EpsilonMark:
    """Empty-string right-hand side of a pair: ``EPSILON``, its one
    instance.  It holds nothing, since bindings between a pair's left side
    and the empty string are not kept."""

    __slots__ = ()

    def __repr__(self):
        return "EpsilonMark()"


EPSILON = EpsilonMark()


_serials = itertools.count(1)
_serial = operator.attrgetter("serial")  # the key the label index is bisected by


class Pair:
    """One element of a FIRST/FOLLOW solution.

    ``lhs`` is a tuple of category roots (length one except for string
    queries), ``rhs`` is a category root or ``EPSILON``, and all roots
    live in one shared space.  A ``PairSet`` holds its pairs in ascending
    ``serial``, the agenda and output order.  ``comparison_roots`` are the
    roots subsumption compares: ``lhs``, plus ``rhs`` unless it is an
    EpsilonMark.  ``key`` is the signature ``(len(lhs), is_epsilon)`` plus
    the ``cat`` label of each comparison root (None where a root has no
    atomic ``cat``); ``PairSet`` buckets pairs by it.  All are set once
    here, and ``lhs`` and ``rhs`` are never reassigned.

    A pair the engine adds to a ``PairSet`` is made from a product.  Its
    left roots must be a copy the run made, restricted and pruned as
    ``fs.restrict_many`` does with ``prune``: binds do that as they copy
    out, and seeds, empty-rule mothers and empty-string derivations go
    through it.  Pruning drops vacuous leftovers from discarded rule
    context, so that equal claims collide under the antichain operator.
    ``rhs`` is ``EPSILON``, or restricted and pruned too: a copy made with
    the left roots, or a stored right side a bind shared, which is one
    already.  Products share left-side nodes across a whole run, as right
    sides are shared: the kept copies of a class's bind serve every later
    product of that class in the same space, and the run interns every
    apart left side where it stores the product (``_fixpoint``), one node
    per equivalent left side, so a left-side class is a node.  Each
    left-side node is reached only from the left roots of the pairs that
    share it, and nothing binds a stored left side outside
    ``fs.unify_copy``, which undoes the binding before it returns.

    ``apart`` says whether the two sides are apart (``sides_apart``): True
    or False where the maker knows it, None to have it walked on the
    first call.  An empty-string pair is always apart.  The run knows it
    for every pair it stores, so a pair of a FIRST or FOLLOW set whose
    sides are apart has its class as its left root.
    """

    __slots__ = ("serial", "lhs", "rhs", "is_epsilon", "comparison_roots", "key", "_tree", "_apart", "_texts")

    def __init__(self, lhs, rhs, apart=None):
        self.serial = next(_serials)
        self.lhs = tuple(lhs)
        self.rhs = rhs
        self.is_epsilon = isinstance(rhs, EpsilonMark)
        # epsilon right-hand sides carry no bindings, so they do not compare
        self.comparison_roots = self.lhs if self.is_epsilon else (*self.lhs, rhs)
        signature = (len(self.lhs), self.is_epsilon)
        self.key = (signature, tuple(map(label_of, self.comparison_roots)))
        self._tree = None
        self._apart = True if self.is_epsilon else apart
        self._texts = None  # the print memo of the set that last stored the pair

    def lhs_is_tree(self) -> bool:
        """``fs.is_tree`` of the first left root, worked out on the first
        call: a bind skips the cycle check when it holds."""
        if self._tree is None:
            self._tree = fs.is_tree(self.lhs[0])
        return self._tree

    def sides_apart(self) -> bool:
        """Whether no complex node reachable from the left side is reachable
        from the right side (``fs.apart``), so that binding the left side
        cannot change the right side: a bind then shares the right side
        instead of copying it.  Walked on the first call unless given."""
        if self._apart is None:
            self._apart = fs.apart(self.lhs, (self.rhs,))
        return self._apart

    def __repr__(self):
        return f"Pair({format_pair(self)})"


def pair_subsumes(p: Pair, q: Pair) -> bool:
    """Joint subsumption over both sides, so cross-side sharing counts."""
    return p.key[0] == q.key[0] and fs.subsumes_many(p.comparison_roots, q.comparison_roots)


def pair_equivalent(p: Pair, q: Pair) -> bool:
    return pair_subsumes(p, q) and pair_subsumes(q, p)


def _key_covers(general, specific) -> bool:
    """Whether ``Pair.key`` ``general`` covers ``specific``: the same
    signature, and each label of ``general`` None or equal to
    ``specific``'s.  Only a pair keyed by a covering key can subsume one
    keyed by the covered key."""
    return general[0] == specific[0] and all(a is None or a == b for a, b in zip(general[1], specific[1]))


# the kinds of single-category pairs the label index lists: every one,
# those with an empty-string right side, and the others
_ALL, _EPS, _DRIVERS = range(3)


class PairSet:
    """Subsumption antichain of pairs and the label index that rule visits
    and lookups read.

    Stored pairs are bucketed by ``Pair.key``.  A pair with an atomic
    ``cat`` on some root subsumes, or is subsumed by, only pairs with the
    same signature and either the same ``cat`` or none there, so ``add``
    compares an incomer only with the buckets whose keys allow that.

    The label index lists the single-category pairs of each kind in serial
    order, per ``cat`` label of the left side; a pair with no atomic
    ``cat`` joins every list of its kind, and the list for None holds the
    whole kind.  A reader takes a serial range (lo, hi] of a list up to the
    ``hi`` that ``_settle`` returned: ``add`` appends above it, and a pair
    it replaces stays listed until the next ``_settle``, which the driver
    calls before every visit; the driver, not the set, keeps the marks.

    Left-side classes belong to the run, not the set: the run that fills
    a set interns every apart left side where it stores the product
    (``_fixpoint``), so a class is a node.

    Each set owns a print memo, which keeps the printed text of each side
    that ``format_pair`` printed on its own, by node, so that a side many
    of the set's pairs share is printed once; a pair takes it from the set
    that stores it.
    """

    def __init__(self):
        self.pairs = []  # insertion order, which is the output order
        self._buckets = {}  # Pair.key -> stored pairs with that key
        self._wild = {}  # the keys in _buckets that hold None, as an ordered set
        self.added = 0
        self.rejected = 0
        self.removed = 0
        # per kind: label -> its pairs in serial order, and the unlabelled pairs
        self._lists = tuple({None: []} for _ in range(3))
        self._unlabelled = ([], [], [])
        self._replaced = []  # pairs replaced since the last _settle, still listed
        # (label, is_epsilon) -> the index lists a labelled pair joins: lists
        # are never replaced, only appended to and settled
        self._held = {}
        self._texts = {}  # node -> its printed text, or False (``_side_text``)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def add(self, p: Pair) -> bool:
        """Antichain addition: drop a subsumed incomer, else replace what it
        subsumes.  Replacements enter fully active.

        Besides an equal key, only a key holding None covers another.  So
        the subsumers are looked for in the exact bucket, then in the
        buckets of the keys in ``_wild`` that cover ``p``'s key; the pairs
        ``p`` subsumes in the exact bucket, then, only when ``p``'s key
        holds None, in the buckets of every key it covers.  The cost is
        bounded by the number of buckets, whatever the key's length, and
        the buckets are walked in place, with no list of candidates."""
        roots = p.comparison_roots
        key = p.key
        signature, labels = key
        buckets = self._buckets
        subsumes = fs.subsumes_many
        bucket = buckets.get(key)
        if bucket is not None:
            for q in bucket:
                if subsumes(q.comparison_roots, roots):
                    self.rejected += 1
                    return False
        for k in self._wild:
            if k != key and _key_covers(k, key):
                for q in buckets[k]:
                    if subsumes(q.comparison_roots, roots):
                        self.rejected += 1
                        return False
        doomed = [] if bucket is None else [q for q in bucket if subsumes(roots, q.comparison_roots)]
        wild = None in labels
        if wild:
            for k, other in buckets.items():
                if k != key and _key_covers(key, k):
                    doomed += [q for q in other if subsumes(roots, q.comparison_roots)]
        if doomed:
            dead = {q.serial for q in doomed}
            self.pairs = [q for q in self.pairs if q.serial not in dead]
            for q in doomed:
                other = buckets[q.key]
                other.remove(q)
                if not other:
                    del buckets[q.key]
                    self._wild.pop(q.key, None)
                self.removed += 1
            self._replaced += doomed
            bucket = buckets.get(key)
        self.pairs.append(p)
        if bucket is None:
            buckets[key] = [p]
            if wild:
                self._wild[key] = None
        else:
            bucket.append(p)
        if signature[0] == 1:
            label = labels[0]
            holders = self._held.get((label, p.is_epsilon)) if label is not None else None
            if holders is None:
                holders = self._holders(p)
                if label is not None:
                    self._held[label, p.is_epsilon] = holders
            for listed in holders:
                listed.append(p)
        p._texts = self._texts
        self.added += 1
        return True

    def _holders(self, p: Pair) -> list:
        """The index lists that hold, or are to hold, pair ``p``."""
        if len(p.lhs) != 1:
            return []
        label = p.key[1][0]
        out = []
        for kind in (_ALL, _EPS if p.is_epsilon else _DRIVERS):
            lists = self._lists[kind]
            if label is None:
                out += [*lists.values(), self._unlabelled[kind]]
            else:
                if label not in lists:
                    lists[label] = list(self._unlabelled[kind])
                out += [lists[None], lists[label]]
        return out

    def _settle(self) -> int:
        """End the listing of each pair replaced since the last call, and
        return the newest serial (0 for an empty set): ``add`` never deletes
        the newest pair, so a range (lo, hi] up to it is empty iff lo == hi."""
        for q in self._replaced:
            for listed in self._holders(q):
                del listed[bisect.bisect_left(listed, q.serial, key=_serial)]
        self._replaced.clear()
        return self.pairs[-1].serial if self.pairs else 0

    def _span(self, kind: int, label, lo: int, hi: int) -> tuple:
        """The index list of the ``kind`` pairs a category labelled
        ``label`` can unify with (the whole kind when None), and the bounds
        (start, end) of its pairs with serials in (lo, hi]."""
        listed = self._lists[kind].get(label, self._unlabelled[kind])
        start = bisect.bisect_right(listed, lo, key=_serial) if lo else 0
        end = len(listed)
        if end and listed[-1].serial > hi:
            end = bisect.bisect_right(listed, hi, key=_serial)
        return listed, start, end

    def _woken(self, labels, lo: int) -> bool:
        """Whether some pair above serial ``lo`` may have a left side that
        a category labelled one of ``labels`` unifies with.  Asked just after
        ``_settle``: a pair added above ``lo`` and since
        replaced left a pair above it that holds its label or none."""
        lists, unlabelled = self._lists[_ALL], self._unlabelled[_ALL]
        for label in labels:
            listed = lists.get(label, unlabelled)
            if listed and listed[-1].serial > lo:
                return True
        return False


# ---------------------------------------------------------------------------
# instrumentation

@dataclass(frozen=True)
class IterationRow:
    iteration: int
    considered: float  # mean distinct pairs attempted per rule visit
    total: int  # pairs stored at iteration end
    attempts: int  # raw unification attempts during the iteration
    additions: int  # antichain additions during the iteration


@dataclass
class RunStats:
    rows: list = field(default_factory=list)
    attempts: int = 0
    events: int = 0  # (pair, rule) examination events
    wall_time: float = 0.0
    fixpoint: bool = False
    filtered: int = 0  # attempts the label index passed over, without a bind


class _Read:
    """A serial range (lo, hi] of the ``kind`` pairs of ``pset`` that
    ``_bind_each`` reads, possibly many times and in many visits: ``n`` is
    the number of pairs in it, counted when it is made.  A read is a value;
    nothing changes it."""

    __slots__ = ("pset", "kind", "lo", "hi", "n")

    def __init__(self, pset, kind, lo, hi):
        self.pset, self.kind, self.lo, self.hi = pset, kind, lo, hi
        _, start, end = pset._span(kind, None, lo, hi)
        self.n = end - start


class _Recorder:
    """The counters of one run, and the one place tests watch it from.
    ``_fixpoint`` opens iterations and visits; ``events`` is the size of
    each offer.  ``_bind_each`` counts each pair it tries as an attempt,
    one of a left-side class it has already bound too, and tells
    ``began`` of each ``_Read`` it binds; a visit tells ``passed`` of each
    it begins without a bind.  Both count the pairs a read's label passed
    over as ``filtered`` attempts, and for each kind of pair a visit
    considered the widest range it began to read.

    A test may subclass it and put the subclass in its place, overriding
    any hook as long as it calls the base method, so that the counts stay
    whole; ``began`` alone sees only the reads that are bound.  Outside
    the recorder, tests replace only ``_bind_each``, with a full scan."""

    def __init__(self):
        self.rows = []
        self.attempts = 0
        self.events = 0
        self.filtered = 0
        self._widest = None  # in a visit: per kind, the most pairs of a read it began
        self._considered = []
        self._before = (0, 0)  # attempts, and pairs added to the set, as the iteration began

    def begin_iteration(self, pset):
        self._considered = []
        self._before = (self.attempts, pset.added)

    def begin_visit(self, offer: _Read):
        """Open a visit offered the pairs of ``offer``."""
        self._widest = [0, 0, 0]
        self.events += offer.n

    def began(self, read: _Read, filtered: int):
        """The open visit began ``read``, and the label passed ``filtered``
        of its pairs over; a read begun outside a visit counts in no row."""
        self.attempts += filtered
        self.filtered += filtered
        widest = self._widest
        if widest is not None and read.n > widest[read.kind]:
            widest[read.kind] = read.n

    passed = began  # counts a read begun without a bind as ``began`` does

    def end_visit(self):
        """Close the visit, counting for each kind the widest read it
        began; a visit reads each kind from one set only."""
        self._considered.append(sum(self._widest))
        self._widest = None

    def end_iteration(self, pset):
        visits = len(self._considered)
        mean = sum(self._considered) / visits if visits else 0.0
        attempts, added = self._before
        row = (len(self.rows) + 1, mean, len(pset), self.attempts - attempts, pset.added - added)
        self.rows.append(IterationRow(*row))

    def finish(self, fixpoint, wall, pset=None):
        """The run's stats, ``wall`` seconds long; closes a visit a guard
        stopped and, given the set being built, the open iteration."""
        if self._widest is not None:
            self.end_visit()
        if pset is not None:
            self.end_iteration(pset)
        return RunStats(list(self.rows), self.attempts, self.events, wall, fixpoint, self.filtered)


# ---------------------------------------------------------------------------
# shared machinery

def _bind(root, pair, kept, cut, prune):
    """Unify ``root``, a root of a working space, with a stored pair's left
    side, and copy out the roots ``kept`` of that space, restricted by
    ``cut`` and, with ``prune``, pruned: a product to store is both, a
    working space is copied as it is.

    Returns (kept_copies, bound_rhs, apart), or None on failure: bound_rhs
    is the pair's right side under the binding, ``EPSILON`` for an
    empty-string pair, and ``apart`` is what a product of the two knows of
    its sides, as ``Pair`` takes it.  When the pair's sides are apart, the
    binding cannot reach the right side, so bound_rhs is ``pair.rhs``
    itself, already restricted and pruned, and only the kept roots are
    copied.  The kept copies are fresh, so such a product is apart.
    Otherwise the right side is copied out together with the kept roots,
    and whether they share a node is left to a walk.

    A clash, on ``cat`` too, is found by the one unification, which binds
    the inputs only for the duration of the call, so they come back
    unchanged.  The working space must be acyclic and share no node with
    the pair but atoms: the cycle check is skipped when the pair's left
    side is a tree.
    """
    lhs = pair.lhs[0]
    tree = pair.lhs_is_tree()
    if pair.sides_apart():
        try:
            return fs.unify_copy(root, lhs, kept, cut, prune, tree), pair.rhs, True
        except UnificationFailed:
            return None
    try:
        out = fs.unify_copy(root, lhs, [*kept, pair.rhs], cut, prune, tree)
    except UnificationFailed:
        return None
    rhs = out.pop()
    return out, rhs, None


def _bind_each(space, pos, read, rec, keep=None, restrictor=None, made=None):
    """``_bind`` the root at ``pos`` of ``space`` to each pair of ``read``,
    a ``_Read``, that its label allows, in serial order, copying out the
    roots at the indices ``keep`` (every root when None); with a
    ``restrictor`` (an empty one too) the copies are products to store.
    Yields (pair, kept_roots, bound_rhs, apart) for each success, as
    ``_bind`` returns them: bound_rhs is ``EPSILON`` for an empty pair.

    The read is begun on entry, so a visit a guard stops inside it counts
    its whole range.  The label is read from ``space``, where earlier
    bindings may have set it.  The pairs it passes over, whose ``cat``
    differs, are attempts that were ``filtered``: counted, not bound.
    Each pair it tries is counted as an attempt.  What every bind of the
    read shares, the kept roots and the restriction, is set up once.

    The run interns every apart left side where it stores the product
    (``_fixpoint``), so a left-side class is a node: pairs whose sides are
    apart and whose left root is one node bind alike, and only the first
    pair of each class is bound.  A later pair of that class fails if the
    first failed, and otherwise yields the same kept copies, with its own
    right side: its sides are apart, so the binding cannot reach it.  Any
    other pair binds alone.

    ``made`` maps each class bound so far, by its left root, to its kept
    copies, or to None if the bind failed.  A caller whose ``space``,
    ``pos``, ``keep`` and ``restrictor`` recur over a run passes one
    ``made`` for all of them, so a class is bound once per run there;
    otherwise each call starts its own.
    """
    root = space[pos]
    listed, start, end = read.pset._span(read.kind, label_of(root), read.lo, read.hi)
    rec.began(read, read.n - (end - start))
    if start == end:
        return
    kept = space if keep is None else [space[i] for i in keep]
    cut, prune = restrictor or frozenset(), restrictor is not None
    if made is None:
        made = {}
    for p in listed[start:end]:
        rec.attempts += 1
        if not p._apart:
            got = _bind(root, p, kept, cut, prune)
            if got is not None:
                yield p, *got
            continue
        c = p.lhs[0]
        copies = made.get(c, False)
        if copies is False:
            got = _bind(root, p, kept, cut, prune)
            copies = made[c] = None if got is None else got[0]
        if copies is not None:
            yield p, copies, p.rhs, True


def _eps_step(level, pos, eps, rec):
    """The one ε-prefix step: bind position ``pos`` of each space of
    ``level``, an iterable of (space, newest serial bound), to each pair of
    ``eps``, a ``_Read`` of empty pairs, in order.  Yields (space, newest)
    for each success, the whole bound space copied out as it is."""
    for space, newest in level:
        for e, bound, _, _ in _bind_each(space, pos, eps, rec):
            yield bound, max(newest, e.serial)


def _first_of_span(space, span, eps, drivers, rec, keep, restrictor, fresh=None, with_empty=False, made=None):
    """FIRST of the positions ``span`` of ``space`` under the empty pairs
    read by ``eps`` and the others read by ``drivers``, two ``_Read`` of one
    set up to one serial: for each position, every way to bind the
    positions before it to empty pairs and itself to a non-empty pair.
    Yields (kept_roots, bound_rhs, apart), copied out of the bound space as
    ``_bind_each`` does with ``keep`` and ``restrictor``; ``with_empty``,
    then (space, EPSILON, True) for every way the whole span derives the
    empty string, ``space`` the whole bound space, unrestricted: ``space``
    itself when the span is empty.

    It runs level by level.  The level of position j is the ε-bound
    prefixes before j as (space, newest empty serial bound); the level of
    j + 1 is ``_eps_step`` on it, built while j + 1 is driven, in the order
    of the nested loops, and kept for the next step, so each prefix is
    bound once.  The enumeration stops at the first empty level, and so
    at a position whose label has no empty pair in ``eps``: ``eps`` is
    passed, with the empty pairs each prefix would pass over there.  Built
    lazily, a level is read no further than a guard that stops the visit
    lets it; a last level nothing reads is not built.

    ``fresh`` is a read of the drivers above some serial ``lo``: a
    combination that binds no empty pair above ``lo`` takes its driver from
    it, and an empty-string derivation that binds none is left out, so
    every one uses a pair above ``lo``; when ``lo`` is 0, every pair is
    above it, and so is a derivation that binds nothing.

    ``made``, a memo of the kept copies of each class bound
    (``_bind_each``), goes to the binds of the first position, the only
    ones made in ``space`` itself; later positions bind ε-bound prefixes,
    new copies on every call.
    """
    fresh = fresh or drivers
    last = len(span) - 1
    level = [(space, 0)]
    for j, pos in enumerate(span):
        prefixes = []
        for bound, newest in level:
            prefixes.append((bound, newest))
            pool = drivers if newest > fresh.lo else fresh
            for _, kept, rhs, apart in _bind_each(bound, pos, pool, rec, keep, restrictor, made):
                yield kept, rhs, apart
        made = None
        if not prefixes or (j == last and not with_empty):
            return
        # an atomic cat stays in every prefix; empty reads start at 0
        _, start, end = eps.pset._span(_EPS, label_of(space[pos]), 0, eps.hi)
        if start == end:
            rec.passed(eps, len(prefixes) * eps.n)
            return
        level = _eps_step(prefixes, pos, eps, rec)
    if with_empty:
        for bound, newest in level:
            if newest > fresh.lo or not fresh.lo:
                yield bound, EPSILON, True


def _fixpoint(function: str, g: Grammar, mode: str, seed, visit):
    """The fixpoint loop of ``function``, FIRST or FOLLOW; returns
    (PairSet, RunStats).

    ``seed(store)`` stores the initial pairs.  Then each pass visits every
    rule as ``visit(rule, offer, rec, store)``, which returns whether it
    added a pair, until a pass adds none.  ``offer`` is a ``_Read`` of all
    pairs of the set being built, in (lo, hi]: the visit reads the set up to
    serial ``hi`` and examines the pairs above ``lo``, every stored pair in
    naive mode (lo is 0), those not yet offered to the rule in active mode.
    ``rec`` is the run's recorder, which the visit tells of each ``_Read``
    it begins.  ``store(lhs_roots, rhs, apart)`` adds that ``Pair`` to the
    set, ``apart`` as ``Pair`` takes it; the insertion that takes the set
    past ``g.max_pairs`` raises LimitExceeded, as does a pass beyond
    ``g.max_iterations``.

    ``store`` walks ``fs.apart`` once for a product whose ``apart`` is
    None, and interns every apart left side: it stores the product on the
    first left root it was offered with the same ``fs.canonical_key``, its
    class root, so products with equivalent left sides share one left
    node, whichever bind copied them, and a left-side class is a node.
    This is the run's one class lookup; a root map keys each left root
    once.  So an apart product may be the very (left root, right side)
    node pair of an earlier offer.  That offer was stored or subsumed, and
    the set still holds a subsumer of it, since a pair is replaced only by
    one that subsumes it: so ``store`` rejects the repeat, counted as
    ``PairSet.add`` would count it, without a ``Pair`` or a scan.  A
    product whose sides are not apart is stored as it is.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
    out = PairSet()
    rec = _Recorder()
    started = time.perf_counter()  # the engine's one clock, for wall_time
    active = mode == "active"
    marks = {}  # rule id -> the newest serial offered to the rule, in active mode
    classes = {}  # fs.canonical_key of an apart left side -> its class root
    rooted = {}  # left root -> its class root, so that each is keyed once
    offered = set()  # (class root, right side) of each product offered with its sides apart

    def finish(fixpoint, pset=None):
        return rec.finish(fixpoint, time.perf_counter() - started, pset)

    def store(lhs_roots, rhs, apart):
        if apart is None:
            apart = fs.apart(lhs_roots, (rhs,))
        if apart:
            left = lhs_roots[0]
            root = rooted.get(left)
            if root is None:
                root = rooted[left] = classes.setdefault(fs.canonical_key((left,)), left)
            sides = (root, rhs)
            if sides in offered:
                out.rejected += 1
                return False
            offered.add(sides)
            lhs_roots = (root,)
        added = out.add(Pair(lhs_roots, rhs, apart))
        if added and len(out) > g.max_pairs:
            raise LimitExceeded(function, "pairs", g.max_pairs, finish(False, out))
        return added

    seed(store)
    for iteration in itertools.count(1):
        if iteration > g.max_iterations:
            raise LimitExceeded(function, "iterations", g.max_iterations, finish(False))
        rec.begin_iteration(out)
        changed = False
        for r in g.rules:
            hi = out._settle()
            offer = _Read(out, _ALL, marks.get(r.rule_id, 0), hi)
            if active:
                marks[r.rule_id] = hi
            rec.begin_visit(offer)
            changed |= visit(r, offer, rec, store)
            rec.end_visit()
        rec.end_iteration(out)
        if not changed:
            return out, finish(True)


def _wake_labels(roots):
    """The labels of ``roots`` for ``PairSet._woken``, each once, or None
    when a root has no atomic ``cat``, since any pair may bind it."""
    labels = [label_of(root) for root in roots]
    return None if None in labels else tuple(dict.fromkeys(labels))


# ---------------------------------------------------------------------------
# FIRST

def compute_first(g: Grammar, mode: str = "active"):
    """Fixpoint of the FIRST pair set; returns (PairSet, RunStats).

    Preterminal daughter occurrences seed the set as fully shared
    (category, category) pairs.  Then rule passes run until one adds
    nothing: an empty rule contributes (mother, empty); a rule X -> Y1..Yk
    contributes (X', a) whenever position i's daughter unifies with the
    left side of a stored non-empty pair while every earlier daughter
    simultaneously unifies with left sides of empty pairs, and (X', empty)
    when all k daughters do.  A combination must use an offered pair, so a
    visit where no daughter's label has a pair above ``lo`` reads nothing.
    """
    # rule id -> (the rule's space, the positions of its daughters, their
    # wake labels, and the first daughter's binds in that space, by class)
    plans = {
        r.rule_id: (r.roots(), list(range(1, 1 + len(r.daughters))), _wake_labels(r.daughters), {})
        for r in g.rules
    }

    def seed(store):
        for r in g.rules:
            for d in r.daughters:
                if is_preterminal(d):
                    root = fs.restrict(d, g.restrictor, prune=True)
                    store((root,), root, False)  # one node on both sides

    def visit(rule, offer, rec, store):
        if rule.is_epsilon:
            # only the first store can be accepted, since a covered pair
            # stays covered, so a visit offered pairs above 0 stores nothing
            return not offer.lo and store((fs.restrict(rule.mother, g.restrictor, prune=True),), EPSILON, True)
        if not offer.n:
            return False
        first, lo, hi = offer.pset, offer.lo, offer.hi
        base, span, labels, made = plans[rule.rule_id]
        eps = _Read(first, _EPS, 0, hi)
        fresh = _Read(first, _DRIVERS, lo, hi)
        if labels is not None and not first._woken(labels, lo):
            # a full visit would pass every fresh driver over and bind the
            # first daughter's empty pairs to no avail
            rec.passed(eps, 0)
            rec.passed(fresh, 0)
            return False
        drivers = _Read(first, _DRIVERS, 0, hi) if lo else fresh
        changed = False
        products = _first_of_span(base, span, eps, drivers, rec, [0], g.restrictor, fresh, with_empty=True, made=made)
        for mother, rhs, apart in products:
            if rhs is EPSILON:
                mother = fs.restrict_many(mother[:1], g.restrictor, prune=True)
            changed |= store(mother, rhs, apart)
        return changed

    return _fixpoint("FIRST", g, mode, seed, visit)


# ---------------------------------------------------------------------------
# FIRST of a category string (on demand)

def first_of_string(first: PairSet, g: Grammar, cats) -> PairSet:
    """FIRST for a category sequence, from an existing FIRST fixpoint.

    The sequence lives in one fresh space, so bindings across positions
    and into the result are preserved.  Results are restricted and
    antichain-combined; the left side of every result pair is the whole
    (possibly further bound) sequence, a fresh copy, which the results of
    one grouped bind share; the right side is a copy, or a right side of
    ``first`` itself, shared, where the FIRST pair it came from has its
    sides apart.  ``cats`` is copied first, so that it shares no node with
    the pairs it binds or tests, as ``_bind`` requires.  A category that
    is not preterminal must unify with some FIRST left side: the check
    tests the pairs its label allows, each on its own, up to the first
    that unifies.  The result set prints through its own memo.
    """
    cats = fs.clone_many(cats)
    if not cats:
        raise ValueError("empty category string")
    hi = first._settle()
    for idx, c in enumerate(cats):
        if is_preterminal(c):
            continue
        listed, start, end = first._span(_ALL, label_of(c), 0, hi)
        if not any(fs.unifiable(c, p.lhs[0], tree=p.lhs_is_tree()) for p in listed[start:end]):
            raise UnknownCategory(
                f"position {idx + 1}: {format_roots([c])[0]} is neither preterminal "
                "nor unifiable with any FIRST left side"
            )
    out = PairSet()
    rec = _Recorder()
    span = list(range(len(cats)))
    eps, drivers = _Read(first, _EPS, 0, hi), _Read(first, _DRIVERS, 0, hi)
    for string, rhs, apart in _first_of_span(cats, span, eps, drivers, rec, None, g.restrictor, with_empty=True):
        if rhs is EPSILON:
            string = fs.restrict_many(string, g.restrictor, prune=True)
        out.add(Pair(string, rhs, apart))
    return out


# ---------------------------------------------------------------------------
# FOLLOW

def compute_follow(g: Grammar, first: PairSet, mode: str = "active"):
    """Fixpoint of the FOLLOW pair set; returns (PairSet, RunStats).

    Seeds (start, end-marker).  For each rule X -> Y1..Yk and position i,
    the FIRST values of the suffix after i (computed inside the rule
    instance, so bindings thread through the mother) feed FOLLOW(Yi); and
    when that suffix is empty or wholly derives the empty string, every
    offered (M, f) whose M unifies with X' contributes (Y'i, f).  A visit
    after the rule's first where the mother's label has no pair above
    ``lo`` binds nothing.
    """
    first_hi = first._settle()
    eps, drivers = _Read(first, _EPS, 0, first_hi), _Read(first, _DRIVERS, 0, first_hi)
    # rule id -> (the rule's space, the positions after each daughter, its mother's wake labels)
    plans = {}
    for r in g.rules:
        k = len(r.daughters)
        plans[r.rule_id] = (r.roots(), [list(range(2 + i, 1 + k)) for i in range(k)], _wake_labels([r.mother]))
    # rule id -> (i, space, made) for each daughter i and each way to bind
    # its suffix to empty pairs, enumerated on the rule's first visit, with
    # the binds of the mother in that space, by class
    kept = {}

    def seed(store):
        start, end = fs.restrict_many([g.start, end_category()], g.restrictor, prune=True)
        store((start,), end, True)  # the end category is a fresh node with an atom

    def visit(rule, offer, rec, store):
        if rule.is_epsilon:
            return False
        base, tails, labels = plans[rule.rule_id]
        first_visit = rule.rule_id not in kept
        spaces = kept.setdefault(rule.rule_id, [])
        changed, woken = False, True
        # FIRST of each proper suffix; its inputs never change, so only a
        # visit offered every pair runs this: any naive one, and the rule's
        # first, which is offered the seed at least and keeps the
        # empty-string tails
        if not offer.lo:
            for i, tail in enumerate(tails):
                products = _first_of_span(base, tail, eps, drivers, rec, [1 + i], g.restrictor, with_empty=first_visit)
                for daughter, rhs, apart in products:
                    if rhs is EPSILON:
                        spaces.append((i, daughter, {}))
                    else:
                        changed |= store(daughter, rhs, apart)
        elif labels is not None:
            woken = offer.pset._woken(labels, offer.lo)
        # the mother's FOLLOW flows to any daughter whose suffix is empty or
        # wholly derives the empty string
        if offer.n:
            if tails[0]:
                rec.passed(eps, 0)  # as enumerating the kept tail spaces began it
            if not woken:
                # a full visit would bind every kept tail space's mother to no
                # avail
                rec.passed(offer, 0)
                return False
            for i, space, made in spaces:
                for _, daughter, rhs, apart in _bind_each(space, 0, offer, rec, [1 + i], g.restrictor, made):
                    changed |= store(daughter, rhs, apart)
        return changed

    return _fixpoint("FOLLOW", g, mode, seed, visit)


# ---------------------------------------------------------------------------
# lookup

def query(result: PairSet, cat: Node) -> list:
    """Right sides of every stored pair whose left side unifies with the
    category, with that unification's bindings applied; deduplicated up to
    equivalence, keeping the most specific of comparable values, so no
    value subsumes another.  A value more specific than several kept ones
    takes the first one's place.  ``cat``
    is copied first, so that it shares no node with the pairs it binds, as
    ``_bind`` requires, even when it is a node of ``result``.

    A value whose pair has its sides apart is the stored right side itself,
    not a copy: the binding cannot change it, so such pairs are tested with
    ``fs.unifiable``, once per left-side class.  The run that made
    ``result`` interned every apart left side (``_fixpoint``), so a class
    is a left root; any other pair is bound alone.  Values are not pruned.
    Treat them as read-only, and clone one before any destructive
    unification."""
    cat = fs.clone(cat)
    out = []
    labels = []  # the label of each value in out; EPSILON, comparable with none, for ε
    have_eps = False
    unifies = {}  # left-side class, a left root -> whether cat unifies with it
    listed, start, end = result._span(_ALL, label_of(cat), 0, result._settle())
    for p in listed[start:end]:
        if p.is_epsilon and have_eps:
            continue  # only the first empty-string answer is kept; bind no more empty pairs
        if p._apart:
            c = p.lhs[0]
            ok = unifies.get(c)
            if ok is None:
                ok = unifies[c] = fs.unifiable(cat, c, p.lhs_is_tree())
            if not ok:
                continue
            rhs = p.rhs
        else:
            got = _bind(cat, p, (), frozenset(), False)
            if got is None:
                continue
            rhs = got[1]
        if p.is_epsilon:
            out.append(rhs)
            labels.append(EPSILON)
            have_eps = True
            continue
        label = label_of(rhs)
        general = []  # the places of the kept values rhs is more specific than
        for idx, have in enumerate(out):
            have_label = labels[idx]
            if have_label is EPSILON or label is not None and have_label is not None and have_label != label:
                continue  # values with different atomic cats never subsume each other
            if fs.subsumes(rhs, have):
                break  # an equal or more specific value is kept
            if fs.subsumes(have, rhs):
                general.append(idx)
        else:
            if general:
                out[general[0]], labels[general[0]] = rhs, label
                for idx in reversed(general[1:]):
                    del out[idx], labels[idx]
            else:
                out.append(rhs)
                labels.append(label)
    return out


# ---------------------------------------------------------------------------
# mode comparison

def pair_sets_equivalent(a: PairSet, b: PairSet) -> bool:
    """Pair-for-pair bijection up to equivalence (both are antichains, so
    matching is one-to-one whenever sizes agree)."""
    if len(a.pairs) != len(b.pairs):
        return False
    # equivalent pairs have equal keys, so only b's bucket for p.key can match
    return all(any(pair_equivalent(p, q) for q in b._buckets.get(p.key, ())) for p in a.pairs)


@dataclass
class ModeReport:
    """Whether the two modes' FIRST and FOLLOW sets are equivalent, and
    each run's ``RunStats`` by mode.  It holds no pair set, so reports kept
    for many grammars stay small."""

    rules: int
    first_equivalent: bool
    follow_equivalent: bool
    first_stats: dict
    follow_stats: dict

    def _ratio(self, counter: str) -> float | None:
        """Naive over active ``counter`` summed over FIRST and FOLLOW, None
        when active made none."""
        naive, active = (
            getattr(self.first_stats[mode], counter) + getattr(self.follow_stats[mode], counter)
            for mode in ("naive", "active")
        )
        return naive / active if active else None

    @property
    def attempt_ratio(self) -> float | None:
        """Naive over active ``attempts``, which ``featflow bench`` prints.
        Not a ratio of unifications: attempts include the pairs the label
        index passed over (``filtered``) and the pairs that reuse the bind
        of an earlier pair of their left-side class, and neither costs
        one."""
        return self._ratio("attempts")

    @property
    def event_ratio(self) -> float | None:
        return self._ratio("events")


def compare_modes(g: Grammar) -> ModeReport:
    """Run both modes for FIRST and FOLLOW and check result equivalence."""
    first_sets, follow_sets = {}, {}
    first_stats, follow_stats = {}, {}
    for mode in MODES:
        first_sets[mode], first_stats[mode] = compute_first(g, mode)
        follow_sets[mode], follow_stats[mode] = compute_follow(g, first_sets[mode], mode)
    return ModeReport(
        rules=len(g.rules),
        first_equivalent=pair_sets_equivalent(first_sets["naive"], first_sets["active"]),
        follow_equivalent=pair_sets_equivalent(follow_sets["naive"], follow_sets["active"]),
        first_stats=first_stats,
        follow_stats=follow_stats,
    )


# ---------------------------------------------------------------------------
# rendering

def _sides(p: Pair) -> tuple:
    """The printed sides of ``p``: one text per left root, and the right
    side's text, None for the empty string.  Both are what one
    ``format_roots`` walk of the two gives, so a tag shared across the
    sides agrees.

    A side that shares no complex node with the other, nor within itself,
    has no tag, and prints alone as it does there.  So when the sides of a
    single-category pair are apart, each is taken from the print memo of
    the set that stored the pair, printed there on first sight; a side
    with a shared node is noted there as False and the pair printed
    jointly."""
    texts = p._texts
    if texts is not None and len(p.lhs) == 1 and p.sides_apart():
        lhs = _side_text(texts, p.lhs[0])
        if lhs is not False:
            if p.is_epsilon:
                return [lhs], None
            rhs = _side_text(texts, p.rhs)
            if rhs is not False:
                return [lhs], rhs
    if p.is_epsilon:
        return format_roots(p.lhs), None
    rendered = format_roots([*p.lhs, p.rhs])
    return rendered[:-1], rendered[-1]


def _side_text(texts: dict, root) -> str:
    """The text of ``root`` kept in ``texts``, printed and kept there on
    first sight: ``format_unshared``'s, or False when ``root`` reaches a
    complex node twice."""
    text = texts.get(root)
    if text is None:
        text = format_unshared(root)
        text = texts[root] = False if text is None else text
    return text


def _pair_text(lhs, rhs) -> str:
    """``(lhs , rhs)`` from printed sides as ``_sides`` gives them."""
    return f"({' '.join(lhs)} , {'ε' if rhs is None else rhs})"


def format_pair(p: Pair) -> str:
    return _pair_text(*_sides(p))

