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

FIRST and FOLLOW run one fixpoint driver, ``_fixpoint``, whose rule
visits enumerate only combinations that use a pair they are offered.  The
two evaluation modes differ only in that offer, and give equivalent
fixpoints:

- ``naive``: every stored pair is offered on every visit.
- ``active``: each pair is offered to each rule exactly once.

FIRST of a span of positions, in a rule or in a category string, is one
enumerator, ``_first_of_span``.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from . import fs
from .fs import Node, UnificationFailed
from .grammar import Grammar, end_category, format_roots, is_preterminal, label_of

MODES = ("naive", "active")


class LimitExceeded(Exception):
    """The iteration or pair-count guard fired before a fixpoint.

    Usually a sign that the restrictor does not collapse the category
    space into finitely many equivalence classes.
    """

    def __init__(self, kind: str, limit: int, stats: "RunStats"):
        self.kind = kind
        self.limit = limit
        self.stats = stats
        super().__init__(f"no fixpoint within {limit} {kind}")


class UnknownCategory(Exception):
    """A queried category is neither preterminal nor known to FIRST."""


class EpsilonMark:
    """Empty-string right-hand side of a pair.

    Carries the grammar's most general empty-string category; bindings
    between a pair's left side and the empty string are not kept.
    """

    __slots__ = ("category",)

    def __init__(self, category: Node):
        self.category = category

    def __repr__(self):
        return "EpsilonMark()"


_serials = itertools.count(1)


class Pair:
    """One element of a FIRST/FOLLOW solution.

    ``lhs`` is a tuple of category roots (length one except for string
    queries), ``rhs`` is a category root or an EpsilonMark, and all roots
    live in one shared space.  ``origin_rule`` and ``serial`` exist for
    agenda bookkeeping and deterministic output order; a ``PairSet`` holds
    its pairs in ascending ``serial``.  ``comparison_roots``
    are the roots subsumption compares: ``lhs``, plus ``rhs`` unless it is
    an EpsilonMark.  ``key`` is the signature ``(len(lhs), is_epsilon)``
    plus the ``cat`` label of each comparison root (None where a root has
    no atomic ``cat``); ``PairSet`` buckets pairs by it.  All are set once
    here, and ``lhs`` and ``rhs`` are never reassigned.
    """

    __slots__ = (
        "serial", "lhs", "rhs", "origin_rule", "events", "is_epsilon", "comparison_roots", "key", "_tree"
    )

    def __init__(self, lhs, rhs, origin_rule=None):
        self.serial = next(_serials)
        self.lhs = tuple(lhs)
        self.rhs = rhs
        self.origin_rule = origin_rule
        self.events = 0
        self.is_epsilon = isinstance(rhs, EpsilonMark)
        # epsilon right-hand sides carry no bindings, so they do not compare
        self.comparison_roots = self.lhs if self.is_epsilon else (*self.lhs, rhs)
        signature = (len(self.lhs), self.is_epsilon)
        self.key = (signature, tuple(map(label_of, self.comparison_roots)))
        self._tree = None

    def lhs_is_tree(self) -> bool:
        """``fs.is_tree`` of the first left root, worked out on the first
        call: a bind skips the cycle check when it holds."""
        if self._tree is None:
            self._tree = fs.is_tree(self.lhs[0])
        return self._tree

    def __repr__(self):
        return f"Pair({format_pair(self)})"


def pair_subsumes(p: Pair, q: Pair) -> bool:
    """Joint subsumption over both sides, so cross-side sharing counts."""
    return p.key[0] == q.key[0] and fs.subsumes_many(p.comparison_roots, q.comparison_roots)


def pair_equivalent(p: Pair, q: Pair) -> bool:
    return pair_subsumes(p, q) and pair_subsumes(q, p)


class PairSet:
    """Subsumption antichain of pairs, the active-pair registry, and the
    label-indexed ``view`` that rule visits and lookups read.

    Stored pairs are also bucketed by ``Pair.key``.  A pair with an atomic
    ``cat`` on some root subsumes, or is subsumed by, only pairs with the
    same signature and either the same ``cat`` or none there, so ``add``
    compares an incomer only with the buckets whose keys allow that.
    """

    def __init__(self):
        self.pairs = []  # insertion order, which is the output order
        self._buckets = {}  # Pair.key -> stored pairs with that key
        self._wild = {}  # the keys in _buckets that hold None, as an ordered set
        self._mark = {}  # rule id -> highest serial offered to that rule
        self._view = None  # the View of the current pairs, built on demand
        self.added = 0
        self.rejected = 0
        self.removed = 0
        self.retired_events = 0

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def add(self, p: Pair) -> bool:
        """Antichain addition: drop a subsumed incomer, else replace what it
        subsumes.  Replacements enter fully active."""
        roots = p.comparison_roots
        for q in self._compatible(p.key, covering=True):
            if fs.subsumes_many(q.comparison_roots, roots):
                self.rejected += 1
                return False
        doomed = [
            q
            for q in self._compatible(p.key, covering=False)
            if fs.subsumes_many(roots, q.comparison_roots)
        ]
        if doomed:
            dead = {q.serial for q in doomed}
            self.pairs = [q for q in self.pairs if q.serial not in dead]
            for q in doomed:
                bucket = self._buckets[q.key]
                bucket.remove(q)
                if not bucket:
                    del self._buckets[q.key]
                    self._wild.pop(q.key, None)
                self.retired_events += q.events
                self.removed += 1
        self.pairs.append(p)
        self._buckets.setdefault(p.key, []).append(p)
        if None in p.key[1]:
            self._wild[p.key] = None
        self._view = None
        self.added += 1
        return True

    def view(self) -> "View":
        """The single-category pairs as immutable pools; a caller holding it
        keeps seeing the set as it was, whatever is added later."""
        if self._view is None:
            single = [p for p in self.pairs if len(p.lhs) == 1]
            self._view = View(
                _Pool(single),
                _Pool([p for p in single if p.is_epsilon]),
                _Pool([p for p in single if not p.is_epsilon]),
            )
        return self._view

    def _compatible(self, key, covering: bool):
        """Stored pairs that can subsume a pair keyed ``key`` (``covering``),
        or that such a pair can subsume.

        Besides an equal key, only a key holding None covers another.  So
        the exact bucket is looked up, and ``_key_covers`` checks only the
        keys in ``_wild`` when looking for subsumers, and every key only
        when an incomer holding None looks for what it subsumes.  The cost
        is bounded by the number of buckets, whatever the key's length.
        """
        yield from self._buckets.get(key, ())
        if covering:
            others = [k for k in self._wild if _key_covers(k, key)]
        elif None in key[1]:
            others = [k for k in self._buckets if _key_covers(key, k)]
        else:
            others = ()
        for k in others:
            if k != key:
                yield from self._buckets[k]

    def offer(self, rule_id: int) -> list:
        """The stored pairs not yet offered to rule ``rule_id``, which count
        as offered from now on.

        ``pairs`` is in ascending serial order, since ``add`` appends each
        new pair and only ever deletes others, so these are the suffix
        above the rule's watermark: the highest serial offered to it.
        """
        mark = self._mark.get(rule_id, 0)
        out = self.pairs[bisect.bisect_right(self.pairs, mark, key=attrgetter("serial")) :]
        if out:
            self._mark[rule_id] = out[-1].serial
        return out


class _Pool:
    """Single-category pairs in insertion order, looked up by the ``cat``
    label of the category they are to unify with.

    A pair whose left side has an atomic ``cat`` other than that label
    fails ``fs.quick_clash`` against it, so only pairs with the same label
    or none are candidates; every pair is one when the label is None.
    """

    __slots__ = ("pairs", "serials", "_candidates")

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        self.serials = frozenset(p.serial for p in self.pairs)
        self._candidates = {None: self.pairs}

    def candidates(self, label) -> tuple:
        got = self._candidates.get(label)
        if got is None:
            got = tuple(p for p in self.pairs if p.key[1][0] in (None, label))
            self._candidates[label] = got
        return got


class View(NamedTuple):
    single: _Pool  # every single-category pair
    eps: _Pool  # those with an empty-string right side
    drivers: _Pool  # the others


def _key_covers(general, specific) -> bool:
    """Whether a pair keyed ``general`` can subsume one keyed ``specific``:
    same signature, and each label of ``general`` is None or the same."""
    return general[0] == specific[0] and all(
        a is None or a == b for a, b in zip(general[1], specific[1])
    )


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
    mode: str
    rows: list = field(default_factory=list)
    attempts: int = 0
    events: int = 0  # (pair, rule) examination events
    wall_time: float = 0.0
    fixpoint: bool = False
    filtered: int = 0  # attempts settled by fs.quick_clash, without a clone


class _Recorder:
    def __init__(self, mode):
        self.mode = mode
        self.rows = []
        self.attempts = 0
        self.events = 0
        self.filtered = 0
        self._participants = None
        self._considered = []
        self._iter_attempts = 0
        self._iter_additions = 0
        self._started = time.perf_counter()

    def begin_iteration(self):
        self._considered = []
        self._iter_attempts = 0
        self._iter_additions = 0

    def begin_visit(self, offered):
        self._participants = set()
        self.events += len(offered)
        for p in offered:
            p.events += 1

    def attempt(self, pair):
        self.attempts += 1
        self._iter_attempts += 1
        if self._participants is not None:
            self._participants.add(pair.serial)

    def skip(self, pool, n):
        """Charge ``n`` pairs of ``pool`` passed over for their label as
        quick-check hits.  Every pair of the pool takes part in the visit,
        whether tried or passed over."""
        if not n:
            return
        self.attempts += n
        self._iter_attempts += n
        self.filtered += n
        if self._participants is not None:
            self._participants.update(pool.serials)

    def addition(self):
        self._iter_additions += 1

    def end_visit(self):
        self._considered.append(len(self._participants))
        self._participants = None

    def end_iteration(self, total):
        visits = len(self._considered)
        mean = sum(self._considered) / visits if visits else 0.0
        self.rows.append(
            IterationRow(len(self.rows) + 1, mean, total, self._iter_attempts, self._iter_additions)
        )

    def finish(self, fixpoint, total=None):
        """The run's stats; closes an open visit and, given the set's size
        ``total``, the open iteration."""
        if self._participants is not None:
            self.end_visit()
        if total is not None:
            self.end_iteration(total)
        wall = time.perf_counter() - self._started
        return RunStats(
            self.mode, list(self.rows), self.attempts, self.events, wall, fixpoint, self.filtered
        )


# ---------------------------------------------------------------------------
# shared machinery

def epsilon_category(g: Grammar) -> Node | None:
    """Most general empty-string category: the generalization of all
    empty-rule mothers, restricted.  None when the grammar has none."""
    mothers = [fs.restrict(r.mother, g.restrictor) for r in g.rules if r.is_epsilon]
    if not mothers:
        return None
    out = mothers[0]
    for m in mothers[1:]:
        out = fs.generalize(out, m)
    return out


def _bind(roots, pos, pair, recorder, keep=None, restrictor=None):
    """Unify the root at ``pos`` of a working space with a stored pair's
    left side, and copy out the roots at the indices ``keep`` (every root
    when None) together with the pair's right side.  With a ``restrictor``
    (an empty one too) the copy is a product to store: restricted by it and
    pruned.  Without one it is copied as it is.

    Returns (kept_roots, bound_rhs), with bound_rhs None for an empty-string
    pair, or None on failure.  ``fs.unify_copy`` binds the inputs only for
    the duration of the call, so they come back unchanged.  A top-level
    atom clash is caught before anything is bound and counted as filtered.
    The working space must be acyclic and share no complex node with the
    pair: the cycle check is skipped when the pair's left side is a tree.
    """
    recorder.attempt(pair)
    if fs.quick_clash(roots[pos], pair.lhs[0]):
        recorder.filtered += 1
        return None
    out = list(roots) if keep is None else [roots[i] for i in keep]
    if not pair.is_epsilon:
        out.append(pair.rhs)  # an empty-string rhs is not copied
    try:
        out = fs.unify_copy(
            roots[pos],
            pair.lhs[0],
            out,
            restrictor or frozenset(),
            prune=restrictor is not None,
            tree=pair.lhs_is_tree(),
        )
    except UnificationFailed:
        return None
    if pair.is_epsilon:
        return out, None
    return out[:-1], out[-1]


def _bind_each(space, pos, pool, rec, keep=None, restrictor=None):
    """``_bind`` the root at ``pos`` to each pair of ``pool`` its label
    allows, in insertion order; yields (pair, kept_roots, bound_rhs) for
    each success.  The label is read from ``space``, where earlier bindings
    may have set it."""
    label = label_of(space[pos])
    candidates = pool.candidates(label)
    rec.skip(pool, len(pool.pairs) - len(candidates))
    for p in candidates:
        got = _bind(space, pos, p, rec, keep, restrictor)
        if got is not None:
            yield p, *got


def _eps_bindings(roots, positions, eps_pool, fresh, recorder, keep=None, restrictor=None):
    """Enumerate every way to bind all listed positions, simultaneously,
    to empty-string pairs.  Yields (space, used_fresh): whether some bound
    pair's serial is in ``fresh``; every pair counts as fresh when ``fresh``
    is None.  The last binding copies out the roots ``keep`` as ``_bind``
    does with ``keep`` and ``restrictor``; the spaces between keep every
    root, as they are.  With no positions, ``roots`` are yielded as they
    are."""
    return _eps_from(list(roots), 0, fresh is None, positions, eps_pool, fresh, recorder, keep, restrictor)


def _eps_from(space, k, used, positions, eps_pool, fresh, recorder, keep, restrictor):
    """``_eps_bindings`` from the ``k``-th listed position on, in ``space``
    as the positions before it left it; ``used`` says whether they bound a
    fresh pair."""
    if k == len(positions):
        yield space, used
        return
    copy_out = (keep, restrictor) if k + 1 == len(positions) else ()
    for e, new, _ in _bind_each(space, positions[k], eps_pool, recorder, *copy_out):
        yield from _eps_from(
            new, k + 1, used or e.serial in fresh, positions, eps_pool, fresh, recorder, keep, restrictor
        )


def _first_of_span(space, span, view, rec, keep, restrictor, fresh=None, fresh_drivers=None):
    """FIRST of the positions ``span`` of ``space`` under ``view``: for each
    position, every way to bind the positions before it to empty pairs and
    itself to a non-empty pair.  Yields (kept_roots, bound_rhs), copied out
    of the bound space as ``_bind`` does with ``keep`` and ``restrictor``.

    With ``fresh`` (a set of serials), a combination that binds no empty
    pair from ``fresh`` takes its driver from ``fresh_drivers`` only, so
    every combination uses a fresh pair.  That the whole span derives the
    empty string is ``_eps_bindings`` over ``span``.
    """
    for j, pos in enumerate(span):
        for bound, used in _eps_bindings(space, span[:j], view.eps, fresh, rec):
            pool = view.drivers if used else fresh_drivers
            for _, kept, rhs in _bind_each(bound, pos, pool, rec, keep, restrictor):
                yield kept, rhs


def _store(pset, lhs_roots, rhs, origin, recorder, eps_mark=None):
    """Add a product through the antichain operator.

    The roots must be a fresh copy, restricted and pruned as
    ``fs.restrict_many`` does with ``prune``: binds do that as they copy
    out, and seeds and empty-rule mothers go through it.  Pruning drops
    vacuous leftovers from discarded rule context, so that equal claims
    collide under the operator."""
    p = Pair(tuple(lhs_roots), eps_mark if rhs is None else rhs, origin)
    if pset.add(p):
        recorder.addition()
        return True
    return False


def _fixpoint(g: Grammar, mode: str, seed, visit):
    """The fixpoint loop of FIRST and FOLLOW; returns (PairSet, RunStats).

    ``seed(store)`` stores the initial pairs.  Then each pass visits every
    rule as ``visit(rule, offered, pairs, rec, store)``, which returns
    whether it added a pair, until a pass adds none; ``pairs`` is the set
    being built and ``rec`` its recorder.  ``offered`` are the pairs the
    visit examines: every stored pair in naive mode, those not yet examined
    against the rule in active mode.  ``store(lhs_roots, rhs, origin,
    eps_mark=None)`` is ``_store`` into the set, so it takes fresh,
    restricted and pruned copies; the insertion that takes the set past
    ``g.max_pairs`` raises LimitExceeded, as does a pass beyond
    ``g.max_iterations``.
    """
    _check_mode(mode)
    out = PairSet()
    rec = _Recorder(mode)

    def store(lhs_roots, rhs, origin, eps_mark=None):
        added = _store(out, lhs_roots, rhs, origin, rec, eps_mark)
        if len(out) > g.max_pairs:
            raise LimitExceeded("pairs", g.max_pairs, rec.finish(False, len(out)))
        return added

    seed(store)
    for iteration in itertools.count(1):
        if iteration > g.max_iterations:
            raise LimitExceeded("iterations", g.max_iterations, rec.finish(False))
        rec.begin_iteration()
        changed = False
        for r in g.rules:
            offered = out.offer(r.rule_id) if mode == "active" else list(out.pairs)
            rec.begin_visit(offered)
            changed |= visit(r, offered, out, rec, store)
            rec.end_visit()
        rec.end_iteration(len(out))
        if not changed:
            return out, rec.finish(True)


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
    when all k daughters do.  A combination must use an offered pair.
    """
    eps_cat = epsilon_category(g)
    eps_mark = EpsilonMark(eps_cat) if eps_cat is not None else None
    eps_done = set()

    def seed(store):
        for r in g.rules:
            for d in r.daughters:
                if is_preterminal(d):
                    root = fs.restrict(d, g.restrictor, prune=True)
                    store((root,), root, r.rule_id)

    def visit(rule, offered, first, rec, store):
        if rule.is_epsilon:
            # only the first store can be accepted, since a covered pair
            # stays covered, so the active mode stores the mother once
            if mode == "naive" or rule.rule_id not in eps_done:
                eps_done.add(rule.rule_id)
                return store((fs.restrict(rule.mother, g.restrictor, prune=True),), None, rule.rule_id, eps_mark)
            return False
        if not offered:
            return False
        view = first.view()
        fresh = {p.serial for p in offered}
        fresh_drivers = _Pool([p for p in offered if not p.is_epsilon])
        base = rule.roots()
        span = list(range(1, 1 + len(rule.daughters)))
        changed = False
        for mother, rhs in _first_of_span(base, span, view, rec, [0], g.restrictor, fresh, fresh_drivers):
            changed |= store(mother, rhs, rule.rule_id)
        for mother, used_fresh in _eps_bindings(base, span, view.eps, fresh, rec, [0], g.restrictor):
            if used_fresh:
                changed |= store(mother, None, rule.rule_id, eps_mark)
        return changed

    return _fixpoint(g, mode, seed, visit)


# ---------------------------------------------------------------------------
# FIRST of a category string (on demand)

def first_of_string(first: PairSet, g: Grammar, cats) -> PairSet:
    """FIRST for a category sequence, from an existing FIRST fixpoint.

    The sequence lives in one fresh space, so bindings across positions
    and into the result are preserved.  Results are restricted and
    antichain-combined; the left side of every result pair is the whole
    (possibly further bound) sequence.  ``cats`` is copied first, so that it
    shares no node with the pairs it binds or tests, as ``_bind`` requires.
    """
    cats = fs.clone_many(cats)
    if not cats:
        raise ValueError("empty category string")
    view = first.view()
    for idx, c in enumerate(cats):
        if is_preterminal(c):
            continue
        pairs = view.single.candidates(label_of(c))
        if not any(fs.unifiable(c, p.lhs[0], tree=p.lhs_is_tree()) for p in pairs):
            raise UnknownCategory(
                f"position {idx + 1}: {format_roots([c])[0]} is neither preterminal "
                "nor unifiable with any FIRST left side"
            )
    out = PairSet()
    rec = _Recorder("ondemand")
    span = list(range(len(cats)))
    for string, rhs in _first_of_span(cats, span, view, rec, None, g.restrictor):
        _store(out, string, rhs, None, rec)
    for string, _ in _eps_bindings(cats, span, view.eps, None, rec, None, g.restrictor):
        eps_mark = view.eps.pairs[0].rhs  # the mark compute_first gave every empty pair
        _store(out, string, None, None, rec, eps_mark)
    return out


# ---------------------------------------------------------------------------
# FOLLOW

def compute_follow(g: Grammar, first: PairSet, mode: str = "active"):
    """Fixpoint of the FOLLOW pair set; returns (PairSet, RunStats).

    Seeds (start, end-marker).  For each rule X -> Y1..Yk and position i,
    the FIRST values of the suffix after i (computed inside the rule
    instance, so bindings thread through the mother) feed FOLLOW(Yi); and
    when that suffix is empty or wholly derives the empty string, every
    offered (M, f) whose M unifies with X' contributes (Y'i, f).
    """
    fview = first.view()
    suffix_done = set()

    def seed(store):
        start, end = fs.restrict_many([g.start, end_category()], g.restrictor, prune=True)
        store((start,), end, None)

    def visit(rule, offered, follow, rec, store):
        k = len(rule.daughters)
        if k == 0:
            return False
        base = rule.roots()
        tails = [list(range(2 + i, 1 + k)) for i in range(k)]  # positions after daughter i
        changed = False
        # FIRST of each proper suffix; its inputs never change, so the active
        # mode only runs this on the rule's first visit
        if mode == "naive" or rule.rule_id not in suffix_done:
            suffix_done.add(rule.rule_id)
            for i, tail in enumerate(tails):
                for daughter, rhs in _first_of_span(base, tail, fview, rec, [1 + i], g.restrictor):
                    changed |= store(daughter, rhs, rule.rule_id)
        # the mother's FOLLOW flows to any daughter whose suffix is empty or
        # wholly derives the empty string
        if offered:
            drivers = _Pool(offered)
            for i, tail in enumerate(tails):
                for space, _ in _eps_bindings(base, tail, fview.eps, None, rec):
                    for _, daughter, rhs in _bind_each(space, 0, drivers, rec, [1 + i], g.restrictor):
                        changed |= store(daughter, rhs, rule.rule_id)
        return changed

    return _fixpoint(g, mode, seed, visit)


# ---------------------------------------------------------------------------
# lookup

def query(result: PairSet, cat: Node) -> list:
    """Right sides of every stored pair whose left side unifies with the
    category, with that unification's bindings applied; deduplicated up to
    equivalence, keeping the most specific of comparable values.  ``cat``
    is copied first, so that it shares no node with the pairs it binds, as
    ``_bind`` requires, even when it is a node of ``result``."""
    cat = fs.clone(cat)
    out = []
    have_eps = False
    rec = _Recorder("query")
    for p in result.view().single.candidates(label_of(cat)):
        if p.is_epsilon and have_eps:
            continue  # only the first empty-string answer is kept; bind no more empty pairs
        got = _bind([cat], 0, p, rec, ())
        if got is None:
            continue
        if p.is_epsilon:
            out.append(p.rhs)
            have_eps = True
            continue
        rhs = got[1]
        label = label_of(rhs)
        for idx, have in enumerate(out):
            if isinstance(have, EpsilonMark):
                continue
            if label is not None and label_of(have) not in (None, label):
                continue  # values with different atomic cats never subsume each other
            if fs.subsumes(rhs, have):
                break  # an equal or more specific value is kept
            if fs.subsumes(have, rhs):
                out[idx] = rhs
                break
        else:
            out.append(rhs)
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
    grammar: str
    rules: int
    first_equivalent: bool
    follow_equivalent: bool
    first_stats: dict
    follow_stats: dict
    first_sets: dict
    follow_sets: dict

    @property
    def attempt_ratio(self) -> float:
        naive = self.first_stats["naive"].attempts + self.follow_stats["naive"].attempts
        active = self.first_stats["active"].attempts + self.follow_stats["active"].attempts
        return naive / active if active else float("inf")

    @property
    def event_ratio(self) -> float:
        naive = self.first_stats["naive"].events + self.follow_stats["naive"].events
        active = self.first_stats["active"].events + self.follow_stats["active"].events
        return naive / active if active else float("inf")


def compare_modes(g: Grammar) -> ModeReport:
    """Run both modes for FIRST and FOLLOW and check result equivalence."""
    first_sets, follow_sets = {}, {}
    first_stats, follow_stats = {}, {}
    for mode in MODES:
        fset, fstats = compute_first(g, mode)
        first_sets[mode], first_stats[mode] = fset, fstats
        oset, ostats = compute_follow(g, fset, mode)
        follow_sets[mode], follow_stats[mode] = oset, ostats
    return ModeReport(
        grammar=g.name,
        rules=len(g.rules),
        first_equivalent=pair_sets_equivalent(first_sets["naive"], first_sets["active"]),
        follow_equivalent=pair_sets_equivalent(follow_sets["naive"], follow_sets["active"]),
        first_stats=first_stats,
        follow_stats=follow_stats,
        first_sets=first_sets,
        follow_sets=follow_sets,
    )


# ---------------------------------------------------------------------------
# rendering

def format_pair(p: Pair) -> str:
    if p.is_epsilon:
        rendered = format_roots(p.lhs)
        return f"({' '.join(rendered)} , ε)"
    rendered = format_roots([*p.lhs, p.rhs])
    return f"({' '.join(rendered[:-1])} , {rendered[-1]})"


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
