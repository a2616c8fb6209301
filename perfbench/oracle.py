"""Independent context-free check of FIRST/FOLLOW results.

The label skeleton of a grammar (``gen.Skeleton``) is a plain
context-free grammar.  Features only ever remove derivations, so the
(left label, right label) projection of every FIRST/FOLLOW pair the
engine stores must lie within the textbook FIRST/FOLLOW of the skeleton.
This module computes those sets itself and never calls featflow's pair
machinery; it only reads labels off the engine's result nodes.
"""

from __future__ import annotations

from featflow.firstfollow import EpsilonMark
from featflow.grammar import label_of

EPS = "<eps>"
END = "$"


class CFTables:
    """Textbook FIRST and FOLLOW over a skeleton's symbols."""

    def __init__(self, skel):
        symbols = set(skel.terminals) | {skel.start}
        for lhs, rhs in skel.rules:
            symbols.add(lhs)
            symbols.update(rhs)
        first = {s: set() for s in symbols}
        for t in skel.terminals:
            first[t].add(t)
        changed = True
        while changed:
            changed = False
            for lhs, rhs in skel.rules:
                before = len(first[lhs])
                first[lhs] |= self._first_of(first, rhs)
                changed |= len(first[lhs]) != before
        follow = {s: set() for s in symbols}
        follow[skel.start].add(END)
        changed = True
        while changed:
            changed = False
            for lhs, rhs in skel.rules:
                for i, sym in enumerate(rhs):
                    before = len(follow[sym])
                    tail = self._first_of(first, rhs[i + 1 :])
                    follow[sym] |= tail - {EPS}
                    if EPS in tail:
                        follow[sym] |= follow[lhs]
                    changed |= len(follow[sym]) != before
        self.first = first
        self.follow = follow

    @staticmethod
    def _first_of(first, syms):
        out = set()
        for sym in syms:
            out |= first[sym] - {EPS}
            if EPS not in first[sym]:
                return out
        out.add(EPS)
        return out

    def first_of(self, syms):
        return self._first_of(self.first, syms)


def _rhs_label(value):
    return EPS if isinstance(value, EpsilonMark) else label_of(value)


def check_pairs(tables: CFTables, pairs, kind: str) -> list:
    """Violations among single-category pairs of a FIRST or FOLLOW set."""
    table = tables.first if kind == "first" else tables.follow
    bad = []
    for p in pairs:
        lhs = label_of(p.lhs[0])
        rhs = _rhs_label(p.rhs)
        if rhs not in table.get(lhs, ()):
            bad.append(f"{kind} pair ({lhs}, {rhs}) outside the context-free {kind.upper()}({lhs})")
    return bad


def check_query(tables: CFTables, cats, string_first, first_values, follow_values) -> list:
    """Violations in one query op: FIRST of the string, then the FIRST and
    FOLLOW values looked up for its first category."""
    labels = [label_of(c) for c in cats]
    bad = []
    allowed = tables.first_of(labels)
    for p in string_first:
        if _rhs_label(p.rhs) not in allowed:
            bad.append(f"string FIRST value {_rhs_label(p.rhs)} outside FIRST({' '.join(labels)})")
    for values, table, kind in ((first_values, tables.first, "FIRST"), (follow_values, tables.follow, "FOLLOW")):
        for v in values:
            if _rhs_label(v) not in table.get(labels[0], ()):
                bad.append(f"{kind} query value {_rhs_label(v)} outside {kind}({labels[0]})")
    return bad
