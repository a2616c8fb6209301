"""Leftmost derivations of plain context-free grammars, and the test
grammars.

``leftmost_terminals`` works on plain symbol tuples and never touches the
package's pair machinery, so it can cross-check the engine's projection
onto bare labels; the textbook FIRST and FOLLOW are the benchmark's
``oracle.CFTables``, which ``support`` imports.

The generators below give the oracles their random CF grammars and the
engine tests their fixed-seed feature grammars.
"""

import random
import re

from support import EPS


def leftmost_terminals(rules, symbol, terminals, max_steps=50000):
    """Terminals (or EPS) derivable leftmost from ``symbol``, by
    breadth-first leftmost rewriting; short witnesses come first, so small
    grammars saturate well inside the step budget."""
    from collections import deque

    by_lhs = {}
    for lhs, rhs in rules:
        by_lhs.setdefault(lhs, []).append(tuple(rhs))
    out = set()
    seen = set()
    frontier = deque([(symbol,)])
    steps = 0
    while frontier and steps < max_steps:
        form = frontier.popleft()
        steps += 1
        if form in seen:
            continue
        seen.add(form)
        if not form:
            out.add(EPS)
            continue
        head = form[0]
        if head in terminals:
            out.add(head)
            continue
        for rhs in by_lhs.get(head, []):
            new = rhs + form[1:]
            if len(new) <= 24 and new not in seen:
                frontier.append(new)
    return out


# ---------------------------------------------------------------------------
# generators (emit both oracle rules and engine notation)

def random_cf_grammar(rng: random.Random):
    """A feature-free grammar: labels plus the preterminal mark only.

    Every nonterminal gets at least one rule, so the engine's validation
    is clean by construction; empty rules appear with fair probability.
    """
    nts = [f"n{i}" for i in range(rng.randint(2, 8))]
    ts = [f"t{i}" for i in range(rng.randint(1, 5))]
    rules = []
    for nt in nts:
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.25:
                rules.append((nt, ()))
            else:
                k = rng.randint(1, 4)
                rhs = tuple(
                    rng.choice(ts) if rng.random() < 0.45 else rng.choice(nts)
                    for _ in range(k)
                )
                rules.append((nt, rhs))
    # keep within budget but preserve one rule per nonterminal
    while len(rules) > 15:
        haves = {}
        for r in rules:
            haves[r[0]] = haves.get(r[0], 0) + 1
        victim = next((i for i in range(len(rules) - 1, -1, -1) if haves[rules[i][0]] > 1), None)
        if victim is None:
            rules = rules[:15]
            break
        rules.pop(victim)
    terminals = {s for _, rhs in rules for s in rhs if s in set(ts)}
    lines = []
    for lhs, rhs in rules:
        if not rhs:
            lines.append(f"{lhs}[] -> .")
        else:
            parts = [f"{s}[ter=+]" if s in terminals else f"{s}[]" for s in rhs]
            lines.append(f"{lhs}[] -> {' '.join(parts)}.")
    return "\n".join(lines) + "\n", rules, terminals, nts[0]


def random_feature_grammar(rng: random.Random) -> str:
    """A small agreement-feature grammar, guaranteed to validate cleanly
    and to terminate (all feature values are atomic)."""
    labels = [f"x{i}" for i in range(rng.randint(2, 5))]
    terms = [f"t{i}" for i in range(rng.randint(1, 3))]
    lines = []
    for lab in labels:
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.2:
                lines.append(f"{lab}[] -> .")
                continue
            k = rng.randint(1, 3)
            share_pos = rng.randrange(k) if rng.random() < 0.5 else -1
            rhs = []
            for j in range(k):
                if rng.random() < 0.45:
                    sym, is_term = rng.choice(terms), True
                else:
                    sym, is_term = rng.choice(labels), False
                feats = []
                if j == share_pos:
                    feats.append("agr=$1")
                elif rng.random() < 0.3:
                    feats.append(f"agr={rng.choice(('sg', 'pl'))}")
                if is_term:
                    feats.append("ter=+")
                rhs.append(f"{sym}[{', '.join(feats)}]")
            mother = f"{lab}[agr=$1]" if share_pos >= 0 else f"{lab}[]"
            lines.append(f"{mother} -> {' '.join(rhs)}.")
    return "\n".join(lines) + "\n"


def loosely_labelled_grammar(rng: random.Random) -> str:
    """``random_feature_grammar`` with some categories unlabelled and some
    given a complex ``cat``, whose pairs the label index treats as
    wildcards."""

    def relabel(m):
        r = rng.random()
        if r < 0.2:
            return "[" + (m.group(2) or "")
        if r < 0.3:
            return f"[cat=[k={m.group(1)}]" + ("]" if m.group(2) else ", ")
        return m.group(0)

    return re.sub(r"\b([xt]\d)\[(\])?", relabel, random_feature_grammar(rng))


# several empty pairs per position, one of them found only in the second
# pass, with the mother recording which were bound: product order shows the
# order of the empty-bound prefixes at every position
LAYERED_EMPTY = [
    """T[a=$1, b=$2] -> S[a=$1] X[agr=$2] X[agr=$1].
    S[a=$1, b=$2, c=$3] -> X[agr=$1] X[agr=$2] X[agr=$3] y[ter=+, agr=$3].
    X[agr=sg] -> .  X[agr=pl] -> .  X[agr=du] -> W[].  W[] -> .""",
    """S[a=$1, b=$2] -> A[f=$1] B[f=$2] A[f=$2] c[ter=+].
    A[f=x] -> .  A[f=y] -> .  A[f=z] -> a[ter=+].
    B[f=x] -> b[ter=+].  B[f=y] -> .  B[f=$1] -> A[f=$1] A[f=$1].""",
]
