"""Seeded grammar and query generators for the featflow benchmark.

Every generator takes a ``random.Random`` and returns grammar text plus
the grammar's label skeleton: the context-free projection used by the
independent oracle in ``oracle.py``.  The skeleton is built here, next to
the text, so the oracle never depends on featflow's own parser.

A workload draws its inputs from a fixed *pool*: pool item ``i`` of a
workload is always generated from ``random.Random(f"{workload}/{i}")``
(string seeds hash the same under every ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

AGR_ATOMS = ("sg", "pl")


@dataclass(frozen=True)
class Skeleton:
    """Label projection of a grammar: ``rules`` are (mother, daughters)
    label tuples, ``terminals`` the preterminal labels, ``start`` the
    start label.  Labels are lowercase, as the ``cat`` atom stores them."""

    rules: tuple
    terminals: frozenset
    start: str


@dataclass(frozen=True)
class GeneratedGrammar:
    name: str
    text: str
    skeleton: Skeleton
    n_rules: int


def pool_rng(workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{index}")


def _owners(rng, labels, n_rules):
    """The mother label of each rule: every label gets one rule, the rest
    go to random labels.  The start label's rule stays first; generators
    never make that rule empty."""
    owners = list(labels) + [rng.choice(labels) for _ in range(n_rules - len(labels))]
    rest = owners[1:]
    rng.shuffle(rest)
    return [owners[0], *rest]


def _finish(name, lines, skel_rules, terminals, header=()):
    start = skel_rules[0][0]
    text = "\n".join([*header, *lines]) + "\n"
    skel = Skeleton(tuple(skel_rules), frozenset(terminals), start)
    return GeneratedGrammar(name, text, skel, len(lines))


# ---------------------------------------------------------------------------
# layered-wide: many labels, atomic agreement


def layered_wide(rng: random.Random, name: str, n_rules: int, n_labels: int) -> GeneratedGrammar:
    """Labels in six layers over eight preterminals, all values atomic.

    Daughters come from the mother's layer (same-layer recursion) or the
    next two; the last layer rewrites to preterminals and itself.  About
    half the rules share ``agr`` between mother and one daughter, a
    quarter of the other daughters carry an atomic ``agr``, and about 15%
    of rules are empty.  Every label has a rule whose mother is at most
    ``[agr=$1]``, so every daughter unifies with some mother and the
    grammar validates; with atomic values only, the fixpoint is finite.
    """
    n_layers = 6
    labels = [f"L{i}" for i in range(n_labels)]
    layer_of = {lab: i * n_layers // n_labels for i, lab in enumerate(labels)}
    by_layer = [[lab for lab in labels if layer_of[lab] == k] for k in range(n_layers)]
    terms = [f"T{i}" for i in range(8)]
    lines, skel = [], []
    for idx, lab in enumerate(_owners(rng, labels, n_rules)):
        k = layer_of[lab]
        if idx > 0 and rng.random() < 0.15:
            lines.append(f"{lab}[] -> .")
            skel.append((lab.lower(), ()))
            continue
        width = rng.randint(1, 3)
        share = rng.randrange(width) if rng.random() < 0.5 else -1
        rhs, srhs = [], []
        for j in range(width):
            below = [x for layer in by_layer[k + 1 : k + 3] for x in layer]
            r = rng.random()
            if r < 0.35 or (not below and r < 0.7):
                sym, is_term = rng.choice(terms), True
            elif r < 0.45 or not below:
                sym, is_term = rng.choice(by_layer[k]), False
            else:
                sym, is_term = rng.choice(below), False
            feats = []
            if j == share:
                feats.append("agr=$1")
            elif rng.random() < 0.25:
                feats.append(f"agr={rng.choice(AGR_ATOMS)}")
            if is_term:
                feats.append("ter=+")
            rhs.append(f"{sym}[{', '.join(feats)}]")
            srhs.append(sym.lower())
        mother = f"{lab}[agr=$1]" if share >= 0 else f"{lab}[]"
        lines.append(f"{mother} -> {' '.join(rhs)}.")
        skel.append((lab.lower(), tuple(srhs)))
    terminals = {s for _, rhs in skel for s in rhs if s.startswith("t")}
    return _finish(name, lines, skel, terminals)


# ---------------------------------------------------------------------------
# dense-features: few labels, structured agreement, restricted accumulator

_NUM = ("sg", "pl")
_PER = ("p1", "p2", "p3")
_GEN = ("m", "f", "n")
_CASE = ("nom", "acc", "dat")


def _agr_value(rng):
    parts = []
    for feat, vals in (("gen", _GEN), ("num", _NUM), ("per", _PER)):
        if rng.random() < 0.5:
            parts.append(f"{feat}={rng.choice(vals)}")
    return f"[{', '.join(parts)}]"


def dense_features(rng: random.Random, name: str, n_rules: int) -> GeneratedGrammar:
    """Four labels over ten preterminals with rich feature values.

    ``agr`` is a structure with random ``num``/``per``/``gen`` subsets,
    plus an atomic ``case``.  About 60% of rules share ``agr`` or
    ``case`` between mother and one daughter, most of them with a sibling
    too, and each preterminal occurrence draws its own values, so FOLLOW
    antichains grow large and subsumption scans dominate.  Self-recursive
    rules pile up an ``orth`` accumulator 1-3 deep, which ``restrict
    orth.`` removes from stored pairs; without that restrictor the pair
    set would not be finite.  About 10% of rules are empty.
    """
    labels = ["A", "B", "C", "D"]
    terms = [f"W{i}" for i in range(10)]

    def term_feats(t):
        # each occurrence of a preterminal draws its own values
        feats = [f"agr={_agr_value(rng)}"]
        if rng.random() < 0.6:
            feats.append(f"case={rng.choice(_CASE)}")
        return [*feats, f"orth={t.lower()}"]

    lines, skel = [], []
    seen = set()
    for idx, lab in enumerate(_owners(rng, labels, n_rules)):
        # a label's first rule keeps an unconstrained mother, so every
        # daughter of that label unifies with some mother
        plain = lab not in seen
        seen.add(lab)
        if idx > 0 and rng.random() < 0.10:
            lines.append(f"{lab}[] -> .")
            skel.append((lab.lower(), ()))
            continue
        width = rng.randint(1, 3)
        share = rng.randrange(width) if rng.random() < 0.6 else -1
        shared_feat = rng.choice(("agr", "case")) if share >= 0 else None
        tag = "$1" if shared_feat == "agr" else "$2"
        # most sharing rules also thread the value to a sibling, the
        # way subject and verb agree
        sibling = -1
        if share >= 0 and width > 1 and rng.random() < 0.8:
            sibling = rng.choice([j for j in range(width) if j != share])
        accumulate = rng.random() < 0.3
        rhs, srhs = [], []
        mother_feats = [f"{shared_feat}={tag}"] if share >= 0 else []
        for j in range(width):
            r = rng.random()
            if j == 0 and accumulate:
                sym, is_term = lab, False
            elif r < 0.45:
                sym, is_term = rng.choice(terms), True
            else:
                sym, is_term = rng.choice(labels), False
            feats = []
            if j == share or j == sibling:
                constrain = j == share and shared_feat == "agr" and not plain and rng.random() < 0.5
                feats.append(f"{shared_feat}={tag}" + (f":{_agr_value(rng)}" if constrain else ""))
            elif not is_term and rng.random() < 0.4:
                feats.append(f"agr={_agr_value(rng)}")
            if not is_term and j != share and j != sibling and rng.random() < 0.3:
                feats.append(f"case={rng.choice(_CASE)}")
            if is_term:
                feats.extend(f for f in term_feats(sym) if not f.startswith(f"{shared_feat}="))
                feats.append("ter=+")
            if j == 0 and accumulate:
                depth = rng.randint(1, 3)
                feats.append("orth=$3")
                mother_feats.append("orth=" + "[rest=" * depth + "$3" + "]" * depth)
            rhs.append(f"{sym}[{', '.join(feats)}]")
            srhs.append(sym.lower())
        if not accumulate and rng.random() < 0.3:
            mother_feats.append("orth=end")
        lines.append(f"{lab}[{', '.join(mother_feats)}] -> {' '.join(rhs)}.")
        skel.append((lab.lower(), tuple(srhs)))
    terminals = {s for _, rhs in skel for s in rhs if s.startswith("w")}
    return _finish(name, lines, skel, terminals, header=("restrict orth.",))


# ---------------------------------------------------------------------------
# string queries


def query_strings(rng: random.Random, g: GeneratedGrammar, count: int) -> list:
    """Category strings of 1-4 labels or preterminals from ``g``, with
    atomic ``agr`` variants and ``agr`` tags shared across positions.
    About 3% name a label the grammar lacks, which ``first_of_string``
    must reject with ``UnknownCategory``."""
    labels = sorted({m for m, _ in g.skeleton.rules})
    terms = sorted(g.skeleton.terminals)
    out = []
    for _ in range(count):
        width = rng.randint(1, 4)
        unknown = rng.randrange(width) if rng.random() < 0.03 else -1
        shared = rng.random() < 0.4
        cats = []
        for j in range(width):
            if j == unknown:
                sym, is_term = "Zz", False
            elif rng.random() < 0.3:
                sym, is_term = rng.choice(terms).upper(), True
            else:
                sym, is_term = rng.choice(labels).upper(), False
            feats = []
            r = rng.random()
            if shared and r < 0.5:
                feats.append("agr=$1")
            elif r < 0.75:
                feats.append(f"agr={rng.choice(AGR_ATOMS)}")
            if is_term:
                feats.append("ter=+")
            cats.append(f"{sym}[{', '.join(feats)}]")
        out.append(" ".join(cats))
    return out
