"""Shared helpers for the test suite."""

import importlib
import random
import sys
from pathlib import Path

import featflow
from featflow import clone_many, format_roots, label_of, parse_grammar
from featflow.fs import deref
from featflow.grammar import Rule

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """A module of the benchmark under ``perfbench/``, which is not a
    package: ``gen`` for its label skeletons, ``oracle`` for its context-free
    FIRST and FOLLOW, ``workloads`` for its pools."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


gen = perfbench_module("gen")
oracle = perfbench_module("oracle")
END, EPS = oracle.END, oracle.EPS


def scale_grammars():
    """Four of the benchmark's generated grammars at fixed seeds, far
    larger than the random ones: ``layered_wide`` and ``dense_features``
    at 200 and 800 rules each."""
    out = []
    for n in (200, 800):
        rng = random.Random(f"scale/layered_wide/{n}")
        out.append(gen.layered_wide(rng, f"layered_wide/{n}", n, max(12, n // 8)))
        rng = random.Random(f"scale/dense_features/{n}")
        out.append(gen.dense_features(rng, f"dense_features/{n}", n))
    return out


def fixture_path(name):
    """Path of a bundled grammar (fig1.gr, cf-intro.gr, agr.gr, guard.gr,
    bench13.gr, bench21.gr)."""
    return str(Path(featflow.__file__).parent / "fixtures" / name)


def load_fixture(name, restrictor=None):
    with open(fixture_path(name), encoding="utf-8") as fh:
        g = parse_grammar(fh.read(), name=name)
    if restrictor is not None:
        g = g.with_restrictor(restrictor)
    return g


def node_state(roots):
    """Every node reachable from ``roots`` by arcs or forwarding pointers,
    as {id: (atom, id of forward, ordered (feature, id of child) arcs)}:
    equal before and after a call when it mutated nothing, even for a
    moment it failed to undo."""
    out = {}
    stack = list(roots)
    while stack:
        n = stack.pop()
        if id(n) in out:
            continue
        arcs = None if n.arcs is None else [(f, id(c)) for f, c in n.arcs.items()]
        out[id(n)] = (n.atom, None if n.forward is None else id(n.forward), arcs)
        if n.forward is not None:
            stack.append(n.forward)
        stack.extend((n.arcs or {}).values())
    return out


def project(pairset):
    """Collapse a pair set onto bare labels: {lhs label: set of rhs labels,
    EPS for empty marks, END for the end-of-input category}."""
    out = {}
    for p in pairset:
        if len(p.lhs) != 1:
            continue
        lhs = label_of(p.lhs[0])
        if p.is_epsilon:
            rhs = EPS
        else:
            rhs = END if label_of(p.rhs) == "$" else label_of(p.rhs)
        out.setdefault(lhs, set()).add(rhs)
    return out


def has_path(root, path):
    """Whether following the features ``path`` from ``root`` reaches a node."""
    n = deref(root)
    for seg in path:
        if n.atom is not None:
            return False
        n = n.arcs.get(seg)
        if n is None:
            return False
        n = deref(n)
    return True


def instantiate(rule):
    """Fresh copy of a rule, sharing no complex node with the grammar
    (atoms are shared: nothing mutates them)."""
    roots = clone_many(rule.roots())
    return Rule(rule.rule_id, roots[0], tuple(roots[1:]), rule.line)


def format_node(root):
    return format_roots([root])[0]


def format_grammar(g):
    """A grammar printed back into its text notation; shared nodes carry
    ``#n`` tags, which the parser reads as ``$n`` ones."""
    lines = []
    if g.restrictor:
        paths = ", ".join(".".join(p) for p in sorted(g.restrictor))
        lines.append(f"restrict {paths}.")
    if g.start_declared is not None:
        lines.append(f"start {g.start_declared}.")
    for r in g.rules:
        mother, *daughters = format_roots(r.roots())
        lines.append(f"{mother} -> {' '.join(daughters)}." if daughters else f"{mother} -> .")
    return "\n".join(lines) + "\n"
