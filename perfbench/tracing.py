"""Per-layer tracing from outside the package.

``Tracer.installed()`` wraps featflow's public layer functions for the
duration of a ``with`` block.  It patches every featflow namespace that
bound the original function object, because ``firstfollow`` and
``grammar`` import ``clone_many`` directly and ``fs.unify`` and
``fs.restrict_many`` call ``clone_many`` through ``fs``'s globals.

Two kinds of wrapper exist:

- *span* wrappers (``parse_grammar``, ``validate``, ``compute_*``,
  ``first_of_string``, ``query``, ``PairSet.add``) keep one span each, with
  a parent id and the id of the benchmark op that caused it;
- *hot* wrappers (the ``fs`` functions and ``format_roots``, 10^5-10^6
  calls per grammar) only aggregate calls, self time and outcomes.

A call's self time is its duration minus the time spent in wrapped
callees.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

from featflow import firstfollow, fs, grammar

perf = time.perf_counter

SPANNED = (
    ("grammar.parse_grammar", grammar, "parse_grammar"),
    ("grammar.validate", grammar, "validate"),
    ("firstfollow.compute_first", firstfollow, "compute_first"),
    ("firstfollow.compute_follow", firstfollow, "compute_follow"),
    ("firstfollow.first_of_string", firstfollow, "first_of_string"),
    ("firstfollow.query", firstfollow, "query"),
)
HOT = (
    ("fs.clone_many", fs, "clone_many"),
    ("fs.unify_in_place", fs, "unify_in_place"),
    ("fs.subsumes_many", fs, "subsumes_many"),
    ("fs.restrict_many", fs, "restrict_many"),
    ("fs.prune_empty_leaves", fs, "prune_empty_leaves"),
    ("grammar.format_roots", grammar, "format_roots"),
)
COMPUTE = ("firstfollow.compute_first", "firstfollow.compute_follow")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # outcome counters, "<layer>.<outcome>"
        self.spans = []
        self._stack = [[0.0, None, "op"]]  # [child time, span id, layer]
        self._op = None

    # -- wrappers ----------------------------------------------------------

    def run_op(self, kind: str, op_id: int, fn, *args):
        """Run one benchmark op as a root span; layer spans nest below it."""
        self._op = op_id
        try:
            return self._wrap(f"op.{kind}", fn, True)(*args)
        finally:
            self._op = None

    @property
    def layer(self) -> str:
        """Name of the innermost span, used to attribute hot calls."""
        return self._stack[-1][2]

    def _wrap(self, name, fn, spanned):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        outcome = {
            "fs.unify_in_place": self._unify_outcome,
            "fs.subsumes_many": self._subsumes_outcome,
            "firstfollow.PairSet.add": self._add_outcome,
            "firstfollow.compute_first": functools.partial(self._compute_outcome, name),
            "firstfollow.compute_follow": functools.partial(self._compute_outcome, name),
        }.get(name)

        # inlined rather than a context manager: hot wrappers run 10^5-10^6
        # times per grammar and their cost lands in trace.overhead_ratio
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if spanned:
                sid = len(spans)
                span = [sid, top[1], self._op, name, 0.0, 0.0]
                spans.append(span)
                frame = [0.0, sid, name]
            else:
                frame = [0.0, top[1], top[2]]
            stack.append(frame)
            t0 = perf()
            try:
                if outcome is None:
                    return fn(*args, **kwargs)
                return outcome(fn, args, kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stack[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if spanned:
                    span[4] = t0
                    span[5] = t0 + dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _unify_outcome(self, fn, args, kwargs):
        layer = self.layer
        self.counts[f"unify_calls.{layer}"] += 1
        try:
            out = fn(*args, **kwargs)
        except fs.UnificationFailed as exc:
            self.counts[f"fs.unify_in_place.fail_{exc.reason}"] += 1
            raise
        self.counts["fs.unify_in_place.success"] += 1
        self.counts[f"unify_success.{layer}"] += 1
        return out

    def _subsumes_outcome(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["fs.subsumes_many.true"] += bool(out)
        return out

    def _add_outcome(self, fn, args, kwargs):
        pset = args[0]
        removed = pset.removed
        out = fn(*args, **kwargs)
        self.counts["firstfollow.PairSet.add.accepted"] += bool(out)
        self.counts["firstfollow.PairSet.add.replaced"] += pset.removed - removed
        return out

    def _compute_outcome(self, name, fn, args, kwargs):
        pset, stats = fn(*args, **kwargs)
        self.counts[f"{name}.attempts"] += stats.attempts
        self.counts[f"{name}.events"] += stats.events
        self.counts[f"{name}.iterations"] += len(stats.rows)
        self.counts[f"{name}.pairs"] += len(pset)
        return pset, stats

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions in every featflow namespace that bound
        them; restore the originals on exit."""
        patches = []
        modules = [m for n, m in list(sys.modules.items()) if n == "featflow" or n.startswith("featflow.")]
        for spanned, table in ((True, SPANNED), (False, HOT)):
            for name, home, attr in table:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, spanned)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        add = firstfollow.PairSet.add
        firstfollow.PairSet.add = self._wrap("firstfollow.PairSet.add", add, True)
        patches.append((firstfollow.PairSet, "add", add))
        try:
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; names match ``per_layer`` in BENCHMARK.json."""
        c, calls, self_s = self.counts, self.calls, self.self_s

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("fs.clone_many", "fs.restrict_many", "fs.prune_empty_leaves"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        u = "fs.unify_in_place"
        out[f"{u}.calls"] = calls[u]
        out[f"{u}.self_s"] = self_s[u]
        for reason in ("clash", "kind", "cycle"):
            out[f"{u}.fail_{reason}"] = c[f"{u}.fail_{reason}"]
        out[f"{u}.success_ratio"] = ratio(c[f"{u}.success"], calls[u])
        s = "fs.subsumes_many"
        out[f"{s}.calls"] = calls[s]
        out[f"{s}.self_s"] = self_s[s]
        out[f"{s}.true_ratio"] = ratio(c[f"{s}.true"], calls[s])
        attempts = successes = 0
        for name in COMPUTE:
            out[f"{name}.self_s"] = self_s[name]
            for key in ("attempts", "events", "iterations", "pairs"):
                out[f"{name}.{key}"] = c[f"{name}.{key}"]
            attempts += c[f"{name}.attempts"]
            successes += c[f"unify_success.{name}"]
        out["firstfollow.attempt_success_ratio"] = ratio(successes, attempts)
        a = "firstfollow.PairSet.add"
        out[f"{a}.calls"] = calls[a]
        out[f"{a}.self_s"] = self_s[a]
        out[f"{a}.accept_ratio"] = ratio(c[f"{a}.accepted"], calls[a])
        out[f"{a}.replaced"] = c[f"{a}.replaced"]
        for name in ("firstfollow.first_of_string", "firstfollow.query"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["grammar.parse_grammar.self_s"] = self_s["grammar.parse_grammar"]
        out["grammar.validate.self_s"] = self_s["grammar.validate"]
        out["grammar.validate.unify_calls"] = c["unify_calls.grammar.validate"]
        out["grammar.format_roots.self_s"] = self_s["grammar.format_roots"]
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: id, parent id, op id, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op_id, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
