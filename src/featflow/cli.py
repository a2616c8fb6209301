"""Command line front end.

Subcommands
-----------
``first``        compute the FIRST pair set of a grammar file
``follow``       compute the FOLLOW pair set
``string-first`` FIRST of a category string, on demand
``validate``     static checks only
``bench``        naive versus active instrumentation on one or more files

Exit codes: 0 success; 1 naive and active results differ in ``bench``;
2 usage; 3 unreadable input, syntax errors, or input nested too deeply
for Python's recursion limit; 4 validation errors;
5 iteration/pair guard exceeded in FIRST or FOLLOW, which the message
names; 6 unknown category in ``string-first``; 7 stdout closed before
the output was written, as ``| head`` does, or stderr closed before a
message was written.
Diagnostics go to stderr as ``file:line:col: severity: message``.  With
``--format json`` stdout is strict JSON (no ``Infinity`` or ``NaN``), and
byte-stable for identical inputs and flags, except for ``bench``'s
``wall_time`` measurements.  Stdout is written as UTF-8 whatever the
locale, as RFC 8259 asks of exchanged JSON, so the bytes do not depend
on it either.  A grammar path, and a value a usage error quotes, are
printed with each byte of them that is not UTF-8 written as ``\\xNN``; a
category string holding such a byte is unreadable input.
"""

from __future__ import annotations

import argparse
import codecs
import io
import json
import os
import re
import sys
from dataclasses import replace

from . import firstfollow as ff
from . import grammar as gm

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INVALID = 4
EXIT_LIMIT = 5
EXIT_QUERY = 6
EXIT_PIPE = 7


class _Failure(Exception):
    def __init__(self, code, messages):
        self.code = code
        self.messages = messages
        super().__init__("; ".join(messages))


# ---------------------------------------------------------------------------
# loading

def _shown(path: str) -> str:
    """A path from the command line as it is printed: each byte of it that
    is not UTF-8, which Python decodes to a lone surrogate, as ``\\xNN``."""
    return path.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


# in a ``repr``, an escaped backslash or the lone surrogate that stands
# for a byte that is not UTF-8
_REPR_ESCAPE = re.compile(r"\\(\\|udc[89a-f][0-9a-f])")


def _shown_in(message: str) -> str:
    """A message that quotes command-line text with ``repr``, with each byte
    of it that is not UTF-8 written as ``\\xNN``, as ``_shown`` writes it."""
    return _REPR_ESCAPE.sub(lambda m: m[0] if m[1] == "\\" else "\\x" + m[1][3:], message)


def _load(path: str, args) -> gm.Grammar:
    name = _shown(path)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read().removeprefix("\ufeff")  # a byte-order mark
    except OSError as exc:
        raise _Failure(EXIT_INPUT, [f"{name}: cannot read: {exc.strerror or exc}"])
    except UnicodeDecodeError as exc:
        raise _Failure(EXIT_INPUT, [f"{name}: cannot read: not valid UTF-8 at byte offset {exc.start}"])
    try:
        g = gm.parse_grammar(text, name=name)
    except gm.GrammarSyntaxError as exc:
        raise _Failure(
            EXIT_INPUT, [f"{name}:{i.line}:{i.col}: error: {i.message}" for i in exc.issues]
        )
    if getattr(args, "restrictor", None) is not None:
        try:
            g = g.with_restrictor(gm.parse_restrictor(args.restrictor))
        except ValueError as exc:
            raise _Failure(EXIT_USAGE, [f"--restrictor: {_shown_in(str(exc))}"])
    overrides = {}
    if getattr(args, "max_iterations", None) is not None:
        overrides["max_iterations"] = args.max_iterations
    if getattr(args, "max_pairs", None) is not None:
        overrides["max_pairs"] = args.max_pairs
    return replace(g, **overrides) if overrides else g


def _diagnose(g: gm.Grammar) -> list:
    lines = []
    for d in gm.validate(g):
        line = g.rule(d.rule_id).line if d.rule_id is not None else 1
        lines.append((d.severity, f"{g.name}:{line}:1: {d}"))
    return lines


def _validated(path: str, args) -> tuple:
    g = _load(path, args)
    diags = _diagnose(g)
    for _, text in diags:
        print(text, file=sys.stderr)
    if any(sev == "error" for sev, _ in diags):
        raise _Failure(EXIT_INVALID, [f"{g.name}: validation failed"])
    return g, diags


# ---------------------------------------------------------------------------
# documents

def _pair_json(p: ff.Pair) -> dict:
    lhs, rhs = ff._sides(p)
    return {"lhs": lhs, "rhs": rhs, "epsilon": p.is_epsilon}


def _stats_json(stats: ff.RunStats) -> list:
    return [
        {
            "iteration": row.iteration,
            "considered": round(row.considered, 3),
            "total": row.total,
            "attempts": row.attempts,
            "additions": row.additions,
        }
        for row in stats.rows
    ]


def _document(g: gm.Grammar, function: str, mode: str, pairs, stats, diags, extra=None) -> dict:
    doc = {
        "grammar": {
            "file": g.name,
            "rules": len(g.rules),
            "restrictor": sorted(".".join(p) for p in g.restrictor),
        },
        "function": function,
        "mode": mode,
        "limits": {"max_iterations": g.max_iterations, "max_pairs": g.max_pairs},
        "pairs": [_pair_json(p) for p in pairs],
        "diagnostics": [{"severity": sev, "message": text} for sev, text in diags],
    }
    if stats is not None:
        doc["stats"] = _stats_json(stats)
    if extra:
        doc.update(extra)
    return doc


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        print(_json(doc))
        return
    g = doc["grammar"]
    phi = ", ".join(g["restrictor"]) if g["restrictor"] else "(empty)"
    print(f"grammar: {g['file']}  rules: {g['rules']}  restrictor: {phi}")
    header = f"function: {doc['function']}  mode: {doc['mode']}"
    if "string" in doc:
        header += f"  string: {doc['string']}"
    print(header)
    print(f"pairs ({len(doc['pairs'])}):")
    for p in doc["pairs"]:
        print(f"  {ff._pair_text(p['lhs'], p['rhs'])}")
    if "stats" in doc:
        print("stats:")
        _print_iterations(doc["stats"], "  ")


def _print_iterations(rows, indent: str) -> None:
    """The iteration table of ``_stats_json`` rows, as text."""
    print(f"{indent}iter  considered  total  attempts  additions")
    for row in rows:
        print(
            f"{indent}{row['iteration']:>4}  {row['considered']:>10.3f}  {row['total']:>5}"
            f"  {row['attempts']:>8}  {row['additions']:>9}"
        )


def _limit_failure(g: gm.Grammar, exc: ff.LimitExceeded) -> _Failure:
    msgs = [f"{g.name}: {exc}"]
    for row in exc.stats.rows[-3:]:
        msgs.append(
            f"{g.name}: iteration {row.iteration}: considered {row.considered:.1f}, "
            f"total {row.total}, attempts {row.attempts}"
        )
    return _Failure(EXIT_LIMIT, msgs)


# ---------------------------------------------------------------------------
# commands

def cmd_pairs(args) -> int:
    """``first`` or ``follow``, the command's name: FOLLOW reads FIRST."""
    g, diags = _validated(args.grammar, args)
    try:
        pairs, stats = ff.compute_first(g, args.mode)
        if args.command == "follow":
            pairs, stats = ff.compute_follow(g, pairs, args.mode)
    except ff.LimitExceeded as exc:
        raise _limit_failure(g, exc)
    _emit(_document(g, args.command, args.mode, pairs, stats if args.stats else None, diags), args)
    return EXIT_OK


def cmd_string_first(args) -> int:
    g, diags = _validated(args.grammar, args)
    try:
        args.string.encode("utf-8")
    except UnicodeEncodeError as exc:  # a byte that is not UTF-8
        offset = len(args.string[: exc.start].encode("utf-8"))
        raise _Failure(EXIT_INPUT, [f"<string>: error: not valid UTF-8 at byte offset {offset}"])
    try:
        cats = gm.parse_category_sequence(args.string)
    except gm.GrammarSyntaxError as exc:
        raise _Failure(
            EXIT_INPUT, [f"<string>:{i.line}:{i.col}: error: {i.message}" for i in exc.issues]
        )
    try:
        first, _ = ff.compute_first(g, "active")
        pairs = ff.first_of_string(first, g, cats)
    except ff.LimitExceeded as exc:
        raise _limit_failure(g, exc)
    except ff.UnknownCategory as exc:
        raise _Failure(EXIT_QUERY, [f"{g.name}: unknown category: {exc}"])
    doc = _document(g, "string-first", "active", pairs, None, diags, extra={"string": args.string})
    _emit(doc, args)
    return EXIT_OK


def cmd_validate(args) -> int:
    g = _load(args.grammar, args)
    diags = _diagnose(g)
    for _, text in diags:
        print(text)
    if any(sev == "error" for sev, _ in diags):
        return EXIT_INVALID
    if not diags:
        print(f"{g.name}: ok")
    return EXIT_OK


def _rounded(ratio):
    """A naive/active ratio of ``ModeReport`` for JSON: null when the
    active mode made none."""
    return None if ratio is None else round(ratio, 3)


def cmd_bench(args) -> int:
    reports = []
    for path in args.grammars:
        g, _ = _validated(path, args)
        try:
            reports.append((g, ff.compare_modes(g)))
        except ff.LimitExceeded as exc:
            raise _limit_failure(g, exc)
    failed = not all(rep.first_equivalent and rep.follow_equivalent for _, rep in reports)
    if args.format == "json":
        out = []
        for g, rep in reports:
            out.append(
                {
                    "grammar": {"file": g.name, "rules": rep.rules},
                    "equivalence": {"first": rep.first_equivalent, "follow": rep.follow_equivalent},
                    "attempt_ratio": _rounded(rep.attempt_ratio),
                    "event_ratio": _rounded(rep.event_ratio),
                    "stats": {
                        func: {
                            mode: {
                                "attempts": stats[mode].attempts,
                                "filtered": stats[mode].filtered,
                                "events": stats[mode].events,
                                "wall_time": stats[mode].wall_time,
                                "iterations": _stats_json(stats[mode]),
                            }
                            for mode in ff.MODES
                        }
                        for func, stats in (("first", rep.first_stats), ("follow", rep.follow_stats))
                    },
                }
            )
        print(_json(out))
    else:
        for g, rep in reports:
            print(f"benchmark: {g.name}  rules: {rep.rules}")
            for func, stats in (("first", rep.first_stats), ("follow", rep.follow_stats)):
                for mode in ff.MODES:
                    s = stats[mode]
                    print(
                        f"  {func:<6} {mode:<6} attempts {s.attempts:>6}  filtered {s.filtered:>6}"
                        f"  events {s.events:>6}"
                        f"  iterations {len(s.rows):>2}  wall {s.wall_time:.4f}s"
                    )
            ratios = ["n/a" if r is None else f"{r:.2f}" for r in (rep.attempt_ratio, rep.event_ratio)]
            print(f"  attempt ratio (naive/active): {ratios[0]}  event ratio: {ratios[1]}")
            verdict = "PASS" if rep.first_equivalent and rep.follow_equivalent else "FAIL"
            print(f"  equivalence: first {'PASS' if rep.first_equivalent else 'FAIL'},"
                  f" follow {'PASS' if rep.follow_equivalent else 'FAIL'}  [{verdict}]")
            print("  active first iterations:")
            _print_iterations(_stats_json(rep.first_stats["active"]), "    ")
    return EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _shared(sub):
    """Flags of every command that computes pair sets, ``bench`` included."""
    sub.add_argument("--restrictor", default=None, help="override the file's restrictor ('' clears it)")
    sub.add_argument("--max-iterations", type=_positive_int, default=None)
    sub.add_argument("--max-pairs", type=_positive_int, default=None)
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _common(sub):
    """Flags of the commands that run one mode and report its statistics."""
    sub.add_argument("--mode", choices=ff.MODES, default="active")
    _shared(sub)
    sub.add_argument("--stats", action="store_true", help="include iteration statistics")


class _ArgumentParser(argparse.ArgumentParser):
    """Its usage errors, and so those of its subcommands, quote argument
    values as ``_shown_in`` writes them."""

    def error(self, message):
        super().error(_shown_in(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="featflow",
        description="FIRST/FOLLOW pair sets for unification grammars",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for function in ("first", "follow"):
        p = subs.add_parser(function, help=f"compute the {function.upper()} pair set")
        p.add_argument("grammar")
        _common(p)
        p.set_defaults(run=cmd_pairs)

    p = subs.add_parser("string-first", help="FIRST of a category string")
    p.add_argument("grammar")
    p.add_argument("string", help="whitespace-separated AVMs, e.g. 'NP[] NP[] VP[]'")
    # the FIRST of a string does not depend on the mode that computed the
    # FIRST set it reads, and string-first reports no statistics
    _shared(p)
    p.set_defaults(run=cmd_string_first)

    p = subs.add_parser("validate", help="static checks only")
    p.add_argument("grammar")
    p.add_argument("--restrictor", default=None)
    p.set_defaults(run=cmd_validate)

    p = subs.add_parser("bench", help="compare naive and active modes")
    p.add_argument("grammars", nargs="+")
    _shared(p)  # bench runs both modes and always reports their statistics
    p.set_defaults(run=cmd_bench)

    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper) and codecs.lookup(sys.stdout.encoding).name != "utf-8":
        sys.stdout.reconfigure(encoding="utf-8")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        try:
            code = args.run(args)
            sys.stdout.flush()  # so that a reader gone early shows here, not at exit
            return code
        except _Failure as exc:
            code, messages = exc.code, exc.messages
        except RecursionError:
            # the feature-structure algebra recurses on nesting; the parser
            # reports too deep a category as a syntax error
            inputs = " ".join(map(_shown, args.grammars if args.command == "bench" else [args.grammar]))
            code, messages = EXIT_INPUT, [f"{inputs}: error: input nested too deeply to process"]
        for message in messages:
            print(message, file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader closed stdout, as ``| head`` does, or stderr: what is
        # still buffered for either goes to devnull, so the flush at exit
        # cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
