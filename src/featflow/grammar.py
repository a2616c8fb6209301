"""Grammar model, text notation, and static validation.

A grammar is an ordered list of rules over feature structures plus a
restrictor (the set of feature paths discarded when results are stored).
The text notation, one statement per ``.``-terminated group::

    restrict slash, agr.num.        % declare restrictor paths (union)
    start S.                        % optional; default: first rule's mother
    S[] -> NP[agr=$1] VP[agr=$1].   % a rule; $n tags mark shared nodes
    NP[slash=NP[]] -> .             % empty right-hand side
    X[] -> term Det[].              % `term` injects ter=+ (preterminal mark)

An AVM is ``Label? [ feature=value, ... ]?``; a label is sugar for the
``cat`` feature with the lowercased label as an atomic value.  Values are
atoms (identifiers, ``+``, ``-``, or quoted strings), nested AVMs, or
``$n`` tags; a tag's value may be constrained at any occurrence
(``$1:NP[]``), and multiple constraints must be compatible.  ``%`` starts
a comment.  ``#n`` tags are accepted as synonyms of ``$n`` so that printed
output reparses.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import fs
from .fs import Node, UnificationFailed, atom, clone, deref

DEFAULT_MAX_ITERATIONS = 100
DEFAULT_MAX_PAIRS = 10000

END_CATEGORY_ATOM = "$"
RESERVED_WORDS = ("restrict", "start", "term")


@dataclass(frozen=True)
class ParseIssue:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class GrammarSyntaxError(Exception):
    """Aggregate of all parse issues found in one document."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


@dataclass
class Rule:
    rule_id: int
    mother: Node
    daughters: tuple
    line: int = 0

    @property
    def is_epsilon(self) -> bool:
        return not self.daughters

    def roots(self) -> list:
        return [self.mother, *self.daughters]


@dataclass
class Grammar:
    rules: tuple
    restrictor: frozenset
    start: Node
    start_declared: str | None = None
    name: str = "<string>"
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    max_pairs: int = DEFAULT_MAX_PAIRS

    def with_restrictor(self, restrictor) -> "Grammar":
        return replace(self, restrictor=fs.make_restrictor(restrictor))

    def rule(self, rule_id: int) -> Rule:
        """The rule numbered ``rule_id``, from 1; IndexError for any other."""
        if not 1 <= rule_id <= len(self.rules):
            raise IndexError(f"no rule {rule_id}: rules are numbered 1 to {len(self.rules)}")
        return self.rules[rule_id - 1]


def is_preterminal(cat: Node) -> bool:
    """True iff the category carries ``ter`` with the atom ``+`` at its root."""
    while cat.forward is not None:
        cat = cat.forward
    if cat.atom is not None:
        return False
    t = cat.arcs.get("ter")
    if t is None:
        return False
    while t.forward is not None:
        t = t.forward
    return t.atom == "+"


def label_of(cat: Node) -> str | None:
    # called on every bind and every stored pair: deref is inlined
    while cat.forward is not None:
        cat = cat.forward
    if cat.atom is not None:
        return None
    c = cat.arcs.get("cat")
    if c is None:
        return None
    while c.forward is not None:
        c = c.forward
    return c.atom


def end_category() -> Node:
    """The reserved end-of-input category; unwritable in grammar rules."""
    return Node(arcs={"cat": atom(END_CATEGORY_ATOM)})


# ---------------------------------------------------------------------------
# lexer

_WORD_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
# a dot glued to a further identifier extends a feature path
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:\.[A-Za-z][A-Za-z0-9_]*)*")
_PUNCT = {
    "[": "LB", "]": "RB", ",": "COMMA", "=": "EQ", ":": "COLON", ".": "STOP", "+": "SYM", "-": "SYM",
}


class _Tok(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


class _Lexer:
    """Tokens and issues of a text.  ``_lex`` keeps the line and the index
    of the last newline as it scans, and places each token and each issue
    with them; tokens are built in place."""

    def __init__(self, text):
        self.text = text
        self.issues = []
        self.tokens = []
        self._lex()

    def _lex(self):
        text, n = self.text, len(self.text)
        emit = self.tokens.append
        new = tuple.__new__
        punct = _PUNCT
        word = _WORD_RE.match
        line, last = 1, -1  # the line at i, and the index of the newline that began it
        i = 0
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                last = i
                i += 1
            elif c in " \t\r":
                i += 1
            elif c in _WORD_START:
                j = word(text, i).end()
                emit(new(_Tok, ("WORD", text[i:j], line, i - last)))
                i = j
            elif c in punct:
                if c == "-" and text.startswith(">", i + 1):
                    emit(new(_Tok, ("ARROW", "->", line, i - last)))
                    i += 2
                else:
                    emit(new(_Tok, (punct[c], c, line, i - last)))
                    i += 1
            elif c in "$#":
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if j > i + 1:
                    emit(new(_Tok, ("TAG", text[i + 1 : j], line, i - last)))
                    i = j
                else:
                    if c == "$":
                        emit(new(_Tok, ("DOLLAR", "$", line, i - last)))
                    else:
                        self.issues.append(ParseIssue(line, i - last, "unknown syntax: stray '#'"))
                    i += 1
            elif c == "%":
                nl = text.find("\n", i)
                if nl < 0:
                    i = n
                else:
                    line += 1
                    last = nl
                    i = nl + 1
            elif c == '"':
                j = self._lex_string(i, line, i - last)
                # an escaped newline is part of the string
                inside = text.count("\n", i, j)
                if inside:
                    line += inside
                    last = text.rfind("\n", i, j)
                i = j
            else:
                self.issues.append(ParseIssue(line, i - last, f"unknown syntax: unexpected character {c!r}"))
                i += 1
        emit(new(_Tok, ("EOF", "", line, n - last)))

    def _lex_string(self, i, line, col):
        """Lex the string opening at ``i``, at ``line``/``col``, where an
        unterminated one is reported; return the index after it, or of the
        newline or end that left it open."""
        text, n = self.text, len(self.text)
        j = i + 1
        out = []
        while j < n:
            c = text[j]
            if c == "\\" and j + 1 < n:
                out.append(text[j + 1])
                j += 2
                continue
            if c == '"':
                self.tokens.append(_Tok("STR", "".join(out), line, col))
                return j + 1
            if c == "\n":
                break
            out.append(c)
            j += 1
        self.issues.append(ParseIssue(line, col, "unknown syntax: unterminated string"))
        return j


# ---------------------------------------------------------------------------
# parser

class _Abort(Exception):
    pass


class _Parser:
    def __init__(self, text, name):
        lx = _Lexer(text)
        self.tokens = lx.tokens
        self.issues = lx.issues
        self.name = name
        self.idx = 0
        self.rules = []
        self.restrictor_paths = set()
        self.start_declared = None
        self.tag_failed = False  # a tag annotation of the statement failed to unify
        self.atoms = {}  # name -> the parse's one atom of that name

    def peek(self) -> _Tok:
        return self.tokens[self.idx]

    def take(self) -> _Tok:
        t = self.tokens[self.idx]
        if t.kind != "EOF":
            self.idx += 1
        return t

    def atom(self, name) -> Node:
        """The parse's one atom named ``name``.  Atoms are values: nothing
        mutates one, so every occurrence can share it."""
        got = self.atoms.get(name)
        if got is None:
            got = self.atoms[name] = atom(name)
        return got

    def fail(self, tok, message):
        self.issues.append(ParseIssue(tok.line, tok.col, message))
        raise _Abort()

    def expect(self, kind, what):
        t = self.take()
        if t.kind != kind:
            self.fail(t, f"unknown syntax: expected {what}, found {t.value!r}")
        return t

    def too_deep(self):
        """Report nesting deeper than the parser's recursion allows, at the
        token it had reached."""
        t = self.peek()
        self.issues.append(ParseIssue(t.line, t.col, "category nested too deeply to parse"))

    def sync(self):
        while self.peek().kind not in ("STOP", "EOF"):
            self.take()
        if self.peek().kind == "STOP":
            self.take()

    def parse(self) -> Grammar:
        while self.peek().kind != "EOF":
            try:
                self.statement()
            except _Abort:
                self.sync()
            except RecursionError:
                self.too_deep()
                self.sync()
        if not self.rules and not self.issues:
            self.issues.append(ParseIssue(1, 1, "a grammar needs at least one rule"))
        if self.issues:
            raise GrammarSyntaxError(self.issues)
        if self.start_declared is not None:
            start = Node(arcs={"cat": atom(self.start_declared)})
        else:
            start = clone(self.rules[0].mother)
        return Grammar(
            rules=tuple(self.rules),
            restrictor=frozenset(self.restrictor_paths),
            start=start,
            start_declared=self.start_declared,
            name=self.name,
        )

    def statement(self):
        t = self.peek()
        if t.kind == "WORD" and t.value == "restrict":
            self.take()
            self.restrict_statement()
        elif t.kind == "WORD" and t.value == "start":
            self.take()
            self.start_statement()
        else:
            self.rule_statement()

    def restrict_statement(self):
        while True:
            t = self.take()
            if t.kind != "WORD":
                self.fail(t, "restrictor path malformed")
            # each dot-separated segment of a WORD token matches fs._FEATURE_RE
            self.restrictor_paths.add(fs.make_path(t.value))
            t = self.take()
            if t.kind == "STOP":
                return
            if t.kind != "COMMA":
                self.fail(t, "restrictor path malformed: expected ',' or '.'")

    def start_statement(self):
        t = self.take()
        if t.kind != "WORD" or "." in t.value:
            self.fail(t, "unknown syntax: start expects a category label")
        self.start_declared = t.value.lower()
        self.expect("STOP", "'.'")

    def rule_statement(self):
        tags = {}
        self.tag_failed = False
        starts = [self.peek()]
        mother = self.category(tags)
        self.expect("ARROW", "'->'")
        daughters = []
        while self.peek().kind != "STOP":
            if self.peek().kind == "EOF":
                self.fail(self.peek(), "unknown syntax: unterminated rule")
            preterminal_sugar = False
            if self.peek().kind == "WORD" and self.peek().value == "term":
                self.take()
                preterminal_sugar = True
            starts.append(self.peek())
            d = self.category(tags)
            if preterminal_sugar:
                self.mark_preterminal(d, starts[-1])
            daughters.append(d)
        self.take()  # STOP
        roots = [mother, *daughters]
        line = starts[0].line
        if self.builds_cycle(roots):
            self.issues.append(ParseIssue(line, 1, "rule builds a cyclic structure"))
            return
        self.check_avms(roots, starts)
        self.rules.append(Rule(len(self.rules) + 1, mother, tuple(daughters), line))

    def builds_cycle(self, roots) -> bool:
        """Whether the statement just parsed, with roots ``roots``, builds a
        cycle.  Only a tag annotation can close one, and one that unified
        has checked the node it merged; a failed one may leave a cycle
        behind."""
        return self.tag_failed and fs._cyclic(roots)

    def check_avms(self, roots, starts):
        """Report each root that is an atom, at the token where it starts:
        a category is an AVM, and a tag may bind one to an atom."""
        for root, t in zip(roots, starts):
            n = deref(root)
            if n.atom is not None:
                self.issues.append(ParseIssue(t.line, t.col, f"a category is an AVM, not the atom {_atom_text(n.atom)}"))

    def mark_preterminal(self, cat, start):
        """Unify ``ter=+`` into ``cat``; a clash is reported at ``start``,
        the token where the category starts.  An atom category is left to
        ``check_avms``."""
        if deref(cat).atom is not None:
            return
        try:
            # a fresh tree sharing no complex node cannot close a cycle
            fs.unify_in_place(Node(arcs={"ter": self.atom("+")}), cat, tree=True)
        except UnificationFailed:
            message = "term used on a category with ter incompatible with '+'"
            self.issues.append(ParseIssue(start.line, start.col, message))

    def category(self, tags, allow_end_mark=False) -> Node:
        """The category at the parser's token: ``Label``, ``Label[...]``,
        ``[...]``, a ``$n`` tag or, where allowed, the end mark ``$``.
        Tokens are read by index.  A token no category starts with is left
        unread; one in error inside the category is taken as ``take`` would,
        so that ``sync`` resumes where it would."""
        toks = self.tokens
        i = self.idx
        t = toks[i]
        kind = t.kind
        if kind == "WORD":
            i += 1
            self.idx = i
            if "." in t.value:
                self.fail(t, f"unknown syntax: unexpected path {t.value!r}")
            fields = {"cat": self.atom(t.value.lower())}
            if toks[i].kind != "LB":
                return Node(arcs=fields)
        elif kind == "LB":
            fields = {}
        elif kind == "TAG":
            return self.tag_value(tags)
        elif kind == "DOLLAR":
            self.idx = i + 1
            if not allow_end_mark:
                self.fail(t, "unknown syntax: '$' is reserved for the end marker")
            return end_category()
        else:
            self.fail(t, f"unknown syntax: expected a category, found {t.value!r}")
        # the features, after the '[' at i
        i += 1
        if toks[i].kind == "RB":
            self.idx = i + 1
            return Node(arcs=fields)
        while True:
            name = toks[i]
            # a WORD token matches fs._FEATURE_RE unless it is a dotted path
            if name.kind != "WORD" or "." in name.value:
                self.idx = i
                self.fail(self.take(), f"unknown syntax: expected a feature name, found {name.value!r}")
            self.idx = i + 1
            if toks[i + 1].kind != "EQ":
                self.expect("EQ", "'='")
            self.idx = i + 2
            value = self.value(tags)
            if name.value in fields:
                self.issues.append(ParseIssue(name.line, name.col, f"duplicate feature {name.value!r} in one AVM"))
            else:
                fields[name.value] = value
            i = self.idx
            kind = toks[i].kind
            if kind == "RB":
                self.idx = i + 1
                return Node(arcs=fields)
            if kind != "COMMA":
                self.fail(self.take(), "unknown syntax: expected ',' or ']'")
            i += 1

    def value(self, tags) -> Node:
        """The feature value at the parser's token: an atom, read here, or
        a category (``Label[...]``, ``[...]``, a ``$n`` tag), which a
        dotted word is too, for ``category`` to refuse."""
        i = self.idx
        t = self.tokens[i]
        kind = t.kind
        if kind == "STR" or kind == "SYM" or kind == "WORD" and "." not in t.value and self.tokens[i + 1].kind != "LB":
            self.idx = i + 1
            return self.atom(t.value)
        if kind == "WORD" or kind == "LB" or kind == "TAG":
            return self.category(tags)
        self.fail(t, f"unknown syntax: expected a value, found {t.value!r}")

    def tag_value(self, tags) -> Node:
        t = self.take()
        tag = tags.setdefault(t.value, fs.empty())
        if self.peek().kind == "COLON":
            self.take()
            constraint = self.value(tags)
            try:
                fs.unify_in_place(tag, constraint)
            except UnificationFailed as exc:
                # the merge is complete when a cycle is found, and the
                # rule's or sequence's own check reports it once
                self.tag_failed = True
                if exc.reason != "cycle":
                    self.issues.append(
                        ParseIssue(t.line, t.col, f"tag ${t.value} used with two incompatible value annotations ({exc})")
                    )
        return deref(tag)


def parse_grammar(text: str, name: str = "<string>") -> Grammar:
    """Parse a grammar document; raises GrammarSyntaxError listing all issues."""
    return _Parser(text, name).parse()


def parse_category(text: str) -> Node:
    """Parse one standalone AVM (the end marker ``$`` is accepted here)."""
    return parse_category_sequence(text)[0]


def parse_category_sequence(text: str) -> list:
    """Parse whitespace-separated AVMs sharing one tag space."""
    return _category_sequence(_Parser(text, "<category>"))


def _category_sequence(p: _Parser) -> list:
    """The categories ``p`` parses, all of its text, as
    ``parse_category_sequence`` gives them."""
    cats = []
    starts = []
    tags = {}
    try:
        while p.peek().kind != "EOF":
            starts.append(p.peek())
            cats.append(p.category(tags, allow_end_mark=True))
    except _Abort:
        pass
    except RecursionError:
        p.too_deep()
    if not p.issues and not cats:
        p.issues.append(ParseIssue(1, 1, "expected at least one category"))
    if not p.issues and p.builds_cycle(cats):
        p.issues.append(ParseIssue(1, 1, "categories build a cycle"))
    p.check_avms(cats, starts)
    if p.issues:
        raise GrammarSyntaxError(p.issues)
    return cats


def parse_restrictor(text: str) -> frozenset:
    """Parse a comma/whitespace separated restrictor listing ('' is empty).

    Raises ValueError naming the first malformed path and where it starts.
    """
    paths = set()
    for m in re.finditer(r"[^,\s]+", text):
        try:
            paths.add(fs.make_path(m.group()))
        except ValueError:
            raise ValueError(f"malformed feature path {m.group()!r} at character {m.start() + 1}") from None
    return frozenset(paths)


# ---------------------------------------------------------------------------
# printing

@functools.lru_cache(maxsize=4096)
def _atom_text(name: str) -> str:
    if fs.valid_feature(name) or name in ("+", "-"):
        return name
    # the lexer reads a newline back only escaped, as a backslash before it
    escaped = name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n")
    return f'"{escaped}"'


@functools.lru_cache(maxsize=4096)
def _is_label(name: str) -> bool:
    """Whether a ``cat`` atom prints as the category's leading label.  The
    label is read back lowercased, and a reserved word there would open a
    statement or mark a preterminal, so only a lowercase feature name that
    is not reserved reparses to the same atom."""
    return fs.valid_feature(name) and name == name.lower() and name not in RESERVED_WORDS


class _Shared(Exception):
    """The one-walk rendering met a complex node a second time."""


def format_roots(roots) -> list:
    """Render a space as one string per root with shared tag numbering.

    Complex nodes referenced more than once get ``#n`` tags, numbered by
    first occurrence left to right; atoms are never tagged (same-named
    atoms are interchangeable).  The output reparses to an equivalent
    space via the AVM notation.

    Most spaces share no complex node and print in one walk, which gives
    up at the second visit of a node; only then are the references counted
    and the space rendered again, with tags.
    """
    seen = set()
    try:
        return [_render(r, seen, None) for r in roots]
    except _Shared:
        pass
    counts = {}
    for r in roots:
        _count_refs(r, counts)
    tag_ids = {}
    return [_render(r, counts, tag_ids) for r in roots]


def format_unshared(root):
    """``format_roots([root])[0]`` from the one walk alone, or None when
    ``root`` reaches a complex node twice and so needs a tag."""
    try:
        return _render(root, set(), None)
    except _Shared:
        return None


def _count_refs(n, counts):
    """Add to ``counts`` the references to each complex node below ``n``,
    entering each node once."""
    while n.forward is not None:
        n = n.forward
    if n.atom is not None:
        return
    seen = counts.get(n, 0)
    counts[n] = seen + 1
    if not seen:
        for child in n.arcs.values():
            if child.atom is None:
                _count_refs(child, counts)


def _render(n, refs, tag_ids):
    """``format_roots``' text of ``n``.  With ``tag_ids`` None, ``refs`` is
    the set of complex nodes met so far, and meeting one again raises
    ``_Shared``; else ``refs`` counts the references to each, and one
    counted more than once is tagged at its first rendering, numbered in
    ``tag_ids``."""
    while n.forward is not None:
        n = n.forward
    if n.atom is not None:
        return _atom_text(n.atom)
    prefix = ""
    if tag_ids is None:
        if n in refs:
            raise _Shared
        refs.add(n)
    elif refs[n] > 1:
        known = tag_ids.get(n)
        if known is not None:
            return f"#{known}"
        tag_ids[n] = len(tag_ids) + 1
        prefix = f"#{tag_ids[n]}:"
    arcs = n.arcs
    label = ""
    cat = arcs.get("cat")
    if cat is not None:
        while cat.forward is not None:
            cat = cat.forward
        if cat.atom is not None:
            if cat.atom == END_CATEGORY_ATOM and len(arcs) == 1 and not prefix:
                return "$"
            if _is_label(cat.atom):
                label = cat.atom
    parts = []
    for feat, c in sorted(arcs.items()):
        if label and feat == "cat":
            continue
        parts.append(f"{feat}={_atom_text(c.atom) if c.atom is not None else _render(c, refs, tag_ids)}")
    return f"{prefix}{label}[{', '.join(parts)}]"


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    rule_id: int | None = None

    def __str__(self):
        where = f"rule {self.rule_id}: " if self.rule_id is not None else ""
        return f"{self.severity}: {where}{self.message}"


class _Mothers:
    """Restricted rule mothers, looked up by the ``cat`` label of the
    category to test them against.

    A mother whose restricted form has an atomic ``cat`` other than that
    label does not unify with it, so only the mothers with that label or
    none are candidates, in rule order; every mother is one when the label
    is None.  ``firstfollow.PairSet`` indexes its pairs the same way, but
    its index grows as pairs are added; this one is fixed.
    """

    def __init__(self, roots):
        self.roots = roots
        self.trees = [fs.is_tree(m) for m in roots]
        self._all = range(len(roots))
        self._wild = []
        self._by_label = {}
        for i, m in enumerate(roots):
            label = label_of(m)
            if label is None:
                self._wild.append(i)
            else:
                self._by_label.setdefault(label, []).append(i)
        self._candidates = {}

    def candidates(self, cat):
        label = label_of(cat)
        if label is None:
            return self._all
        got = self._candidates.get(label)
        if got is None:
            got = self._candidates[label] = sorted(self._by_label.get(label, []) + self._wild)
        return got

    def unifiable(self, i, cat) -> bool:
        # a mother and a category are separate restricted copies of
        # acyclic rules, so a tree mother needs no cycle check
        return fs.unifiable(self.roots[i], cat, tree=self.trees[i])


def validate(g: Grammar) -> list:
    """Static checks; errors make FIRST/FOLLOW computation unfounded.

    Every category that is not a preterminal must be rewritable, i.e. its
    restricted form must unify with some rule mother's restricted form.
    Each mother and daughter is restricted once, and a category is tested
    only against the mothers its label allows (``_Mothers``).  Reachability
    is a worklist: the start category and then the daughters of each rule
    reached, each tested once, against the mothers not reached yet.
    """
    out = []
    mothers = _Mothers([fs.restrict(r.mother, g.restrictor) for r in g.rules])
    daughters = [[fs.restrict(d, g.restrictor) for d in r.daughters] for r in g.rules]
    for r, restricted in zip(g.rules, daughters):
        for idx, (d, rd) in enumerate(zip(r.daughters, restricted), start=1):
            if is_preterminal(d):
                continue
            if not any(mothers.unifiable(i, rd) for i in mothers.candidates(rd)):
                out.append(
                    Diagnostic("error", f"daughter {idx} unifies with no rule mother", r.rule_id)
                )
    reached = [False] * len(g.rules)
    frontier = [fs.restrict(g.start, g.restrictor)]
    for c in frontier:  # grows while it is walked
        for i in mothers.candidates(c):
            if not reached[i] and mothers.unifiable(i, c):
                reached[i] = True
                frontier.extend(daughters[i])
    for r, is_reached in zip(g.rules, reached):
        if not is_reached:
            out.append(Diagnostic("warning", "unreachable from the start category", r.rule_id))
        if r.is_epsilon and is_preterminal(r.mother):
            out.append(Diagnostic("warning", "empty rule with a preterminal mother", r.rule_id))
    return out
