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
output reparses.  A tag's number is ASCII digits, and only space, tab,
carriage return and newline separate tokens.

The tokens of a text are the strings that one ``findall`` of a module
regex gives, and the parser reads them by index: a text without issues
gets no object per token.  A position is worked out only where one is
read, for an issue or ``Rule.line`` (see ``_Parser``).
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, replace

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

# A token is a string that one regex finds, and its kind is the token
# itself: its first character (a letter for a word, '"' for a string, one
# of '[]=,:.+-' for a mark), '->', a tag '$n' or '#n', the end mark '$',
# or '' for the end of the text.  A match is a token and the blanks and
# comments after it.  Blanks are space, tab, return and newline, not all
# that ``\s`` takes; ``[\s\S]`` is any character, where ``.`` takes no
# newline; and ``findall`` skips a character that no alternative takes,
# so one takes any.
_ONE_TOKEN = r"""
    [\[\]=,:.+]                                        # a mark
  | [A-Za-z][A-Za-z0-9_]*(?:\.[A-Za-z][A-Za-z0-9_]*)*  # a word; a dot glued to a further word extends a path
  | ->?                                                # an arrow, or a minus
  | [$#][0-9]*                                         # a tag, the end mark, or a stray '#'
  | "(?:\\[\s\S]?|[^"\\\n])*"?                         # a string, or one a newline or the end leaves open
  | [\s\S]                                             # any other character: an error
  | \Z
"""
_BLANKS = r"[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*"
_LEAD = re.compile(_BLANKS)
_TOKEN = re.compile(f"({_ONE_TOKEN}){_BLANKS}", re.VERBOSE)
_CLOSED = re.compile(r'"((?:\\[\s\S]|[^"\\])*)"')
_ESCAPE = re.compile(r"\\([\s\S])")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_ONE_CHAR = _LETTERS | frozenset("[]=,:.+-$")  # the one-character tokens that are not errors


def _string_value(t):
    """The atom that the string token ``t`` spells, or None for one left
    open."""
    m = _CLOSED.fullmatch(t)
    return None if m is None else _ESCAPE.sub(r"\1", m[1])


def _shown(t):
    """The token ``t`` as messages quote it: a tag by its number, a string
    by its atom."""
    if t[:1] == '"':
        return _string_value(t)
    return t[1:] if len(t) > 1 and t[0] in "$#" else t


class _Atoms(dict):
    """A parse's one atom of each name: nothing mutates an atom, so all share it."""

    def __missing__(self, name):
        got = self[name] = atom(name)
        return got


# ---------------------------------------------------------------------------
# parser

class _Abort(Exception):
    pass


class _Parser:
    """A parser of the tokens of a text, which it reads by index.

    Without ``lexed``, the tokens are what ``_TOKEN.findall`` gives, errors
    included: a character no token starts with, a stray '#', a string left
    open.  No error is valid wherever the parser reads a token, so a text
    with one gets an issue.  ``_read`` parses again, with ``lexed``, a text
    whose first parse has issues: that parser keeps the tokens that are not
    errors and their offsets, and reports each error, in text order, before
    its own issues.  A position is worked out only where one is read, for an
    issue or ``Rule.line``, from the token's offset and the newlines."""

    def __init__(self, text, name, lexed=False):
        self.text = text
        self.name = name
        self.issues = []
        start = _LEAD.match(text).end() if text[:1] in " \t\r\n%" else 0
        if lexed:
            self.lex(start)
        else:
            self.tokens = _TOKEN.findall(text, start)
        self.idx = 0
        self.tag_failed = False  # a tag annotation of the statement failed to unify
        self.atoms = _Atoms()

    def lex(self, start):
        """Keep the tokens from ``start`` on that are not errors, with their
        offsets, and report each error."""
        self.tokens, self.offsets = tokens, offsets = [], []
        for m in _TOKEN.finditer(self.text, start):
            t = m[1]
            if t == "#":
                message = "unknown syntax: stray '#'"
            elif t[:1] == '"' and _string_value(t) is None:
                message = "unknown syntax: unterminated string"
            elif len(t) == 1 and t not in _ONE_CHAR:
                message = f"unknown syntax: unexpected character {t!r}"
            else:
                tokens.append(t)
                offsets.append(m.start())
                continue
            self.issues.append(ParseIssue(*self.position(m.start()), message))

    @functools.cached_property
    def offsets(self):
        """The offset of each token of a first parse."""
        return [m.start() for m in _TOKEN.finditer(self.text, _LEAD.match(self.text).end())]

    @functools.cached_property
    def newlines(self):
        return [m.start() for m in re.finditer("\n", self.text)]

    def position(self, offset):
        """The line and column of the character at ``offset``."""
        newlines = self.newlines
        line = bisect.bisect_left(newlines, offset)  # the newlines before it
        return line + 1, offset - (newlines[line - 1] if line else -1)

    def issue(self, i, message):
        """Report ``message`` at token ``i``."""
        self.issues.append(ParseIssue(*self.position(self.offsets[i]), message))

    def fail(self, i, message, read=True):
        """Report ``message`` at token ``i`` and abort the statement.  ``sync``
        resumes after the token, or at it where it is left unread; never
        past the end of the text."""
        self.issue(i, message)
        self.idx = i + 1 if read and self.tokens[i] else i
        raise _Abort()

    def expect(self, token, what):
        i = self.idx
        t = self.tokens[i]
        if t != token:
            self.fail(i, f"unknown syntax: expected {what}, found {_shown(t)!r}")
        self.idx = i + 1

    def sync(self):
        """Resume after the next '.', or at the end."""
        toks, i = self.tokens, self.idx
        while toks[i] and toks[i] != ".":
            i += 1
        self.idx = i + 1 if toks[i] else i

    def parse(self) -> Grammar | None:
        """The grammar of the text, or None when there are issues."""
        self.rules = []
        self.restrictor_paths = set()
        self.start_declared = None
        toks = self.tokens
        while toks[self.idx]:
            try:
                self.statement()
            except _Abort:
                self.sync()
            except RecursionError:
                self.issue(self.idx, "category nested too deeply to parse")
                self.sync()
        if not self.rules and not self.issues:
            self.issues.append(ParseIssue(1, 1, "a grammar needs at least one rule"))
        if self.issues:
            return None
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
        t = self.tokens[self.idx]
        if t == "restrict":
            self.idx += 1
            self.restrict_statement()
        elif t == "start":
            self.idx += 1
            self.start_statement()
        else:
            self.rule_statement()

    def restrict_statement(self):
        toks = self.tokens
        i = self.idx
        while True:
            if toks[i][:1] not in _LETTERS:
                self.fail(i, "restrictor path malformed")
            # each dot-separated segment of a word matches fs._FEATURE_RE
            self.restrictor_paths.add(fs.make_path(toks[i]))
            if toks[i + 1] == ".":
                self.idx = i + 2
                return
            if toks[i + 1] != ",":
                self.fail(i + 1, "restrictor path malformed: expected ',' or '.'")
            i += 2

    def start_statement(self):
        i = self.idx
        t = self.tokens[i]
        if t[:1] not in _LETTERS or "." in t:
            self.fail(i, "unknown syntax: start expects a category label")
        self.start_declared = t.lower()
        self.idx = i + 1
        self.expect(".", "'.'")

    def rule_statement(self):
        tags = {}
        self.tag_failed = False
        toks = self.tokens
        starts = [self.idx]
        mother = self.category(tags)
        self.expect("->", "'->'")
        daughters = []
        while toks[self.idx] != ".":
            i = self.idx
            if not toks[i]:
                self.fail(i, "unknown syntax: unterminated rule")
            preterminal_sugar = toks[i] == "term"
            if preterminal_sugar:
                i += 1
                self.idx = i
            starts.append(i)
            d = self.category(tags)
            if preterminal_sugar:
                self.mark_preterminal(d, i)
            daughters.append(d)
        self.idx += 1  # the '.'
        roots = [mother, *daughters]
        line = self.position(self.offsets[starts[0]])[0]
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
        for root, i in zip(roots, starts):
            n = deref(root)
            if n.atom is not None:
                self.issue(i, f"a category is an AVM, not the atom {_atom_text(n.atom)}")

    def mark_preterminal(self, cat, start):
        """Unify ``ter=+`` into ``cat``; a clash is reported at token
        ``start``, where the category starts.  An atom category is left to
        ``check_avms``."""
        if deref(cat).atom is not None:
            return
        try:
            # a fresh tree sharing no complex node cannot close a cycle
            fs.unify_in_place(Node(arcs={"ter": self.atoms["+"]}), cat, tree=True)
        except UnificationFailed:
            self.issue(start, "term used on a category with ter incompatible with '+'")

    def category(self, tags, allow_end_mark=False) -> Node:
        """The category at the parser's token: ``Label``, ``Label[...]``,
        ``[...]``, a ``$n`` tag or, where allowed, the end mark ``$``.  A
        token no category starts with is left unread; one in error inside
        the category is read, so that ``sync`` resumes after it."""
        toks = self.tokens
        i = self.idx
        t = toks[i]
        c = t[:1]
        if c in _LETTERS:
            i += 1
            self.idx = i
            if "." in t:
                self.fail(i - 1, f"unknown syntax: unexpected path {t!r}")
            fields = {"cat": self.atoms[t.lower()]}
            if toks[i] != "[":
                return Node(arcs=fields)
        elif t == "[":
            fields = {}
        elif len(t) > 1 and c in "$#":
            return self.tag_value(tags)
        elif t == "$":
            self.idx = i + 1
            if not allow_end_mark:
                self.fail(i, "unknown syntax: '$' is reserved for the end marker")
            return end_category()
        else:
            self.fail(i, f"unknown syntax: expected a category, found {_shown(t)!r}", read=False)
        # the features, after the '[' at i
        i += 1
        if toks[i] == "]":
            self.idx = i + 1
            return Node(arcs=fields)
        while True:
            name = toks[i]
            # a word matches fs._FEATURE_RE unless it is a dotted path
            if name[:1] not in _LETTERS or "." in name:
                self.fail(i, f"unknown syntax: expected a feature name, found {_shown(name)!r}")
            if toks[i + 1] != "=":
                self.fail(i + 1, f"unknown syntax: expected '=', found {_shown(toks[i + 1])!r}")
            self.idx = i + 2
            value = self.value(tags)
            if name in fields:
                self.issue(i, f"duplicate feature {name!r} in one AVM")
            else:
                fields[name] = value
            i = self.idx
            t = toks[i]
            if t == "]":
                self.idx = i + 1
                return Node(arcs=fields)
            if t != ",":
                self.fail(i, "unknown syntax: expected ',' or ']'")
            i += 1

    def value(self, tags) -> Node:
        """The feature value at the parser's token: an atom, read here, or
        a category (``Label[...]``, ``[...]``, a ``$n`` tag), which a
        dotted word is too, for ``category`` to refuse."""
        i = self.idx
        t = self.tokens[i]
        c = t[:1]
        if c in _LETTERS and "." not in t and self.tokens[i + 1] != "[" or t == "+" or t == "-":
            self.idx = i + 1
            return self.atoms[t]
        if c == '"':
            s = _string_value(t)
            if s is not None:
                self.idx = i + 1
                return self.atoms[s]
        elif c in _LETTERS or t == "[" or len(t) > 1 and c in "$#":
            return self.category(tags)
        self.fail(i, f"unknown syntax: expected a value, found {_shown(t)!r}", read=False)

    def tag_value(self, tags) -> Node:
        i = self.idx
        t = self.tokens[i]
        tag = tags.get(t[1:])
        if tag is None:  # a node only for the tag's first occurrence
            tag = tags[t[1:]] = fs.empty()
        self.idx = i + 1
        if self.tokens[i + 1] == ":":
            self.idx = i + 2
            constraint = self.value(tags)
            try:
                fs.unify_in_place(tag, constraint)
            except UnificationFailed as exc:
                # the merge is complete when a cycle is found, and the
                # rule's or sequence's own check reports it once
                self.tag_failed = True
                if exc.reason != "cycle":
                    self.issue(i, f"tag ${t[1:]} used with two incompatible value annotations ({exc})")
        return deref(tag)


def _read(text, name, read):
    """What ``read`` gives on a parser of ``text``; GrammarSyntaxError,
    with the issues of a parser that lexes the text, when it has any."""
    p = _Parser(text, name)
    got = read(p)
    if p.issues:
        p = _Parser(text, name, lexed=True)
        read(p)
        raise GrammarSyntaxError(p.issues)
    return got


def parse_grammar(text: str, name: str = "<string>") -> Grammar:
    """Parse a grammar document; raises GrammarSyntaxError listing all issues."""
    return _read(text, name, _Parser.parse)


def parse_category(text: str) -> Node:
    """Parse one standalone AVM (the end marker ``$`` is accepted here).
    A text that holds a second category is an error, placed there."""
    return _read(text, "<category>", _one_category)


def _one_category(p: _Parser) -> Node:
    """The category ``p`` parses, as ``parse_category`` gives it; a second
    category is an issue at the token where it starts."""
    cats, starts = _category_sequence(p)
    if len(starts) > 1:
        p.issue(starts[1], "expected one category, found a second")
    return cats[0] if cats else None


def parse_category_sequence(text: str) -> list:
    """Parse whitespace-separated AVMs sharing one tag space."""
    return _read(text, "<category>", _category_sequence)[0]


def _category_sequence(p: _Parser) -> tuple:
    """The categories ``p`` parses, all of its text, as
    ``parse_category_sequence`` gives them, and the token at which each
    starts; its issues, if any, are in ``p.issues``."""
    cats = []
    starts = []
    tags = {}
    toks = p.tokens
    try:
        while toks[p.idx]:
            starts.append(p.idx)
            cats.append(p.category(tags, allow_end_mark=True))
    except _Abort:
        pass
    except RecursionError:
        p.issue(p.idx, "category nested too deeply to parse")
    if not p.issues and not cats:
        p.issues.append(ParseIssue(1, 1, "expected at least one category"))
    if not p.issues and p.builds_cycle(cats):
        p.issues.append(ParseIssue(1, 1, "categories build a cycle"))
    p.check_avms(cats, starts)
    return cats, starts


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
    Each mother and daughter is restricted once, to the stored form that
    ``fs.restrict`` makes (its pruning changes no unification outcome), and
    a category is tested only against the mothers its label allows
    (``_Mothers``).  Reachability is a worklist: the start category and
    then the daughters of each rule reached, each tested once, against the
    mothers not reached yet.
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
