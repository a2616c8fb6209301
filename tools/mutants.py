"""Mutations of the engine, the front end and the algebra that the tests
must catch.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` is (name, file, old text, new text): one small
fault, written as the replacement of a text that occurs exactly once in
its file.  This docstring is the one place that says which faults there
are and which tests must catch them:

- M1-M24, faults of the engine, ``firstfollow.py``, but for M21, which is
  retired: each label's index list holds its pairs alone, so no list of
  serials can fall out of step with it.
- M25-M41, faults of the front end, ``grammar.py``: positions worked out
  from token offsets (M25-M31), the token regex where it must keep the
  notation's lexing (M32-M35: the four blanks, ASCII tag digits, the
  alternative that takes any other character, and an escaped newline in
  a string), the parser's cycle check (M36, M37) and the printer's two
  walks (M38-M41).
- M42-M44, faults of binding once per left-side class: in the engine's
  grouping (M42), and in the algebra's canonical key, ``fs.py`` (M43,
  M44).  M45 is retired: a class is the root that founded it, so no
  class number can restart per set.
- M46-M53, faults of doing a shared side's work once per run, in the
  engine: grouped binds kept past the space they were made in (M46, M47),
  a side printed alone where it shares a node with the other (M48), the
  rejection of a repeated product by identity (M49, M50), and a product
  stored as apart without the walk that says so (M53).  M51 is retired: a
  product is interned where the run stores it, and nowhere else.  M52 is
  retired: ``store`` walks apartness where it is not known, so ``apart``
  is never None where it is tested, and ``if apart:`` and ``if apart is
  not False:`` are one program.
- M54-M56, faults of the front end's two parses of a text with issues: a
  token left unread taken by the resync (M54), no second parse (M55), and
  an open string read as an atom in the first (M56).
- M57-M59, faults of the algebra, ``fs.py``: a binding trailed only after
  it is made, so an append that raises leaves it in place (M57), a
  working copy pruned (M58) and a stored form left unpruned (M59).
- M60, a fault of the front end: ``parse_category`` returns the first of
  several categories.
- M61, a fault of the engine's printer: a pair whose sides are apart and
  both tagged printed from the memo, so the right side's tags are
  numbered from 1 and not after the left side's.

M15-M24 and M36-M41 keep the evidence on which white-box tests of those
internals retired: each fault such a test caught must still fail a test that
remains.  For each mutant, the tool copies ``src/``, ``tests/``,
``perfbench/`` (whose pool grammars the parse pin reads) and
``pyproject.toml`` to a temporary directory, makes the replacement there
and runs the ``TESTS`` of the mutated file,

    python -m pytest -x -q tests/test_firstfollow.py tests/test_engine_pin.py tests/test_acceptance.py
    python -m pytest -x -q tests/test_parse_pin.py tests/test_grammar.py tests/test_engine_pin.py
    python -m pytest -x -q tests/test_fs.py tests/test_firstfollow.py tests/test_engine_pin.py tests/test_acceptance.py

for the engine, for the front end and for the algebra, in it.  A mutant
is caught when that run fails, and survives when it passes.  The same
runs on an unchanged copy must pass first, so a copy the tests cannot run
in does not pass for a catch.  Prints one line per mutant, with the first
test that failed.  Stdlib only.  Exits 1 when the unchanged copy fails,
when a mutant survives, or when an old text does not occur exactly once
in its file of this checkout.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/featflow/firstfollow.py"
FRONT_END = "src/featflow/grammar.py"
ALGEBRA = "src/featflow/fs.py"
TESTS = {
    ENGINE: ("tests/test_firstfollow.py", "tests/test_engine_pin.py", "tests/test_acceptance.py"),
    FRONT_END: ("tests/test_parse_pin.py", "tests/test_grammar.py", "tests/test_engine_pin.py"),
    ALGEBRA: ("tests/test_fs.py", "tests/test_firstfollow.py", "tests/test_engine_pin.py", "tests/test_acceptance.py"),
}

MUTANTS = (
    (
        "M1 a wake label list drops None",
        ENGINE,
        "return None if None in labels else tuple(dict.fromkeys(labels))",
        "return tuple(dict.fromkeys(l for l in labels if l is not None))",
    ),
    (
        "M2 _woken without the unlabelled fallback",
        ENGINE,
        "listed = lists.get(label, unlabelled)",
        "listed = lists.get(label, [])",
    ),
    (
        "M3 _eps_step over reversed prefixes",
        ENGINE,
        "level = _eps_step(prefixes, pos, eps, rec)",
        "level = _eps_step(prefixes[::-1], pos, eps, rec)",
    ),
    (
        "M4 every prefix drives only the fresh pairs",
        ENGINE,
        "pool = drivers if newest > fresh.lo else fresh",
        "pool = fresh",
    ),
    (
        "M5 _bind_each counts its filtered pairs but does not begin its read",
        ENGINE,
        "rec.began(read, read.n - (end - start))",
        "rec.attempts += read.n - (end - start); rec.filtered += read.n - (end - start)",
    ),
    (
        "M6 a visit considers the first read of a kind, not the widest",
        ENGINE,
        "if widest is not None and read.n > widest[read.kind]:",
        "if widest is not None and not widest[read.kind]:",
    ),
    (
        "M7 replaying FOLLOW's kept tails does not pass FIRST's empty pairs",
        ENGINE,
        "rec.passed(eps, 0)  # as enumerating the kept tail spaces began it",
        "pass",
    ),
    (
        "M8 FOLLOW keeps only the first daughter's tail spaces",
        ENGINE,
        "spaces.append((i, daughter, {}))",
        "spaces.append((i, daughter, {})) if i == 0 else None",
    ),
    (
        "M9 eager empty-prefix levels",
        ENGINE,
        "level = _eps_step(prefixes, pos, eps, rec)",
        "level = list(_eps_step(prefixes, pos, eps, rec))",
    ),
    (
        "M10 a sleeping FIRST visit does not pass the empty pairs",
        ENGINE,
        "rec.passed(eps, 0)\n            rec.passed(fresh, 0)",
        "rec.passed(fresh, 0)",
    ),
    (
        "M11 _first_of_span binds the empty pairs where a label has none",
        ENGINE,
        "        if start == end:\n            rec.passed(eps, len(prefixes) * eps.n)\n            return\n",
        "",
    ),
    (
        "M12 FOLLOW enumerates the empty-string tails on every full visit",
        ENGINE,
        "with_empty=first_visit)",
        "with_empty=True)",
    ),
    (
        "M13 every pair is apart",
        ENGINE,
        "self._apart = True if self.is_epsilon else apart",
        "self._apart = True",
    ),
    (
        "M14 apart compares only the roots",
        ENGINE,
        "self._apart = fs.apart(self.lhs, (self.rhs,))",
        "self._apart = self.rhs not in self.lhs",
    ),
    (
        "M15 add looks for no subsumer in the wild buckets",
        ENGINE,
        "if k != key and _key_covers(k, key):",
        "if False:",
    ),
    (
        "M16 a wild incomer replaces nothing outside its own bucket",
        ENGINE,
        "        if wild:\n            for k, other in buckets.items():",
        "        if False:\n            for k, other in buckets.items():",
    ),
    (
        "M17 a replaced pair stays listed",
        ENGINE,
        "            self._replaced += doomed\n",
        "            pass\n",
    ),
    (
        "M18 an empty pair's index lists are kept as a driver's",
        ENGINE,
        "self._held[label, p.is_epsilon] = holders",
        "self._held[label, False] = holders",
    ),
    (
        "M19 a replacement joins the bucket it emptied",
        ENGINE,
        "            self._replaced += doomed\n            bucket = buckets.get(key)\n",
        "            self._replaced += doomed\n",
    ),
    (
        "M20 a new wild key is not listed as wild",
        ENGINE,
        "            if wild:\n                self._wild[key] = None",
        "            if False:\n                self._wild[key] = None",
    ),
    (
        "M22 a span ignores its upper bound",
        ENGINE,
        "        if end and listed[-1].serial > hi:",
        "        if False:",
    ),
    (
        "M23 a span starts at its lower bound, not above it",
        ENGINE,
        "start = bisect.bisect_right(listed, lo, key=_serial) if lo else 0",
        "start = bisect.bisect_left(listed, lo, key=_serial) if lo else 0",
    ),
    (
        "M24 a visit considers the newest read of a kind, not the widest",
        ENGINE,
        "if widest is not None and read.n > widest[read.kind]:",
        "if widest is not None:",
    ),
    (
        "M25 a token's column one too far right",
        FRONT_END,
        "return line + 1, offset - (",
        "return line + 1, 1 + offset - (",
    ),
    (
        "M26 a column on the first line one too far left",
        FRONT_END,
        "if line else -1)",
        "if line else 0)",
    ),
    (
        "M27 the first parse's offsets start at the text's start, not its first token's",
        FRONT_END,
        "_TOKEN.finditer(self.text, _LEAD.match(self.text).end())",
        "_TOKEN.finditer(self.text, 0)",
    ),
    (
        "M28 the lexer places a token at the end of its match",
        FRONT_END,
        "offsets.append(m.start())",
        "offsets.append(m.end())",
    ),
    (
        "M29 the lexer reports an error one column too far right",
        FRONT_END,
        "ParseIssue(*self.position(m.start()), message)",
        "ParseIssue(*self.position(m.start() + 1), message)",
    ),
    (
        "M30 a comment that opens the text is not skipped",
        FRONT_END,
        'if text[:1] in " \\t\\r\\n%" else 0',
        'if text[:1] in " \\t\\r\\n" else 0',
    ),
    (
        "M31 an escaped newline in a string is not counted as a line",
        FRONT_END,
        're.finditer("\\n", self.text)',
        're.finditer("(?<!\\\\\\\\)\\n", self.text)',
    ),
    (
        "M32 blanks widened to every white space character",
        FRONT_END,
        '_BLANKS = r"[ \\t\\r\\n]*(?:%[^\\n]*[ \\t\\r\\n]*)*"',
        '_BLANKS = r"\\s*(?:%[^\\n]*\\s*)*"',
    ),
    (
        "M33 tag numbers widened to every digit",
        FRONT_END,
        "[$#][0-9]*",
        "[$#]\\d*",
    ),
    (
        "M34 no alternative takes a character no token starts with",
        FRONT_END,
        "  | [\\s\\S]                                             # any other character: an error\n",
        "",
    ),
    (
        "M35 a string's escape does not take a newline",
        FRONT_END,
        '"(?:\\\\[\\s\\S]?|[^"\\\\\\n])*"?',
        '"(?:\\\\.?|[^"\\\\\\n])*"?',
    ),
    (
        "M36 no statement is checked for cycles",
        FRONT_END,
        "return self.tag_failed and fs._cyclic(roots)",
        "return False",
    ),
    (
        "M37 a failed tag annotation does not ask for the cycle check",
        FRONT_END,
        "self.tag_failed = True",
        "pass",
    ),
    (
        "M38 the one-walk printer never gives up on a shared node",
        FRONT_END,
        "if n in refs:\n            raise _Shared",
        "if False:\n            raise _Shared",
    ),
    (
        "M39 the counting printer counts each node once",
        FRONT_END,
        "counts[n] = seen + 1",
        "counts[n] = 1",
    ),
    (
        "M40 tags numbered from 0",
        FRONT_END,
        "tag_ids[n] = len(tag_ids) + 1",
        "tag_ids[n] = len(tag_ids)",
    ),
    (
        "M41 the counting printer enters a node's children at every reference",
        FRONT_END,
        "if not seen:\n        for child",
        "if True:\n        for child",
    ),
    (
        "M42 grouping ignores apartness",
        ENGINE,
        "if not p._apart:",
        "if False:",
    ),
    (
        "M43 the canonical key does not number revisited nodes",
        ALGEBRA,
        "k = number.get(n)",
        "k = None",
    ),
    (
        "M44 the canonical key drops atom names",
        ALGEBRA,
        "out.append(n.atom)",
        'out.append("")',
    ),
    (
        "M46 FIRST's kept binds used past the first position",
        ENGINE,
        "        made = None\n",
        "",
    ),
    (
        "M47 one memo shared by all of a rule's tail spaces",
        ENGINE,
        "spaces.append((i, daughter, {}))",
        "spaces.append((i, daughter, spaces[0][2] if spaces else {}))",
    ),
    (
        "M48 the print-once memo used when the sides are not apart",
        ENGINE,
        "if texts is not None and p.sides_apart():",
        "if texts is not None:",
    ),
    (
        "M49 a repeated product is known by its left root alone",
        ENGINE,
        "sides = (root, rhs)",
        "sides = root",
    ),
    (
        "M50 a repeated product is rejected uncounted",
        ENGINE,
        "                out.rejected += 1\n                return\n",
        "                return\n",
    ),
    (
        "M53 a product not known apart is stored apart without the walk",
        ENGINE,
        "apart = fs.apart(lhs_roots, (rhs,))",
        "apart = True",
    ),
    (
        "M54 a statement resumes after a token left unread",
        FRONT_END,
        "self.idx = i + 1 if read and self.tokens[i] else i",
        "self.idx = i + 1 if self.tokens[i] else i",
    ),
    (
        "M55 a text whose first parse has issues is not lexed again",
        FRONT_END,
        "        p = _Parser(text, name, lexed=True)\n",
        "",
    ),
    (
        "M56 a string left open is read as an atom",
        FRONT_END,
        "            if s is not None:\n",
        "            if True:\n",
    ),
    (
        "M57 _union trails a binding only after making it",
        ALGEBRA,
        "    trail.append((a, None))\n    a.forward = b\n",
        "    a.forward = b\n    trail.append((a, None))\n",
    ),
    (
        "M58 unify_copy prunes a working copy",
        ALGEBRA,
        "return clone_many(keep) if restrictor is None else restrict_many(keep, restrictor)",
        "return restrict_many(keep, restrictor or frozenset())",
    ),
    (
        "M59 restrict_many leaves a stored form unpruned",
        ALGEBRA,
        "lone = None if cut is None else set()",
        "lone = None",
    ),
    (
        "M60 parse_category returns the first of several categories",
        FRONT_END,
        "    if len(starts) > 1:\n",
        "    if False:\n",
    ),
    (
        "M61 a pair whose sides are apart and both tagged printed from the memo",
        ENGINE,
        'if "#" not in rhs or not any("#" in text for text in lhs):',
        "if True:",
    ),
)


def misplaced(root: Path = ROOT) -> list:
    """(name, count) of each mutant whose old text occurs other than
    exactly once in its file under ``root``."""
    out = []
    for name, path, old, _ in MUTANTS:
        count = (root / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            out.append((name, count))
    return out


def run_tests(path, old=None, new=None) -> subprocess.CompletedProcess:
    """The ``TESTS`` of the file ``path`` on a copy of this checkout in
    which ``old`` is replaced by ``new`` in that file, or on an unchanged
    copy when ``old`` is None."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, tmp / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        if old is not None:
            target = tmp / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS[path]]
        return subprocess.run(cmd, cwd=tmp, capture_output=True, text=True)


def first_failure(proc: subprocess.CompletedProcess) -> str:
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"exit {proc.returncode}"


def main() -> int:
    bad = dict(misplaced())
    for name, count in bad.items():
        print(f"MISPLACED {name}: its old text occurs {count} times")
    for path in TESTS:
        control = run_tests(path)
        if control.returncode:
            print(f"the unchanged copy fails: {first_failure(control)}")
            print(control.stdout[-2000:])
            return 1
    survived = 0
    for name, path, old, new in MUTANTS:
        if name in bad:
            continue
        proc = run_tests(path, old, new)
        if proc.returncode:
            print(f"caught    {name}: {first_failure(proc)}")
        else:
            survived += 1
            print(f"SURVIVED  {name}")
    print(f"{len(MUTANTS) - survived - len(bad)} of {len(MUTANTS)} mutants caught")
    return 1 if survived or bad else 0


if __name__ == "__main__":
    sys.exit(main())
