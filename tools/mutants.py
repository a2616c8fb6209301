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
- M25-M41, faults of the front end, ``grammar.py``: token and issue
  positions in the lexer (M25-M35), the parser's cycle check (M36, M37)
  and the printer's two walks (M38-M41).
- M42-M44, faults of binding once per left-side class: in the engine's
  grouping (M42), and in the algebra's canonical key, ``fs.py`` (M43,
  M44).  M45 is retired: a class is the root that founded it, so no
  class number can restart per set.
- M46-M52, faults of doing a shared side's work once per run, in the
  engine: grouped binds kept past the space they were made in (M46, M47),
  a side printed alone where it shares a node with the other (M48), the
  rejection of a repeated product by identity (M49, M50), and a product
  interned where its sides may share a node (M52).  M51 is retired: a
  product is interned where the run stores it, and nowhere else.

M15-M41 keep the evidence on which white-box tests of those internals
retired: each fault such a test caught must still fail a test that
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
        "M25 a word's column one too far right",
        FRONT_END,
        '("WORD", text[i:j], line, i - last)',
        '("WORD", text[i:j], line, i - last + 1)',
    ),
    (
        "M26 an arrow's column one too far right",
        FRONT_END,
        '("ARROW", "->", line, i - last)',
        '("ARROW", "->", line, i - last + 1)',
    ),
    (
        "M27 a punctuation mark's column one too far right",
        FRONT_END,
        "(punct[c], c, line, i - last)",
        "(punct[c], c, line, i - last + 1)",
    ),
    (
        "M28 a tag's column one too far right",
        FRONT_END,
        '("TAG", text[i + 1 : j], line, i - last)',
        '("TAG", text[i + 1 : j], line, i - last + 1)',
    ),
    (
        "M29 an end mark's column one too far right",
        FRONT_END,
        '("DOLLAR", "$", line, i - last)',
        '("DOLLAR", "$", line, i - last + 1)',
    ),
    (
        "M30 a comment's newline is not counted",
        FRONT_END,
        "else:\n                    line += 1\n                    last = nl",
        "else:\n                    last = nl",
    ),
    (
        "M31 an escaped newline inside a string is not counted",
        FRONT_END,
        "if inside:",
        "if False:",
    ),
    (
        "M32 the end of the text one column too far left",
        FRONT_END,
        '("EOF", "", line, n - last)',
        '("EOF", "", line, n - last - 1)',
    ),
    (
        "M33 a string's column one too far right",
        FRONT_END,
        '_Tok("STR", "".join(out), line, col)',
        '_Tok("STR", "".join(out), line, col + 1)',
    ),
    (
        "M34 a newline does not move the column back",
        FRONT_END,
        "line += 1\n                last = i\n                i += 1",
        "line += 1\n                i += 1",
    ),
    (
        "M35 an unterminated string reported one column too far right",
        FRONT_END,
        'ParseIssue(line, col, "unknown syntax: unterminated string")',
        'ParseIssue(line, col + 1, "unknown syntax: unterminated string")',
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
        "if p.sides_apart()",
        "if True",
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
        "if texts is not None and len(p.lhs) == 1 and p.sides_apart():",
        "if texts is not None and len(p.lhs) == 1:",
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
        "                out.rejected += 1\n                return False\n",
        "                return False\n",
    ),
    (
        "M52 a product not known apart is interned",
        ENGINE,
        "if apart:",
        "if apart is not False:",
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
