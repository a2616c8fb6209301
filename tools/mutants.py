"""Engine mutations that the engine and acceptance tests must catch.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` is (name, file, old text, new text): one small
fault in the engine, written as the replacement of a text that occurs
exactly once in its file.  M15-M24, faults of ``PairSet``'s buckets and
label index and of a visit's counts, keep the evidence on which white-box
tests of those internals retired: each fault such a test caught must
still fail a test that remains.  For each mutant, the tool copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
makes the replacement there and runs

    python -m pytest -x -q tests/test_firstfollow.py tests/test_engine_pin.py tests/test_acceptance.py

in it.  A mutant is caught when that run fails, and survives when it
passes.  The same run on an unchanged copy must pass first, so a copy the
tests cannot run in does not pass for a catch.  Prints one line per
mutant, with the first test that failed.  Stdlib only.  Exits 1 when the
unchanged copy fails, when a mutant survives, or when an old text does
not occur exactly once in its file of this checkout.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/featflow/firstfollow.py"
TESTS = ("tests/test_firstfollow.py", "tests/test_engine_pin.py", "tests/test_acceptance.py")

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
        "serials = lists.get(label, unlabelled)[1]",
        "serials = lists.get(label, ([], []))[1]",
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
        "spaces.append((i, daughter))",
        "spaces.append((i, daughter)) if i == 0 else None",
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
        "M21 settling unlists a pair but keeps its serial",
        ENGINE,
        "                del listed[at], serials[at]",
        "                del listed[at]",
    ),
    (
        "M22 a span ignores its upper bound",
        ENGINE,
        "        if end and serials[-1] > hi:",
        "        if False:",
    ),
    (
        "M23 a span starts at its lower bound, not above it",
        ENGINE,
        "start = bisect.bisect_right(serials, lo) if lo else 0",
        "start = bisect.bisect_left(serials, lo) if lo else 0",
    ),
    (
        "M24 a visit considers the newest read of a kind, not the widest",
        ENGINE,
        "if widest is not None and read.n > widest[read.kind]:",
        "if widest is not None:",
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


def run_tests(path=None, old="", new="") -> subprocess.CompletedProcess:
    """The ``TESTS`` on a copy of this checkout in which ``old`` is
    replaced by ``new`` in the file ``path`` (no file when None)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        if path is not None:
            target = tmp / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
        return subprocess.run(cmd, cwd=tmp, capture_output=True, text=True)


def first_failure(proc: subprocess.CompletedProcess) -> str:
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"exit {proc.returncode}"


def main() -> int:
    bad = dict(misplaced())
    for name, count in bad.items():
        print(f"MISPLACED {name}: its old text occurs {count} times")
    control = run_tests()
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
