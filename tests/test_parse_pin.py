"""Parse outcomes pinned by recorded digests, one batch of texts at a time.

``outcome(text)`` holds what ``parse_grammar`` and
``parse_category_sequence`` give on a text.  On success that is the
printed roots and the line of each rule, the printed start and the sorted
restrictor, or the printed categories; on failure it is every issue's
(line, col, message).

``corpus()`` is about 8,500 texts, the same on every run:

- 5,000 strings of ``test_grammar``'s ``NOTATION_PIECES`` and of
  ``TAGGED_PIECES`` and ``STRING_PIECES`` below, and 500 of
  ``TERM_PIECES``, which can put ``term`` before a category whose ``ter``
  is not ``+``, drawn with ``random.Random``;
- the six fixtures, the benchmark's pool grammars and its query strings;
- 3,000 single-token deletions, insertions and replacements of those,
  half of them in the grammars and half in the query strings.

The golden ``tests/goldens/parse_digests.json`` holds the sha256 of the
outcomes of each batch of 100 texts, as JSON.  A mismatch names its batch;
compare ``outcome`` on that batch's texts before and after the change.

Re-record it, only for a change meant to alter a parse outcome, with

    PYTHONPATH=src python tests/test_parse_pin.py
"""

import hashlib
import json
import random
import re
from pathlib import Path

from featflow.grammar import GrammarSyntaxError, format_roots, parse_category_sequence, parse_grammar
from support import fixture_path, perfbench_module
from test_grammar import FIXTURES, NOTATION_PIECES

DIGESTS = Path(__file__).parent / "goldens" / "parse_digests.json"
BATCH = 100
MUTATIONS = 3_000
# tags that close cycles, or meet a failed annotation
TAGGED_PIECES = (
    "S", "a[ter=+]", "[", "]", "f=", "g=", ", ", " -> ", ". ", "$1", "$2", "$1:", "$2:", "x", "term ",
)
# strings that swallow newlines through escapes, among other lines
STRING_PIECES = ('"', '\\', '\\\n', '\\"', "\n", "\r\n", "a", "NP[", "f=", "]", " ", ".", "%", "#", "$1")
TERM_PIECES = (
    "S[] -> ", "term ", "X[]", "X[ter=+]", "X[ter=-]", "X[ter=$1:-]", "X[f=$1, ter=$1]", "$1:X[ter=-]", "$1", "a", ". ", "\n",
)

# one token of the notation, as a reader would cut it: a string, a
# comment, an arrow, a tag, a word with its path, or one other character
_TOKEN = re.compile(r'"(?:\\.|[^"\\\n])*"?|%[^\n]*|->|[$#]\d*|[A-Za-z][A-Za-z0-9_]*(?:\.[A-Za-z][A-Za-z0-9_]*)*|\S')


def real_texts():
    """The fixtures and the benchmark's pool grammars, and the category
    strings it queries its query grammars with."""
    grammars = [Path(fixture_path(name)).read_text(encoding="utf-8") for name in FIXTURES]
    strings = []
    workloads = perfbench_module("workloads")
    for workload in workloads.NAMES:
        for entry in workloads.load_goldens(workload)["pool"]:
            cand = workloads.candidate(workload, entry["index"])
            grammars.append(cand.text)
            if workload == workloads.QUERIES:
                strings += workloads.query_texts(entry["index"], cand)
    return grammars, strings


def mutate(text, rng):
    """``text`` with one token deleted, a piece inserted before a token, or
    a token replaced by a piece."""
    spans = [m.span() for m in _TOKEN.finditer(text)]
    op = rng.choice(("delete", "insert", "replace")) if spans else "insert"
    piece = rng.choice(NOTATION_PIECES)
    if op == "insert":
        at = rng.choice([lo for lo, _ in spans] + [len(text)])
        return text[:at] + piece + text[at:]
    lo, hi = rng.choice(spans)
    return text[:lo] + ("" if op == "delete" else piece) + text[hi:]


def corpus():
    rng = random.Random(30)
    texts = []
    families = ((NOTATION_PIECES, 2_000), (TAGGED_PIECES, 1_500), (STRING_PIECES, 1_500), (TERM_PIECES, 500))
    for pieces, count in families:
        texts += ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 40))) for _ in range(count)]
    grammars, strings = real_texts()
    texts += grammars + strings
    for real in (grammars, strings):
        texts += [mutate(rng.choice(real), rng) for _ in range(MUTATIONS // 2)]
    return texts


def issues(err):
    return [[i.line, i.col, i.message] for i in err.issues]


def outcome(text):
    try:
        g = parse_grammar(text)
    except GrammarSyntaxError as err:
        grammar = {"issues": issues(err)}
    else:
        grammar = {
            "rules": [format_roots(r.roots()) for r in g.rules],
            "lines": [r.line for r in g.rules],
            "start": format_roots([g.start])[0],
            "restrictor": sorted(map(list, g.restrictor)),
        }
    try:
        categories = format_roots(parse_category_sequence(text))
    except GrammarSyntaxError as err:
        categories = {"issues": issues(err)}
    return {"grammar": grammar, "categories": categories}


def batch_digests(texts):
    """The digest of each batch of ``BATCH`` texts, named by its range."""
    out = {}
    for lo in range(0, len(texts), BATCH):
        batch = texts[lo : lo + BATCH]
        doc = json.dumps([outcome(t) for t in batch], sort_keys=True).encode()
        out[f"texts {lo}-{lo + len(batch) - 1}"] = hashlib.sha256(doc).hexdigest()
    return out


def test_parse_outcomes_match_the_recorded_digests():
    texts = corpus()
    assert len(texts) > 8_000
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = batch_digests(texts)
    assert list(got) == list(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"parse outcomes differ from the recorded ones in {moved}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(batch_digests(corpus()), indent=1) + "\n", encoding="utf-8")
