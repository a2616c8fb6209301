"""Command line surface: exit codes, formats, determinism, round trips.

The twelve fixture goldens ``tests/goldens/NAME.FUNCTION.json`` hold the
bytes of ``GOLDEN_RUNS``.  Re-record them, only for a change meant to alter
that output, with

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from featflow import firstfollow as ff
from featflow.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_MISMATCH, EXIT_PIPE, EXIT_USAGE, main
from featflow.firstfollow import Pair, compute_first, pair_equivalent
from featflow.grammar import parse_category_sequence, parse_grammar
from support import fixture_path

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_first_text_output_and_exit_zero(capsys):
    code, out, err = run(capsys, "first", fixture_path("fig1.gr"))
    assert code == 0
    assert "pairs (8):" in out
    assert "(np[] , ε)" in out
    assert "restrictor: slash" in out


def test_missing_file_diagnostic(capsys):
    code, out, err = run(capsys, "first", "missing.gr")
    assert code == 3
    assert "cannot read" in err


def test_file_not_valid_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.gr"
    path.write_bytes("S[] -> a[].\n% café\n".encode("latin-1"))
    code, out, err = run(capsys, "first", str(path))
    assert code == 3
    assert out == ""
    assert err == f"{path}: cannot read: not valid UTF-8 at byte offset 17\n"


def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path):
    text = Path(fixture_path("fig1.gr")).read_text(encoding="utf-8")
    plain = json.loads(run(capsys, "first", fixture_path("fig1.gr"), "--format", "json")[1])
    marked = tmp_path / "bom.gr"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    code, out, err = run(capsys, "first", str(marked), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["pairs"] == plain["pairs"]
    # a mark anywhere else is a character of the text; a byte offset counts the mark
    for body, where in (("\ufeff\ufeff" + text, "1:1"), (text + "\ufeff", f"{text.count(chr(10)) + 1}:1")):
        marked.write_text(body, encoding="utf-8")
        code, out, err = run(capsys, "first", str(marked))
        assert (code, out) == (EXIT_INPUT, "")
        assert f"bom.gr:{where}: error: unknown syntax: unexpected character '\\ufeff'" in err, err
    marked.write_bytes(b"\xef\xbb\xbfS[] -> a[].\xff\n")
    code, out, err = run(capsys, "first", str(marked))
    assert err == f"{marked}: cannot read: not valid UTF-8 at byte offset 14\n"


def test_parse_error_exit_code_and_location(capsys, tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("S -> ]\n")
    code, out, err = run(capsys, "first", str(bad))
    assert code == 3
    assert f"{bad}:1:" in err


def test_validation_error_exit_code(capsys, tmp_path):
    gr = tmp_path / "dangling.gr"
    gr.write_text("S -> NP[] PP[].\nNP -> det[ter=+].\n")
    code, out, err = run(capsys, "first", str(gr))
    assert code == 4
    assert "daughter 2" in err


def test_validate_command(capsys, tmp_path):
    code, out, err = run(capsys, "validate", fixture_path("fig1.gr"))
    assert code == 0 and "ok" in out
    gr = tmp_path / "dangling.gr"
    gr.write_text("S -> NP[] PP[].\nNP -> det[ter=+].\n")
    code, out, err = run(capsys, "validate", str(gr))
    assert code == 4


def test_limit_exit_code_and_stats_report(capsys):
    code, out, err = run(capsys, "first", fixture_path("guard.gr"))
    assert code == 5
    assert "no fixpoint within 100 iterations" in err
    assert "iteration 100" in err


def test_restrictor_override_enables_fixpoint(capsys):
    code, out, err = run(capsys, "first", fixture_path("guard.gr"), "--restrictor", "orth")
    assert code == 0
    assert "pairs (2):" in out


def test_empty_restrictor_override_drops_epsilon_route(capsys):
    code, out, err = run(capsys, "first", fixture_path("fig1.gr"), "--restrictor", "")
    assert code == 0
    assert "pairs (7):" in out
    assert "(s[] , vtra" not in out
    assert "(s[] , det[ter=+])" in out


def test_string_first_examples(capsys):
    code, out, _ = run(capsys, "string-first", fixture_path("fig1.gr"), "NP[] NP[] VP[]")
    assert code == 0
    assert "pairs (2):" in out and "ε" not in out.split("pairs")[1]
    code, out, _ = run(capsys, "string-first", fixture_path("fig1.gr"), "Det[]")
    assert code == 0 and "pairs (1):" in out
    code, out, _ = run(capsys, "string-first", fixture_path("fig1.gr"), "NP[]")
    assert code == 0 and "pairs (2):" in out and ", ε)" in out


def test_string_first_unknown_category_exit(capsys):
    code, out, err = run(capsys, "string-first", fixture_path("fig1.gr"), "zzz[]")
    assert code == 6
    assert "unknown category" in err


def test_string_first_bad_string_is_input_error(capsys):
    code, out, err = run(capsys, "string-first", fixture_path("fig1.gr"), "NP[")
    assert code == 3


@pytest.mark.parametrize(
    "text,argv,where,shown",
    [
        ("S[] -> $1:a. [] -> t[ter=+].\n", ("follow",), "atom.gr:1:8", "a"),  # a daughter
        ("$1:a -> t[ter=+].\n", ("first",), "atom.gr:1:1", "a"),  # a mother
        ("S[] -> $1 X[f=$1:a].\nX[f=a] -> .\n", ("validate",), "atom.gr:1:8", "a"),  # an atom bound later
        ("S[] -> t[ter=+].\n", ("string-first", "$1:+ t[ter=+]"), "<string>:1:1", "+"),  # a string position
    ],
    ids=["daughter", "mother", "bound-later", "string-position"],
)
def test_a_category_that_is_an_atom_is_an_input_error(capsys, tmp_path, text, argv, where, shown):
    gr = tmp_path / "atom.gr"
    gr.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(gr), *argv[1:])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.count("\n") == 1
    assert err.endswith(f"{where}: error: a category is an AVM, not the atom {shown}\n"), err


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["bench"]) == 2
    assert main(["first", "x.gr", "--mode", "bogus"]) == 2


def test_follow_output_contains_end_marker(capsys):
    code, out, _ = run(capsys, "follow", fixture_path("cf-intro.gr"))
    assert code == 0
    assert ", $)" in out


def test_json_output_is_byte_identical_across_runs(capsys):
    one = run(capsys, "first", fixture_path("fig1.gr"), "--format", "json", "--stats")
    two = run(capsys, "first", fixture_path("fig1.gr"), "--format", "json", "--stats")
    assert one == two
    doc = json.loads(one[1])
    assert doc["grammar"]["rules"] == 5
    assert doc["mode"] == "active"
    assert len(doc["pairs"]) == 8
    assert doc["stats"][-1]["additions"] == 0


def test_json_pairs_round_trip_to_equivalent_structures(capsys):
    code, out, _ = run(capsys, "first", fixture_path("fig1.gr"), "--format", "json")
    doc = json.loads(out)
    g = parse_grammar(Path(fixture_path("fig1.gr")).read_text(encoding="utf-8"), name="fig1.gr")
    first, _ = compute_first(g)
    reparsed = []
    for item in doc["pairs"]:
        if item["epsilon"]:
            roots = parse_category_sequence(" ".join(item["lhs"]))
            reparsed.append(Pair(tuple(roots), first.pairs[5].rhs))
        else:
            roots = parse_category_sequence(" ".join(item["lhs"] + [item["rhs"]]))
            reparsed.append(Pair(tuple(roots[:-1]), roots[-1]))
    assert len(reparsed) == len(first.pairs)
    for p, q in zip(reparsed, first.pairs):
        assert pair_equivalent(p, q)


def test_follow_json_round_trip(capsys):
    code, out, _ = run(capsys, "follow", fixture_path("agr.gr"), "--format", "json")
    doc = json.loads(out)
    for item in doc["pairs"]:
        texts = item["lhs"] + ([item["rhs"]] if not item["epsilon"] else [])
        roots = parse_category_sequence(" ".join(texts))
        assert len(roots) == len(texts)


def test_bench_reports_ratio_and_passes(capsys):
    code, out, _ = run(capsys, "bench", fixture_path("fig1.gr"), fixture_path("bench13.gr"))
    assert code == 0
    assert "attempt ratio (naive/active):" in out
    assert out.count("[PASS]") == 2
    assert "active first iterations:" in out


def test_bench_json(capsys):
    code, out, _ = run(capsys, "bench", fixture_path("bench21.gr"), "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["equivalence"] == {"first": True, "follow": True}
    assert docs[0]["attempt_ratio"] > 1.0
    rows = docs[0]["stats"]["first"]["active"]["iterations"]
    assert rows[-1]["considered"] < 0.25 * rows[-1]["total"]


def strict_json(text):
    """``json.loads`` that refuses ``Infinity``, ``-Infinity`` and ``NaN``."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_bench_json_is_strict_when_the_active_mode_makes_no_attempts(capsys, tmp_path):
    gr = tmp_path / "empty.gr"
    gr.write_text("S[] -> .\n")
    code, out, _ = run(capsys, "bench", str(gr), "--format", "json")
    assert code == 0
    doc = strict_json(out)[0]
    assert doc["attempt_ratio"] is None and doc["stats"]["first"]["active"]["attempts"] == 0
    assert doc["event_ratio"] == 1.0
    code, out, _ = run(capsys, "bench", str(gr))
    assert code == 0 and "attempt ratio (naive/active): n/a  event ratio: 1.00" in out
    code, out, _ = run(capsys, "bench", fixture_path("bench21.gr"), "--format", "json")
    assert code == 0 and strict_json(out)[0]["attempt_ratio"] == 8.008


@pytest.mark.parametrize("limit,function", [("20", "FIRST"), ("40", "FOLLOW")])
def test_limit_message_names_the_function(capsys, limit, function):
    code, _, err = run(capsys, "follow", fixture_path("bench21.gr"), "--max-pairs", limit)
    assert code == EXIT_LIMIT
    assert err.splitlines()[0].endswith(f"bench21.gr: {function} has no fixpoint within {limit} pairs")


def test_pair_guard_stop_reports_the_rows_so_far(capsys):
    """The pair guard stops FOLLOW inside a visit of iteration 4; that row
    counts the whole of each range the visit began to read."""
    code, out, err = run(capsys, "follow", fixture_path("bench21.gr"), "--max-pairs", "41", "--stats")
    assert code == EXIT_LIMIT and out == ""
    lines = err.splitlines()
    assert "FOLLOW has no fixpoint within 41 pairs" in lines[0]
    assert lines[-1].endswith("bench21.gr: iteration 4: considered 3.1, total 42, attempts 1")


def test_max_iterations_flag(capsys):
    code, out, err = run(
        capsys, "first", fixture_path("guard.gr"), "--max-iterations", "7"
    )
    assert code == 5
    assert "within 7 iterations" in err


def test_mode_flag_naive_matches_active(capsys):
    _, active, _ = run(capsys, "first", fixture_path("bench13.gr"))
    _, naive, _ = run(capsys, "first", fixture_path("bench13.gr"), "--mode", "naive")
    strip = lambda s: s.replace("mode: naive", "mode: active")
    assert strip(naive) == active


@pytest.mark.parametrize("flag", ["--max-iterations", "--max-pairs"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_guard_flags_below_one_are_usage_errors(capsys, flag, value):
    code, out, err = run(capsys, "first", fixture_path("fig1.gr"), flag, value)
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err


def test_a_malformed_restrictor_is_a_usage_error(capsys):
    code, out, err = run(capsys, "first", fixture_path("fig1.gr"), "--restrictor", "a..b")
    assert code == 2
    assert out == ""
    assert err == "--restrictor: malformed feature path 'a..b' at character 1\n"


def test_a_guard_flag_that_is_not_an_integer_is_a_usage_error(capsys):
    code, out, err = run(capsys, "first", fixture_path("fig1.gr"), "--max-pairs", "x")
    assert code == 2
    assert out == ""
    assert "not an integer" in err


def test_bench_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(ff, "pair_sets_equivalent", lambda a, b: False)
    code, out, _ = run(capsys, "bench", fixture_path("fig1.gr"))
    assert code == EXIT_MISMATCH == 1
    assert "[FAIL]" in out
    code, out, _ = run(capsys, "bench", fixture_path("fig1.gr"), "--format", "json")
    assert code == EXIT_MISMATCH
    assert json.loads(out)[0]["equivalence"] == {"first": False, "follow": False}


@pytest.mark.parametrize("flag", [["--mode", "naive"], ["--stats"]])
def test_bench_rejects_flags_it_would_ignore(capsys, flag):
    code, out, err = run(capsys, "bench", fixture_path("fig1.gr"), *flag)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_string_first_rejects_stats_it_would_ignore(capsys):
    # FIRST of a string is the same from either mode's FIRST set, so
    # string-first takes no --mode
    for flag in (["--stats"], ["--mode", "naive"]):
        code, out, err = run(capsys, "string-first", fixture_path("fig1.gr"), "NP[]", *flag)
        assert code == 2, flag
        assert out == "", flag
        assert "unrecognized arguments" in err, flag


def test_bench_reports_filtered_attempts(capsys):
    code, out, _ = run(capsys, "bench", fixture_path("bench21.gr"), "--format", "json")
    assert code == 0
    for func in ("first", "follow"):
        for stats in json.loads(out)[0]["stats"][func].values():
            assert 0 < stats["filtered"] < stats["attempts"]
    code, out, _ = run(capsys, "bench", fixture_path("bench21.gr"))
    assert out.count(" filtered ") == 4


# The bytes pin the output order of the pair sets and the attempt counts.
GOLDEN_RUNS = [
    (name, function)
    for name in ("fig1", "cf-intro", "agr", "guard", "bench13", "bench21")
    for function in ("first", "follow")
]
FIXTURES = Path(fixture_path("fig1.gr")).parent


def golden_argv(name, function):
    """The command line of a golden, run from ``FIXTURES``: guard.gr only
    reaches a fixpoint with ``orth`` restricted."""
    extra = ["--restrictor", "orth"] if name == "guard" else []
    return [function, f"{name}.gr", "--format", "json", "--stats", *extra]


@pytest.mark.parametrize("name,function", GOLDEN_RUNS)
def test_json_output_matches_golden_bytes(capsys, monkeypatch, name, function):
    monkeypatch.chdir(FIXTURES)
    code, out, _ = run(capsys, *golden_argv(name, function))
    assert code == 0
    assert out.encode("utf-8") == (GOLDENS / f"{name}.{function}.json").read_bytes()


def _featflow(*argv, **how):
    """Run the CLI on ``argv`` (str or bytes) in a child process, as
    ``_python`` runs it."""
    return _python("-m", "featflow", *argv, **how)


def _python(*args, hashseed="0", encoding="utf-8", stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run Python on ``args`` in ``FIXTURES``, with this checkout's package,
    under ``PYTHONIOENCODING`` ``encoding``, or with it unset when None."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env.pop("PYTHONIOENCODING", None)
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    env.pop("PYTHONUNBUFFERED", None)  # the streams buffer as they do by default
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=FIXTURES,
        env=env,
        stdout=stdout,
        stderr=stderr,
        timeout=120,
    )


# Each fixture's FIRST and FOLLOW (guard.gr unrestricted, so that it stops
# at its iteration guard), bench21.gr's pair guard stopping inside a FIRST
# visit and inside a FOLLOW visit, a string query with an empty-string
# pair, and bench.
HASH_SEED_RUNS = [
    *([function, f"{name}.gr", "--format", "json", "--stats"] for name, function in GOLDEN_RUNS),
    ["first", "bench21.gr", "--max-pairs", "20", "--format", "json", "--stats"],
    ["follow", "bench21.gr", "--max-pairs", "41", "--format", "json", "--stats"],
    ["string-first", "fig1.gr", "NP[slash=NP[]]", "--format", "json"],
    ["bench", "bench21.gr", "--format", "json"],
]

# runs each command line of the JSON list argv[1] through ``main`` and
# writes [exit code, stdout, stderr] of each as JSON
RUN_EACH = """
import contextlib, io, json, sys
from featflow.cli import main

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()

json.dump([run(argv) for argv in json.loads(sys.argv[1])], sys.stdout)
"""


def _without_wall_times(doc):
    if isinstance(doc, dict):
        return {k: _without_wall_times(v) for k, v in doc.items() if k != "wall_time"}
    return [_without_wall_times(v) for v in doc] if isinstance(doc, list) else doc


def test_json_output_is_independent_of_the_hash_seed():
    """Pairs, iteration rows, attempt counts, diagnostics and exit codes are
    the same under two hash seeds, one child process each; bench's
    ``wall_time`` measurements are dropped."""
    seeded = []
    for seed in ("0", "1"):
        proc = _python("-c", RUN_EACH, json.dumps(HASH_SEED_RUNS), hashseed=seed)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        code, out, err = results[-1]
        results[-1] = code, _without_wall_times(json.loads(out)), err
        seeded.append(results)
    assert seeded[0] == seeded[1]
    stops = ["guard.gr" in argv or "--max-pairs" in argv for argv in HASH_SEED_RUNS]
    assert [code for code, _, _ in seeded[0]] == [EXIT_LIMIT if stop else 0 for stop in stops]
    follow = HASH_SEED_RUNS.index(golden_argv("bench21", "follow"))
    assert seeded[0][follow][1].encode("utf-8") == (GOLDENS / "bench21.follow.json").read_bytes()
    string = json.loads(seeded[0][-2][1])
    assert [item["epsilon"] for item in string["pairs"]].count(True) == 1


def test_python_dash_m_runs_the_cli():
    proc = _featflow("first", "fig1.gr")
    assert proc.returncode == 0, proc.stderr
    assert b"pairs (8):" in proc.stdout


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, encoding):
    """Text output with its ε, and JSON with a quoted non-ASCII atom, are
    the UTF-8 bytes under a stdout encoding that cannot write them."""
    grammar = tmp_path / "accent.gr"
    grammar.write_text('S[] -> X[f="été"].\nX[f=$1] -> a[ter=+, f=$1].\n', encoding="utf-8")
    for argv in (("first", "fig1.gr"), ("follow", str(grammar), "--format", "json")):
        utf8, other = _featflow(*argv), _featflow(*argv, encoding=encoding)
        assert (other.returncode, other.stderr) == (0, b"")
        assert other.stdout == utf8.stdout
    assert "été".encode("utf-8") in utf8.stdout


@pytest.mark.parametrize("encoding", ["utf-8", None])
def test_a_category_string_that_is_not_utf8_is_unreadable_input(encoding):
    proc = _featflow("string-first", "fig1.gr", b'NP[f="\xff"]', "--format", "json", encoding=encoding)
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT, b"")
    assert proc.stderr == b"<string>: error: not valid UTF-8 at byte offset 6\n"


@pytest.mark.parametrize("encoding", ["utf-8", None])
def test_a_grammar_path_that_is_not_utf8_is_printed_as_utf8(tmp_path, encoding):
    path = os.path.join(os.fsencode(tmp_path), b"g\xff.gr")
    with open(path, "wb") as out:
        out.write(Path(fixture_path("fig1.gr")).read_bytes())
    proc = _featflow("first", path, "--format", "json", encoding=encoding)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.decode("utf-8"))
    assert doc["grammar"]["file"] == os.fsdecode(tmp_path) + "/g\\xff.gr"


@pytest.mark.parametrize("encoding", ["utf-8", None])
def test_a_usage_error_quotes_a_byte_that_is_not_utf8_as_hex(encoding):
    for argv, message in (
        (("first", "fig1.gr", "--restrictor", b"a\xff"), b"--restrictor: malformed feature path 'a\\xff' at character 1\n"),
        (("first", "fig1.gr", "--max-pairs", b"1\xff"), b": error: argument --max-pairs: not an integer: '1\\xff'\n"),
        (("first", "fig1.gr", "--format", b"x\xff"), b": error: argument --format: invalid choice: 'x\\xff' (choose"),
        ((b"fi\xff", "fig1.gr"), b": error: argument command: invalid choice: 'fi\\xff' (choose"),
    ):
        proc = _featflow(*argv, encoding=encoding)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, b""), argv
        assert message in proc.stderr and b"\\udc" not in proc.stderr, proc.stderr


def test_deeply_nested_category_exits_3_without_a_traceback(tmp_path):
    deep = tmp_path / "deep.gr"
    deep.write_text("S[] -> x[f=" * 3000 + "a" + "]" * 3000 + ".\n", encoding="utf-8")
    proc = _featflow("first", str(deep))
    assert proc.returncode == 3
    assert proc.stdout == b""
    err = proc.stderr.decode("utf-8")
    assert "Traceback" not in err
    assert err.count("\n") == 1 and str(deep) in err


@pytest.mark.parametrize("argv", [("bench", "bench21.gr"), ("follow", "bench21.gr", "--format", "json")])
def test_stdout_closed_early_exits_quietly(argv):
    """A reader that closes the pipe before the output is written, as
    ``| head`` can, gets the documented exit status and no traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _featflow(*argv, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_PIPE
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv,code",
    [(("follow", "bench21.gr", "--max-pairs", "41"), EXIT_LIMIT), (("first", "/nonexistent.gr"), EXIT_INPUT)],
)
def test_stderr_closed_before_a_failure_message_exits_quietly(argv, code):
    """A failure whose message cannot be written, since the reader of
    stderr is gone, gets the documented exit status, not 1 from a
    traceback; with stderr open the same run fails with ``code``."""
    assert _featflow(*argv).returncode == code
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _featflow(*argv, stderr=write)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_PIPE
    assert proc.stdout == b""


if __name__ == "__main__":
    os.chdir(FIXTURES)
    for name, function in GOLDEN_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(golden_argv(name, function))
        if code:
            sys.exit(f"{name} {function}: exit {code}")
        (GOLDENS / f"{name}.{function}.json").write_bytes(out.getvalue().encode("utf-8"))
