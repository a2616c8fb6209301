"""tools/bench_pairs.py: statistics, verdict and moved counts on canned run outputs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "op_ms", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]


def result(op_ms, correct=True, attempted=100):
    """The last line of a perfbench run, as bench_pairs.run returns it."""
    metrics = {"op_ms": {"value": op_ms}, "ops_per_s": {"value": 1000 / op_ms}} if correct else {}
    return {"seed": 1, "trace": 0, "correct": correct, "attempted": attempted, "metrics": metrics}


def test_quartiles_interpolate_and_take_one_value_as_all_three():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert bench_pairs.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_a_clear_gain_holds_on_both_kinds_of_metric():
    base = [10.0, 10.2, 9.9, 10.1, 10.3, 9.8, 10.0, 10.4, 10.1, 9.9]
    pairs = [(result(b), result(b * 0.9)) for b in base]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["op_ms"]["wins"] == 10 and summary["op_ms"]["claim_holds"]
    assert summary["ops_per_s"]["wins"] == 10 and summary["ops_per_s"]["claim_holds"]
    assert summary["op_ms"]["base"]["runs"] == base
    assert summary["op_ms"]["change"]["median"] == pytest.approx(0.9 * summary["op_ms"]["base"]["median"])


def test_a_claim_needs_nine_wins_in_ten():
    base = [10.0] * 10
    change = [9.0] * 8 + [10.5, 11.0]
    verdict = bench_pairs.compare(base, change, "lower")
    assert verdict["wins"] == 8 and not verdict["claim_holds"]
    change[8] = 9.5
    verdict = bench_pairs.compare(base, change, "lower")
    assert verdict["wins"] == 9 and verdict["claim_holds"]


def test_a_claim_needs_a_median_gap_wider_than_the_base_spread():
    base = [9.0, 9.5, 10.0, 10.5, 11.0, 9.0, 9.5, 10.0, 10.5, 11.0]  # IQR 1.0
    # every pair won, by a gap smaller than the base's spread
    verdict = bench_pairs.compare(base, [b - 0.5 for b in base], "lower")
    assert verdict["wins"] == 10 and not verdict["claim_holds"]
    verdict = bench_pairs.compare(base, [b - 1.5 for b in base], "lower")
    assert verdict["claim_holds"]
    # a change that is worse never holds, whatever the gap
    verdict = bench_pairs.compare(base, [b + 5 for b in base], "lower")
    assert verdict["wins"] == 0 and not verdict["claim_holds"]


def test_a_claim_needs_ten_pairs():
    base = [10.0, 10.2, 9.9, 10.1, 10.3, 9.8, 10.0, 10.4, 10.1, 9.9]
    pairs = [(result(b), result(b * 0.5)) for b in base]
    for n in (1, 2, 9):
        summary = bench_pairs.summarize(pairs[:n], END_TO_END)
        assert summary["op_ms"]["wins"] == n and not summary["op_ms"]["claim_holds"]
        line = bench_pairs.report_lines("w", summary, {"base": 100, "change": 200}, [])[0]
        assert line.endswith(f"change won {n}/{n}  too few pairs for a verdict")
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["op_ms"]["claim_holds"]
    line = bench_pairs.report_lines("w", summary, {"base": 100, "change": 200}, [])[0]
    assert line.endswith("change won 10/10  claim holds")


def test_an_incorrect_run_on_either_side_fails_the_summary():
    good = [(result(10.0), result(9.0)) for _ in range(3)]
    assert bench_pairs.summarize(good, END_TO_END) is not None
    assert bench_pairs.summarize(good + [(result(10.0, correct=False), result(9.0))], END_TO_END) is None
    assert bench_pairs.summarize(good + [(result(10.0), result(9.0, correct=False))], END_TO_END) is None


def test_ops_run_is_each_sides_median_attempted():
    pairs = [(result(10.0, attempted=a), result(9.0, attempted=c)) for a, c in ((100, 110), (90, 130), (95, 120))]
    assert bench_pairs.ops_run(pairs) == {"base": 95, "change": 120}


def test_report_lines_give_medians_quartiles_wins_and_verdict():
    pairs = [(result(10.0), result(8.0)), (result(12.0), result(9.0))] * 5
    summary = bench_pairs.summarize(pairs, END_TO_END)
    lines = bench_pairs.report_lines("w", summary, {"base": 100, "change": 120}, [])
    assert lines[0] == "w op_ms: base 11 [10, 12]  change 8.5 [8, 9]  change won 10/10  claim holds"
    assert lines[1].startswith("w ops_per_s: ") and lines[1].endswith("change won 10/10  claim holds")
    assert lines[2:] == ["w: 0 per-layer counts moved"]
    summary = bench_pairs.summarize(pairs[:9] + [(result(10.0), result(11.0))], END_TO_END)
    line = bench_pairs.report_lines("w", summary, {"base": 100, "change": 120}, [])[0]
    assert line.endswith("change won 9/10  claim does not hold")


def test_report_lines_put_the_op_counts_beside_peak_rss_and_list_moved_counts():
    end_to_end = [{"name": "peak_rss_mb", "better": "lower"}, {"name": "op_ms", "better": "lower"}]
    run = {"correct": True, "attempted": 0, "metrics": {"peak_rss_mb": {"value": 24.0}, "op_ms": {"value": 1.0}}}
    summary = bench_pairs.summarize([(run, run)], end_to_end)
    moved = ["w fs.restrict_many.calls: 6846 -> 6063"]
    lines = bench_pairs.report_lines("w", summary, {"base": 20000, "change": 24000.5}, moved)
    assert lines[0].startswith("w peak_rss_mb: base 24 ")
    assert lines[1] == "w ops per run: base 20000  change 24000.5"
    assert lines[2].startswith("w op_ms: ")
    assert lines[3:] == [*moved, "w: 1 per-layer counts moved"]


def metrics(values):
    """A traced run's per-layer metrics: name -> (value, unit)."""
    return {m: {"value": v, "unit": u} for m, (v, u) in values.items()}


def test_only_counts_that_moved_are_listed():
    base = metrics({
        "a.calls": (3, "count"), "a.self_s": (0.1, "s"), "b.calls": (5, "count"), "gone.calls": (2, "count"),
    })
    change = metrics({
        "a.calls": (3, "count"), "a.self_s": (0.2, "s"), "b.calls": (6, "count"), "c.calls": (1, "count"),
        "a.ratio": (0.5, "ratio"),
    })
    assert bench_pairs.count_differences("w", base, change) == [
        "w b.calls: 5 -> 6",
        "w c.calls: absent -> 1",
        "w gone.calls: 2 -> absent",
    ]
    assert bench_pairs.count_differences("w", change, change) == []
