"""tools/bench_trajectory.py: comparing the per-layer counts of two traced runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


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
    assert bench_trajectory.count_differences("w", base, change) == [
        "w b.calls: 5 -> 6",
        "w c.calls: absent -> 1",
        "w gone.calls: 2 -> absent",
    ]
    assert bench_trajectory.count_differences("w", change, change) == []
