"""tools/bench_trajectory.py: comparing per-layer counts with an earlier file."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def report(**workloads):
    """A BENCH file holding only per-layer metrics: name -> (value, unit)."""
    return {
        "workloads": {
            name: {"per_layer": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
            for name, metrics in workloads.items()
        }
    }


def test_only_counts_that_moved_are_listed():
    old = report(
        w={"a.calls": (3, "count"), "a.self_s": (0.1, "s"), "b.calls": (5, "count"), "gone.calls": (2, "count")},
    )
    new = report(
        w={"a.calls": (3, "count"), "a.self_s": (0.2, "s"), "b.calls": (6, "count"), "c.calls": (1, "count")},
        fresh={"a.calls": (4, "count"), "a.ratio": (0.5, "ratio")},
    )
    assert bench_trajectory.count_differences(new, old) == [
        "w b.calls: 5 -> 6",
        "w c.calls: absent -> 1",
        "w gone.calls: 2 -> absent",
        "fresh a.calls: absent -> 4",
    ]
    assert bench_trajectory.count_differences(new, new) == []
