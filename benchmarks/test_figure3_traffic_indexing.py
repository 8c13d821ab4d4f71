"""Benchmark: Figure 3 — traffic single-node time vs segment length.

BRACE on the linear scan grows roughly quadratically with segment length,
BRACE on the grid log-linearly, and the hand-coded baseline stays fastest —
the same ordering and growth shape the paper reports.
"""

from repro.harness import run_figure3


def test_figure3_indexing_vs_segment_length(once):
    result = once(
        run_figure3, segment_lengths=(500.0, 1000.0, 2000.0, 4000.0), ticks=8, seed=11
    )
    print()
    print(result.format_table())

    rows = result.rows()
    largest = rows[-1]
    # Ordering at the largest segment: MITSIM < BRACE-indexing < BRACE-no-indexing.
    assert largest["mitsim_seconds"] < largest["brace_index_seconds"]
    assert largest["brace_index_seconds"] < largest["brace_no_index_seconds"]

    # Growth: the un-indexed curve grows much faster than the indexed one.
    no_index_growth = rows[-1]["brace_no_index_seconds"] / rows[0]["brace_no_index_seconds"]
    index_growth = rows[-1]["brace_index_seconds"] / rows[0]["brace_index_seconds"]
    assert no_index_growth > 1.5 * index_growth
    # The same shape in the deterministic work units.
    no_index_work_growth = (
        rows[-1]["brace_no_index_work_units"] / rows[0]["brace_no_index_work_units"]
    )
    index_work_growth = rows[-1]["brace_index_work_units"] / rows[0]["brace_index_work_units"]
    assert no_index_work_growth > 1.5 * index_work_growth
