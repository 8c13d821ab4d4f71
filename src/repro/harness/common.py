"""Shared helpers for the experiment harness."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.api import RunResult, Simulation, TickEvent
from repro.brace.config import BraceConfig
from repro.core.world import World


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned text table.

    Numbers are formatted compactly; everything else with ``str``.
    """

    def render(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.3g}"
            return f"{value:.4g}"
        return str(value)

    rendered = [[render(value) for value in row] for row in rows]
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rendered)) if rendered else len(headers[column])
        for column in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)))
    return "\n".join(lines)


def speedup(reference: float, candidate: float) -> float:
    """``reference / candidate`` guarding against division by zero."""
    if candidate == 0:
        return float("inf") if reference > 0 else 1.0
    return reference / candidate


def run_brace(
    world: World,
    ticks: int,
    *,
    indexed: bool,
    workers: int = 1,
    non_local: bool = False,
    on_tick: Callable[[TickEvent], None] | None = None,
) -> RunResult:
    """Run ``world`` on BRACE for ``ticks`` ticks, with or without the grid.

    The figures' one configuration: the serial executor, one epoch for the
    whole run, no visibility checks and no load balancing.  ``indexed``
    picks the columnar grid (``spatial_backend="vectorized"``) over the
    linear scan (``"python"``); ``on_tick`` observes every tick.
    """
    config = BraceConfig(
        num_workers=workers,
        ticks_per_epoch=max(1, ticks),
        non_local_effects=non_local,
        spatial_backend="vectorized" if indexed else "python",
        check_visibility=False,
        load_balance=False,
    )
    with Simulation.from_agents(world, config=config) as session:
        if on_tick is not None:
            session.on_tick(on_tick)
        return session.run(ticks)
