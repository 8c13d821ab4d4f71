"""Spatial self-join algorithms.

Processing one tick of a behavioral simulation is "similar to a spatial
self-join": each agent is joined with every agent inside its visible region.
The paper's single-node experiments compare two strategies, and so does this
module:

* :func:`nested_loop_self_join` — the un-indexed quadratic scan (the
  "BRACE - no indexing" series of Figures 3 and 4), kept as the oracle every
  indexed result is checked against.
* the columnar grid of :mod:`repro.spatial.columnar` — one batched range
  query per tick over a position snapshot (the "BRACE - indexing" series).

Both return, for each probe item, the list of items falling inside its query
box; :func:`neighbor_lists` is a radius-based convenience wrapper.  The
semantic entry points (:func:`visible_region_self_join`,
:func:`neighbor_lists`) report matches in item order; their columnar twins
are :func:`~repro.spatial.columnar.vectorized_self_join` and
:func:`~repro.spatial.columnar.vectorized_neighbor_lists`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.spatial.bbox import BBox


def nested_loop_self_join(
    items: Sequence[Any],
    key: Callable[[Any], Sequence[float]],
    query_box: Callable[[Any], BBox],
) -> dict[int, list[Any]]:
    """Quadratic self-join: test every pair of items.

    Returns a mapping from the index of each probe item in ``items`` to the
    list of items whose point falls inside ``query_box(probe)``, in item
    order.  The probe item itself is included when it falls inside its own
    box, mirroring the semantics of a BRASIL ``foreach`` over the full extent.
    """
    points = [tuple(map(float, key(item))) for item in items]
    result: dict[int, list[Any]] = {}
    for probe_index, probe in enumerate(items):
        box = query_box(probe)
        matches = []
        for candidate_index, candidate in enumerate(items):
            if box.contains_point(points[candidate_index]):
                matches.append(candidate)
        result[probe_index] = matches
    return result


def visible_region_self_join(agents: Sequence[Any]) -> dict[int, list[Any]]:
    """Join every agent with the agents inside its *declared* visible region.

    This is the σ_V join of the BRASIL semantics: the query box of each probe
    agent is its ``visible_region()`` (derived from the script's
    ``#range``/``#visibility`` annotations), so the join is driven by the
    declarations rather than an ad-hoc radius.  Agents with unbounded
    visibility match the whole extent.  The probe agent itself is excluded
    from its matches; matches come back in agent order.
    """
    # Box covering every agent position, for unbounded-visibility probes;
    # computed at most once per join, not per probe.
    global_box: list[BBox | None] = [None]

    def query_box(agent: Any) -> BBox:
        region = agent.visible_region()
        if region is not None:
            return region
        if global_box[0] is None:
            global_box[0] = BBox.of_points(other.position() for other in agents)
        return global_box[0]

    joined = nested_loop_self_join(agents, lambda agent: agent.position(), query_box)
    return {
        probe_index: [match for match in matches if match is not agents[probe_index]]
        for probe_index, matches in joined.items()
    }


def neighbor_lists(
    items: Sequence[Any],
    key: Callable[[Any], Sequence[float]],
    radius: float,
    include_self: bool = False,
) -> dict[int, list[Any]]:
    """Radius-based neighbour lists for every item, in item order.

    The probe item is excluded from its own neighbour list unless
    ``include_self`` is True.
    """
    points = [tuple(map(float, key(item))) for item in items]
    # One conversion per item, looked up per candidate pair — the candidate
    # points must not be rebuilt inside the quadratic pruning loop.
    point_of: dict[int, tuple] = {id(item): point for item, point in zip(items, points)}
    radius_sq = radius * radius
    joined = nested_loop_self_join(
        items, key, lambda item: BBox.around(point_of[id(item)], radius)
    )
    result: dict[int, list[Any]] = {}
    for probe_index, candidates in joined.items():
        center = points[probe_index]
        matches = []
        for candidate in candidates:
            if candidate is items[probe_index] and not include_self:
                continue
            point = point_of[id(candidate)]
            if sum((p - c) ** 2 for p, c in zip(point, center)) <= radius_sq:
                matches.append(candidate)
        result[probe_index] = matches
    return result
