"""``ctx.rng`` and the vectorized neighbour paths without per-call overhead.

* ``ctx.rng(agent)`` returns a generator built on first use: its draws are
  bit-identical to :func:`agent_rng`'s for the same ``(seed, tick, id)`` on
  the query and the update context, and an agent that never draws never
  seeds one.
* ``neighbors`` / ``visible`` serve every probe of a tick from per-row runs
  of one batch join.  They must return exactly the lists, and charge
  exactly the ``work_units`` / ``index_probes``, of the previous per-call
  path, kept below as :func:`per_call_neighbors` / :func:`per_call_visible`:
  the split batch, a NumPy self filter and :meth:`PointSet.take` per call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.context as context_module
from repro.core.agent import Agent
from repro.core.context import QueryContext, UpdateContext, agent_rng
from repro.core.errors import VisibilityError
from repro.core.fields import StateField
from repro.spatial.columnar import batch_neighbor_lists


class Dot(Agent):
    """Visibility 3 in x and 2 in y: the radius check must name the y bound."""

    x = StateField(0.0, spatial=True, visibility=3.0)
    y = StateField(0.0, spatial=True, visibility=2.0)


UPDATE_SEED_OFFSET = 0x5BD1E995


# ----------------------------------------------------------------------
# Random streams
# ----------------------------------------------------------------------
def draws(generator):
    """Several draw kinds, each repeated, as exact Python values."""
    return (
        generator.random(),
        generator.random(3).tolist(),
        generator.normal(),
        generator.normal(1.0, 2.0, size=2).tolist(),
        int(generator.integers(0, 1000)),
        generator.integers(-5, 5, size=3).tolist(),
        generator.random(),
    )


agent_ids = st.integers(0, 2**31 - 1) | st.tuples(
    st.integers(0, 2**31 - 1), st.integers(0, 2**16)
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**40), tick=st.integers(0, 10**6), agent_id=agent_ids)
def test_lazy_rng_draws_match_agent_rng(seed, tick, agent_id):
    agent = Dot(agent_id=agent_id)
    query = QueryContext([agent], tick=tick, seed=seed)
    update = UpdateContext(tick=tick, seed=seed)
    assert draws(query.rng(agent)) == draws(agent_rng(seed, tick, agent_id))
    assert draws(update.rng(agent)) == draws(
        agent_rng(seed ^ UPDATE_SEED_OFFSET, tick, agent_id)
    )


def test_unused_rng_never_builds_a_generator(monkeypatch):
    calls = []

    def counting_agent_rng(*key):
        calls.append(key)
        return agent_rng(*key)

    monkeypatch.setattr(context_module, "agent_rng", counting_agent_rng)
    agents = [Dot(agent_id=index) for index in range(4)]
    query = QueryContext(agents, tick=3, seed=9)
    update = UpdateContext(tick=3, seed=9)
    unused = [query.rng(agent) for agent in agents] + [update.rng(agent) for agent in agents]
    assert calls == [] and len(unused) == 8

    used = query.rng(agents[1])
    first, second = used.random(), used.random()
    assert calls == [(9, 3, 1)]  # built once, on the first draw
    reference = agent_rng(9, 3, 1)
    assert (first, second) == (reference.random(), reference.random())


# ----------------------------------------------------------------------
# Neighbour and visibility probes
# ----------------------------------------------------------------------
def per_call_neighbors(context, agent, radius, include_self):
    """The previous path: ``(matches, work units)`` of one neighbour probe."""
    snapshot = context._ensure_snapshot()
    base = max(1, int(math.log2(len(context) + 1)))
    row = snapshot.row_of(agent)
    if row is None:
        rows = snapshot.scan_radius(agent.position(), radius)
        matches = [match for match in snapshot.take(rows) if include_self or match is not agent]
        return matches, base + len(rows)
    lists, examined = batch_neighbor_lists(snapshot, radius, include_self=True)
    rows = lists[row]
    if not include_self:
        rows = rows[rows != row]
    return snapshot.take(rows), base + int(examined[row])


def per_call_visible(context, agent, include_self):
    """The previous path: ``(matches, work units)`` of one visibility probe."""
    snapshot = context._ensure_snapshot()
    base = max(1, int(math.log2(len(context) + 1)))
    row = snapshot.row_of(agent)
    if row is None:
        region = agent.visible_region()
        rows = snapshot.scan_box(region.lows, region.highs)
        matches = [match for match in snapshot.take(rows) if include_self or match is not agent]
        return matches, base + len(rows)
    offsets, _, match_rows, examined = context._visible_csr()
    rows = match_rows[offsets[row] : offsets[row + 1]]
    if not include_self:
        rows = rows[rows != row]
    return snapshot.take(rows), base + int(examined[row])


coordinates = st.floats(-6.0, 6.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 2.0, 3.0])


def dots(points):
    return [Dot(agent_id=index, x=x, y=y) for index, (x, y) in enumerate(points)]


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=30),
    outsider=st.tuples(coordinates, coordinates),
)
def test_probes_match_the_per_call_path(points, outsider):
    agents = dots(points)
    outside = Dot(agent_id=10**6, x=outsider[0], y=outsider[1])
    context = QueryContext(agents, tick=0, seed=0, spatial_backend="vectorized")
    oracle = QueryContext(agents, tick=0, seed=0, spatial_backend="vectorized")
    expected_work = 0
    probes = agents + [outside]
    # Two radii in one tick, both self variants, interleaved per probe.
    for radius, include_self in ((2.0, False), (1.25, True), (2.0, True), (1.25, False)):
        for probe in probes:
            matches, work = per_call_neighbors(oracle, probe, radius, include_self)
            assert context.neighbors(probe, radius, include_self=include_self) == matches
            expected_work += work
    for include_self in (False, True):
        for probe in probes:
            matches, work = per_call_visible(oracle, probe, include_self)
            assert context.visible(probe, include_self=include_self) == matches
            expected_work += work
    assert context.work_units == expected_work
    assert context.index_probes == 6 * len(probes)


@pytest.mark.parametrize("backend", ["python", "vectorized"])
def test_radius_check_fires_just_above_the_smallest_bound(backend):
    agents = dots([(0.0, 0.0), (1.0, 1.0)])
    context = QueryContext(agents, tick=0, seed=0, spatial_backend=backend)
    limit = 2.0 * (1 + 1e-9)
    context.neighbors(agents[0], limit)  # at the bound: allowed
    with pytest.raises(VisibilityError) as error:
        context.neighbors(agents[0], np.nextafter(limit, math.inf))
    assert "exceeds its visibility bound 2.0" in str(error.value)
    unchecked = QueryContext(
        agents, tick=0, seed=0, spatial_backend=backend, check_visibility=False
    )
    assert unchecked.neighbors(agents[0], 50.0) == [agents[1]]
