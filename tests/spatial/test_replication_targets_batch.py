"""The batch map-phase lookups against their scalar references.

``partition_of_batch`` and ``replication_targets_batch`` are what the tick
runs; ``partition_of`` and ``replication_targets`` are the documented
reference.  The properties here hold the batch forms to the scalar ones row
by row — on region faces, outside the world box (the open world-edge faces),
at ±inf — and pin the one case neither form answers: a NaN coordinate is a
typed :class:`PartitioningError` everywhere.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.brace import replication
from repro.core.agent import Agent
from repro.core.errors import PartitioningError
from repro.core.fields import StateField
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import GridPartitioning, StripPartitioning

LOW, HIGH = 0.0, 100.0
RADII = (0.0, 0.5, 3.0, 25.0, 60.0)


def bounds(dim: int) -> BBox:
    return BBox(((LOW, HIGH),) * dim)


@st.composite
def partitionings(draw):
    """A Grid or Strip partitioning of the ``[0, 100]^dim`` box, dims 1–3."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
        return GridPartitioning(bounds(dim), cells)
    axis = draw(st.integers(0, dim - 1))
    cuts = draw(st.lists(st.integers(1, 99), max_size=4, unique=True))
    return StripPartitioning(bounds(dim), axis, sorted(map(float, cuts)))


def face_values(partitioning, radii) -> list[float]:
    """Every coordinate that lies exactly on a visible-region face, plus the
    representable neighbours on either side."""
    values = []
    for part in partitioning.partitions():
        for (lo, hi), radius in zip(part.owned_region.intervals, radii):
            for face in (lo, hi, lo - radius, hi + radius):
                values += [face, math.nextafter(face, -math.inf), math.nextafter(face, math.inf)]
    return values


@st.composite
def cases(draw):
    partitioning = draw(partitionings())
    dim = partitioning.bounds.dim
    radii = tuple(draw(st.sampled_from(RADII)) for _ in range(dim))
    coordinate = st.one_of(
        st.sampled_from(face_values(partitioning, radii)),
        st.sampled_from([-math.inf, math.inf, -1e300, 1e300, -50.0, 150.0, -0.0]),
        st.floats(-150.0, 250.0, allow_nan=False),
    )
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=0, max_size=12))
    return partitioning, radii, points


def targets_of_row(partitioning, row) -> list[int]:
    ids = [part.partition_id for part in partitioning.partitions()]
    return [ids[column] for column in np.flatnonzero(row)]


class TestBatchEqualsScalar:
    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_replication_targets(self, case):
        partitioning, radii, points = case
        matrix = np.array(points, dtype=np.float64).reshape(len(points), partitioning.bounds.dim)
        mask = partitioning.replication_targets_batch(matrix, radii)
        assert mask.shape == (len(points), partitioning.num_partitions())
        assert mask.dtype == bool
        for point, row in zip(points, mask):
            assert targets_of_row(partitioning, row) == partitioning.replication_targets(
                point, list(radii)
            )

    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_partition_of(self, case):
        partitioning, _, points = case
        matrix = np.array(points, dtype=np.float64).reshape(len(points), partitioning.bounds.dim)
        owners = partitioning.partition_of_batch(matrix)
        assert owners.dtype == np.int64
        assert owners.tolist() == [partitioning.partition_of(point) for point in points]

    def test_scalar_radius_is_accepted_like_the_scalar_form(self):
        grid = GridPartitioning(bounds(2), [4, 1])
        mask = grid.replication_targets_batch(np.array([[26.0, 50.0]]), 2.0)
        assert targets_of_row(grid, mask[0]) == grid.replication_targets((26.0, 50.0), 2.0)

    def test_wrong_dimensionality_is_rejected_like_the_scalar_form(self):
        grid = GridPartitioning(bounds(2), [2, 2])
        with pytest.raises(ValueError):
            grid.replication_targets((1.0,), [1.0, 1.0])
        with pytest.raises(ValueError):
            grid.replication_targets_batch(np.array([[1.0]]), [1.0, 1.0])


def _make_partitionings(dim):
    yield GridPartitioning(bounds(dim), [3] * dim)
    for axis in range(dim):
        yield StripPartitioning.uniform(bounds(dim), axis, 3)


@pytest.mark.parametrize("dim", [1, 2, 3])
class TestNonFiniteContract:
    """±inf clamps to the edge cell like any point outside the box; NaN is one
    typed error in every form (it used to be ValueError / OverflowError /
    partition 0 / ``[]`` depending on which form met it)."""

    def test_infinities_clamp_to_the_edge(self, dim):
        for partitioning in _make_partitionings(dim):
            for sign in (-1.0, 1.0):
                for axis in range(dim):
                    point = [50.0] * dim
                    point[axis] = sign * math.inf
                    finite = list(point)
                    finite[axis] = sign * 1e9
                    expected = partitioning.partition_of(finite)
                    assert partitioning.partition_of(point) == expected
                    batch = partitioning.partition_of_batch(np.array([point]))
                    assert batch.tolist() == [expected]
                    targets = partitioning.replication_targets(point, [1.0] * dim)
                    assert targets == partitioning.replication_targets(finite, [1.0] * dim)
                    mask = partitioning.replication_targets_batch(np.array([point]), [1.0] * dim)
                    assert targets_of_row(partitioning, mask[0]) == targets
                    assert expected in targets

    def test_nan_raises_partitioning_error_everywhere(self, dim):
        for partitioning in _make_partitionings(dim):
            read_by_owner_lookup = (
                [partitioning.axis]
                if isinstance(partitioning, StripPartitioning)
                else range(dim)
            )
            for axis in range(dim):
                point = [50.0] * dim
                point[axis] = math.nan
                matrix = np.array([[50.0] * dim, point])
                with pytest.raises(PartitioningError):
                    partitioning.replication_targets(point, [1.0] * dim)
                with pytest.raises(PartitioningError):
                    partitioning.replication_targets_batch(matrix, [1.0] * dim)
                if axis in read_by_owner_lookup:
                    with pytest.raises(PartitioningError):
                        partitioning.partition_of(point)
                    with pytest.raises(PartitioningError):
                        partitioning.partition_of_batch(matrix)
                else:
                    # A strip only reads the coordinate it cuts along.
                    assert partitioning.partition_of(point) == partitioning.partition_of_batch(
                        matrix
                    )[1]


# ----------------------------------------------------------------------
# The per-class form the map phase calls
# ----------------------------------------------------------------------
def _agent_class(name: str, dim: int, visibility):
    namespace = {
        axis: StateField(0.0, spatial=True, visibility=visibility)
        for axis in "xyz"[:dim]
    }
    return type(Agent)(name, (Agent,), namespace)


CLASSES = {
    dim: (
        _agent_class(f"Near{dim}", dim, 3.0),
        _agent_class(f"Far{dim}", dim, 25.0),
        _agent_class(f"Everywhere{dim}", dim, None),
    )
    for dim in (1, 2, 3)
}


@st.composite
def shards(draw):
    partitioning, _, points = draw(cases())
    classes = CLASSES[partitioning.bounds.dim]
    agents = [
        draw(st.sampled_from(classes))(agent_id=index, **dict(zip("xyz", point)))
        for index, point in enumerate(points)
    ]
    return partitioning, agents


class TestPerClassBatch:
    @settings(max_examples=200, deadline=None)
    @given(shards())
    def test_mixed_bounded_and_unbounded_classes(self, shard):
        partitioning, agents = shard
        dim = partitioning.bounds.dim
        points = np.array([a.position() for a in agents], dtype=np.float64).reshape(-1, dim)
        owners = (
            partitioning.partition_of_batch(points) if agents else np.zeros(0, dtype=np.int64)
        )
        replicates, targets, everywhere = replication.replication_targets_batch(
            agents, points, owners, partitioning
        )
        assert everywhere == [p.partition_id for p in partitioning.partitions()]
        for row, agent in enumerate(agents):
            expected = replication.replication_targets(agent, partitioning)
            if replicates[row]:
                assert targets.get(row, everywhere) == expected
                if not agent.has_bounded_visibility():
                    assert row not in targets  # resolved per class, no per-row list
            else:
                assert row not in targets
                assert set(expected) <= {int(owners[row])}

    def test_unbounded_class_reads_no_position(self, monkeypatch):
        partitioning = StripPartitioning.uniform(bounds(2), 0, 2)
        everywhere_class = CLASSES[2][2]
        agents = [everywhere_class(agent_id=i, x=10.0 * i, y=5.0) for i in range(6)]
        points = np.array([a.position() for a in agents])
        owners = partitioning.partition_of_batch(points)

        def forbidden(*args, **kwargs):
            raise AssertionError("an unbounded class needs no target mask")

        monkeypatch.setattr(type(partitioning), "replication_targets_batch", forbidden)
        replicates, targets, everywhere = replication.replication_targets_batch(
            agents, points, owners, partitioning
        )
        assert replicates.all() and targets == {} and everywhere == [0, 1]
