"""Spatial partitioning of the simulated space onto workers.

The BRACE map tasks use a *spatial partitioning function* ``P : L -> P`` that
assigns every location to a partition (one per worker / reducer).  Each
partition has an *owned region* (the inverse image of its id) and a *visible
region* (every location visible from some point of the owned region); agents
are replicated to every partition whose visible region contains them.

Two concrete partitionings are provided:

* :class:`GridPartitioning` — a rectilinear grid, the scheme used by the
  BRACE prototype in the paper.
* :class:`StripPartitioning` — one-dimensional strips along a chosen axis,
  the representation manipulated by the paper's one-dimensional load
  balancer (strip boundaries move to even out the number of owned agents).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import PartitioningError
from repro.spatial.bbox import BBox


def _reject_nan(coordinates) -> None:
    """Raise when any coordinate (of a point, or of a matrix of points) is NaN.

    ``floor``, ``bisect`` and ``<=`` each do something different with a NaN
    (raise, sort it last, answer False), so no partition "owns" one; both the
    scalar and the batch lookups refuse it with the same typed error instead.
    Infinite coordinates are fine: they clamp to an edge like any point
    outside the box.
    """
    if isinstance(coordinates, np.ndarray):
        found = bool(np.isnan(coordinates).any())
    else:
        found = any(coordinate != coordinate for coordinate in coordinates)
    if found:
        raise PartitioningError(
            f"cannot place a point with a NaN coordinate: {coordinates!r}"
        )


@dataclass(frozen=True)
class Partition:
    """A single spatial partition: an id plus its owned region."""

    partition_id: int
    owned_region: BBox

    def visible_region(self, visibility: Sequence[float] | float) -> BBox:
        """Return the owned region grown by the per-dimension visibility radii."""
        return self.owned_region.expanded(visibility)


class SpatialPartitioning:
    """Base class for partitioning functions.

    A partitioning exposes the mapping from locations to partition ids, the
    list of partitions, and the replication target computation used by the
    BRACE map task (every partition whose visible region contains a point).
    """

    def partitions(self) -> list[Partition]:
        """Return every partition."""
        raise NotImplementedError

    def partition_of(self, point: Sequence[float]) -> int:
        """Return the id of the partition owning ``point``."""
        raise NotImplementedError

    def partition_of_batch(self, points: np.ndarray) -> np.ndarray:
        """Owners of many points at once (one int64 per row of ``points``).

        The generic implementation loops over :meth:`partition_of`; the
        concrete partitionings override it with a vectorized lookup whose
        results are bit-identical to the scalar path (same comparisons, same
        float operations) — the columnar map phase depends on that.
        """
        return np.array(
            [self.partition_of(point) for point in points], dtype=np.int64
        ).reshape(len(points))

    def num_partitions(self) -> int:
        """Return the number of partitions."""
        return len(self.partitions())

    def partition(self, partition_id: int) -> Partition:
        """Return the partition with the given id."""
        for part in self.partitions():
            if part.partition_id == partition_id:
                return part
        raise PartitioningError(f"unknown partition id {partition_id}")

    def _on_world_edge(self, partition_id: int) -> list[tuple[bool, bool]]:
        """Per dimension, whether the partition's (low, high) face lies on the
        world bounds — the faces :meth:`partition_of` clamps outside points to."""
        raise NotImplementedError

    def _visible_regions(
        self, visibility: Sequence[float] | float
    ) -> tuple[list[tuple[int, BBox]], np.ndarray, np.ndarray]:
        """Every partition's *opened* visible region, cached per visibility.

        :meth:`partition_of` clamps points outside the world box into an edge
        partition, so the faces of a visible region that lie on the world
        bounds are open (±inf): an agent that drifted out of the box is still
        seen by every edge partition that owns agents it can see.

        Returned as ``(partition id, box)`` pairs for the scalar form and as
        the same bounds stacked into two ``(P, dim)`` arrays for the batch
        form.  The regions depend only on the partitioning and the radii, and
        partitionings are replaced (never mutated) when boundaries move,
        which keeps the cache trivially valid.
        """
        cache = self.__dict__.setdefault("_visible_region_cache", {})
        key = tuple(visibility) if isinstance(visibility, (list, tuple)) else visibility
        cached = cache.get(key)
        if cached is None:
            regions = []
            for part in self.partitions():
                grown = part.visible_region(visibility).intervals
                edges = self._on_world_edge(part.partition_id)
                opened = tuple(
                    (-math.inf if low_edge else lo, math.inf if high_edge else hi)
                    for (lo, hi), (low_edge, high_edge) in zip(grown, edges)
                )
                regions.append((part.partition_id, BBox(opened)))
            lows = np.array([box.lows for _, box in regions], dtype=np.float64)
            highs = np.array([box.highs for _, box in regions], dtype=np.float64)
            cached = cache[key] = (regions, lows, highs)
        return cached

    def replication_targets(
        self, point: Sequence[float], visibility: Sequence[float] | float
    ) -> list[int]:
        """Return the ids of every partition that must receive a replica.

        A partition needs a replica of an agent at ``point`` exactly when the
        agent falls inside the partition's visible region, i.e. the owned
        region expanded by the visibility radii, with the faces on the world
        bounds opened (:meth:`_visible_regions`).  An infinite coordinate is
        an ordinary point outside the box; a NaN coordinate raises
        :class:`~repro.core.errors.PartitioningError`.

        This scalar form is the *reference*: the tick's map phase calls
        :meth:`replication_targets_batch`, which the tests hold to this
        function row by row.
        """
        _reject_nan(point)
        regions, _, _ = self._visible_regions(visibility)
        return [
            partition_id
            for partition_id, region in regions
            if region.contains_point(point)
        ]

    def replication_targets_batch(
        self, points: np.ndarray, visibility: Sequence[float] | float
    ) -> np.ndarray:
        """:meth:`replication_targets` for many points: an ``(N, P)`` bool mask.

        ``mask[i, j]`` says row ``i`` of ``points`` lies in the visible region
        of the ``j``-th partition of :meth:`partitions`.  Each coordinate
        column is compared against the cached region faces with the very
        predicates of :meth:`BBox.contains_point` (closed ``lo <= p <= hi``
        on float64), so every row equals the scalar form — including points
        on a region face, outside the world box and at ±inf; a NaN anywhere
        raises :class:`~repro.core.errors.PartitioningError` as it does there.
        """
        _, lows, highs = self._visible_regions(visibility)
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != lows.shape[1]:
            raise ValueError("point dimensionality does not match the box")
        _reject_nan(points)
        mask = np.ones((len(points), len(lows)), dtype=bool)
        for dimension in range(lows.shape[1]):
            column = points[:, dimension, None]
            mask &= lows[:, dimension] <= column
            mask &= column <= highs[:, dimension]
        return mask


class GridPartitioning(SpatialPartitioning):
    """A rectilinear grid partitioning of a bounding box.

    Parameters
    ----------
    bounds:
        The region of space to partition.
    cells_per_dim:
        Number of grid cells along each dimension; the total number of
        partitions is their product.
    """

    def __init__(self, bounds: BBox, cells_per_dim: Sequence[int]):
        if len(cells_per_dim) != bounds.dim:
            raise PartitioningError("cells_per_dim must match the bounds dimensionality")
        if any(int(c) < 1 for c in cells_per_dim):
            raise PartitioningError("every dimension needs at least one cell")
        self._bounds = bounds
        self._cells = tuple(int(c) for c in cells_per_dim)
        self._partitions = self._build_partitions()

    def _build_partitions(self) -> list[Partition]:
        partitions = []
        for pid in range(self._total_cells()):
            coords = self._id_to_coords(pid)
            intervals = []
            for dimension, cell_index in enumerate(coords):
                lo, hi = self._bounds.intervals[dimension]
                width = (hi - lo) / self._cells[dimension]
                intervals.append((lo + cell_index * width, lo + (cell_index + 1) * width))
            partitions.append(Partition(pid, BBox(tuple(intervals))))
        return partitions

    def _total_cells(self) -> int:
        total = 1
        for count in self._cells:
            total *= count
        return total

    def _id_to_coords(self, pid: int) -> tuple[int, ...]:
        coords = []
        for count in reversed(self._cells):
            coords.append(pid % count)
            pid //= count
        return tuple(reversed(coords))

    def _coords_to_id(self, coords: Sequence[int]) -> int:
        pid = 0
        for coordinate, count in zip(coords, self._cells):
            pid = pid * count + coordinate
        return pid

    def _on_world_edge(self, partition_id: int) -> list[tuple[bool, bool]]:
        return [
            (cell == 0, cell == count - 1)
            for cell, count in zip(self._id_to_coords(partition_id), self._cells)
        ]

    @property
    def bounds(self) -> BBox:
        """The partitioned region."""
        return self._bounds

    @property
    def cells_per_dim(self) -> tuple[int, ...]:
        """Grid resolution along each dimension."""
        return self._cells

    def partitions(self) -> list[Partition]:
        return list(self._partitions)

    def partition(self, partition_id: int) -> Partition:
        if not 0 <= partition_id < len(self._partitions):
            raise PartitioningError(f"unknown partition id {partition_id}")
        return self._partitions[partition_id]

    def partition_of(self, point: Sequence[float]) -> int:
        point = point[: self._bounds.dim]
        _reject_nan(point)
        coords = []
        for dimension, coordinate in enumerate(point):
            lo, hi = self._bounds.intervals[dimension]
            cells = self._cells[dimension]
            width = (hi - lo) / cells
            # Points on or past the boundary (±inf included) are clamped into
            # the grid: the simulated space is conceptually unbounded (fish
            # ocean) but the partitioning must always produce an owner.
            offset = (coordinate - lo) / width if width else 0.0
            if offset <= 0:
                index = 0
            elif offset >= cells:
                index = cells - 1
            else:
                index = int(math.floor(offset))
            coords.append(index)
        return self._coords_to_id(coords)

    def partition_of_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`partition_of` (same clamping, same float ops)."""
        points = np.asarray(points, dtype=np.float64)
        _reject_nan(points[:, : self._bounds.dim])
        ids = np.zeros(len(points), dtype=np.int64)
        for dimension in range(self._bounds.dim):
            lo, hi = self._bounds.intervals[dimension]
            cells = self._cells[dimension]
            width = (hi - lo) / cells
            if width == 0:
                index = np.zeros(len(points), dtype=np.int64)
            else:
                # Clamp while still float: ±inf has no int64 to cast to.
                offset = np.floor((points[:, dimension] - lo) / width)
                index = np.clip(offset, 0, cells - 1).astype(np.int64)
            ids = ids * cells + index
        return ids


class StripPartitioning(SpatialPartitioning):
    """One-dimensional strips over a chosen axis.

    The strips cover the full bounds in every other dimension.  Strip
    boundaries are explicit so the load balancer can move them: a
    partitioning with ``n`` strips has ``n - 1`` interior boundaries.
    """

    def __init__(self, bounds: BBox, axis: int, boundaries: Sequence[float]):
        if not 0 <= axis < bounds.dim:
            raise PartitioningError(f"axis {axis} out of range for {bounds.dim}-d bounds")
        lo, hi = bounds.intervals[axis]
        boundaries = [float(b) for b in boundaries]
        if any(b1 >= b2 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise PartitioningError("strip boundaries must be strictly increasing")
        if boundaries and (boundaries[0] <= lo or boundaries[-1] >= hi):
            raise PartitioningError("strip boundaries must lie strictly inside the bounds")
        self._bounds = bounds
        self._axis = axis
        self._boundaries = list(boundaries)
        self._partitions = self._build_partitions()

    @staticmethod
    def uniform(bounds: BBox, axis: int, num_strips: int) -> "StripPartitioning":
        """Build a partitioning with ``num_strips`` equal-width strips."""
        if num_strips < 1:
            raise PartitioningError("need at least one strip")
        lo, hi = bounds.intervals[axis]
        width = (hi - lo) / num_strips
        boundaries = [lo + width * i for i in range(1, num_strips)]
        return StripPartitioning(bounds, axis, boundaries)

    def _build_partitions(self) -> list[Partition]:
        lo, hi = self._bounds.intervals[self._axis]
        edges = [lo, *self._boundaries, hi]
        partitions = []
        for pid, (strip_lo, strip_hi) in enumerate(zip(edges, edges[1:])):
            intervals = list(self._bounds.intervals)
            intervals[self._axis] = (strip_lo, strip_hi)
            partitions.append(Partition(pid, BBox(tuple(intervals))))
        return partitions

    def _on_world_edge(self, partition_id: int) -> list[tuple[bool, bool]]:
        # The strips span the whole box in every dimension but the cut one.
        return [
            (partition_id == 0, partition_id == len(self._boundaries))
            if dimension == self._axis
            else (True, True)
            for dimension in range(self._bounds.dim)
        ]

    @property
    def bounds(self) -> BBox:
        """The partitioned region."""
        return self._bounds

    @property
    def axis(self) -> int:
        """The axis along which the strips are cut."""
        return self._axis

    @property
    def boundaries(self) -> list[float]:
        """Interior strip boundaries (length ``num_partitions() - 1``)."""
        return list(self._boundaries)

    def partitions(self) -> list[Partition]:
        return list(self._partitions)

    def partition(self, partition_id: int) -> Partition:
        if not 0 <= partition_id < len(self._partitions):
            raise PartitioningError(f"unknown partition id {partition_id}")
        return self._partitions[partition_id]

    def partition_of(self, point: Sequence[float]) -> int:
        coordinate = point[self._axis]
        _reject_nan((coordinate,))
        return bisect.bisect_right(self._boundaries, coordinate)

    def partition_of_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`partition_of`.

        ``np.searchsorted(..., side="right")`` performs exactly the
        comparisons of ``bisect.bisect_right``, so the owners are
        bit-identical to the scalar path.
        """
        coordinates = np.asarray(points, dtype=np.float64)[:, self._axis]
        _reject_nan(coordinates)
        boundaries = np.asarray(self._boundaries, dtype=np.float64)
        return np.searchsorted(boundaries, coordinates, side="right").astype(
            np.int64
        )

    def with_boundaries(self, boundaries: Sequence[float]) -> "StripPartitioning":
        """Return a new partitioning with the same bounds/axis but new boundaries."""
        return StripPartitioning(self._bounds, self._axis, boundaries)
