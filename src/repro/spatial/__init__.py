"""Spatial substrate: vectors, boxes, the columnar grid, partitioning and joins.

Behavioral simulations are abstracted by the paper as *iterated spatial
joins*; this package provides every spatial primitive those joins need:

* :mod:`repro.spatial.vec` — small fixed-dimension vectors.
* :mod:`repro.spatial.bbox` — axis-aligned bounding boxes.
* :mod:`repro.spatial.partitioning` — rectilinear grid / strip partitioning
  of space onto workers, with owned sets and partition visible regions.
* :mod:`repro.spatial.columnar` — NumPy-backed columnar snapshots and the
  columnar grid's batch join kernels: the runtime's one spatial index (the
  ``"vectorized"`` spatial backend).
* :mod:`repro.spatial.join` — the nested-loop self-join, the linear-scan
  oracle the grid is checked against.
"""

from repro.spatial.vec import Vec2, Vec3
from repro.spatial.bbox import BBox
from repro.spatial.partitioning import (
    Partition,
    GridPartitioning,
    StripPartitioning,
)
from repro.spatial.join import (
    nested_loop_self_join,
    neighbor_lists,
)
from repro.spatial.columnar import (
    PointSet,
    VectorizedGrid,
    batch_neighbor_lists,
    batch_range_query,
    vectorized_neighbor_lists,
    vectorized_self_join,
)

__all__ = [
    "Vec2",
    "Vec3",
    "BBox",
    "Partition",
    "GridPartitioning",
    "StripPartitioning",
    "nested_loop_self_join",
    "neighbor_lists",
    "PointSet",
    "VectorizedGrid",
    "batch_neighbor_lists",
    "batch_range_query",
    "vectorized_neighbor_lists",
    "vectorized_self_join",
]
