"""Columnar spatial kernels: NumPy-backed batch joins over position snapshots.

Processing one tick is a spatial self-join (Section 3 of the paper), and the
interpreted join — one Python range query per agent, each converting points
with ``tuple(map(float, ...))`` — is where a pure-Python reproduction loses
orders of magnitude.  This module provides the columnar alternative, in the
spirit of MADlib-style vectorized bulk operators:

* :class:`PointSet` — a per-tick snapshot packing item positions into one
  ``float64`` matrix (built once, reused by every query of the tick);
* :class:`VectorizedGrid` — the rank-run index over a snapshot: the
  dimension-0 column is ranked once and *not* binned, the other dimensions
  are binned with ``np.floor``, and rows are sorted by ``cell_key * n +
  rank0``.  A probe's dimension-0 interval is two ``searchsorted`` calls on
  the sorted column (exact, unclamped); inside each cell it touches, its
  candidates are one contiguous run of the sort order, located with two
  more.  Only dimensions ``>= 1`` ever surface a candidate outside the box;
* :func:`batch_range_query` / :func:`batch_neighbor_lists` — answer *all*
  probes of a tick in a handful of array operations instead of one Python
  query per probe;
* :func:`vectorized_self_join` / :func:`vectorized_neighbor_lists` — the
  σ_V join and the radius join, returning the same per-probe match lists as
  :func:`repro.spatial.join.visible_region_self_join` and
  :func:`repro.spatial.join.neighbor_lists`.

Exactness contract
------------------
The kernels never approximate: candidate enumeration may differ from the
interpreted indexes, but the final membership tests use the same float64
comparisons Python performs (``lo <= p <= hi`` box tests — in dimension 0
as the ``left``/``right`` binary searches over the sorted column, which
select exactly that closed set; squared Euclidean distance accumulated
dimension by dimension), so the match *sets* are bit-identical to the
interpreted join.  The cell sweep this index replaced is kept verbatim in
``tests/spatial/cell_sweep_oracle.py`` and must agree array for array.
Matches are reported in ascending snapshot-row order, which equals the item
order of the snapshot — the canonical order the query contexts also use —
so downstream floating-point accumulations are bit-identical across
backends as well.

The one semantic difference: self-exclusion is positional (row ``i`` is not
its own neighbour) rather than by object identity, which only matters when
the very same Python object is indexed at two rows.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

import numpy as np

#: Per-dimension cap on the number of grid cells a probe box may span before
#: the probe is answered by a full columnar scan instead of cell probes.
MAX_SPAN_PER_DIM = 8
#: Cap on the total number of cells a probe may touch (product over dims).
MAX_CELLS_PER_PROBE = 64


def _as_matrix(points: Any) -> np.ndarray:
    """Coerce ``points`` into a ``(n, dim)`` float64 matrix."""
    matrix = np.asarray(points, dtype=np.float64)
    if matrix.size == 0:
        return matrix.reshape(0, matrix.shape[1] if matrix.ndim == 2 else 0)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.ndim != 2:
        raise ValueError("points must form a 2-D (n, dim) matrix")
    return matrix


def _pairwise_dist_sq(diff: np.ndarray) -> np.ndarray:
    """Squared norms of row vectors, accumulated dimension by dimension.

    The explicit per-dimension accumulation reproduces Python's
    ``sum((p - c) ** 2 for ...)`` left-to-right addition order, keeping the
    distance filter bit-identical to the interpreted join.
    """
    if diff.shape[0] == 0 or diff.shape[1] == 0:
        return np.zeros(diff.shape[0], dtype=np.float64)
    total = diff[:, 0] * diff[:, 0]
    for dimension in range(1, diff.shape[1]):
        total = total + diff[:, dimension] * diff[:, dimension]
    return total


def _columns(matrix: np.ndarray) -> list[np.ndarray]:
    """One contiguous array per dimension of an ``(n, dim)`` matrix.

    The exact filters gather candidate coordinates by row; a gather from a
    contiguous column moves 8 bytes per candidate where a fancy-indexed
    ``(n, dim)`` row gather builds a temporary matrix first.
    """
    return [np.ascontiguousarray(matrix[:, dimension]) for dimension in range(matrix.shape[1])]


def derive_cell_size(points: np.ndarray, target_per_cell: float = 2.0) -> tuple[float, ...]:
    """A data-derived grid cell size: ~``target_per_cell`` items per cell.

    Splits each dimension of the occupied extent into ``(n / target) ^ (1/d)``
    slots.  Used when a caller asks for a grid without committing to a cell
    size; degenerate extents (a single point, collinear data) fall back to
    unit cells in the flat dimensions.
    """
    matrix = _as_matrix(points)
    count, dim = matrix.shape
    if count == 0 or dim == 0:
        return (1.0,) * max(dim, 1)
    spans = matrix.max(axis=0) - matrix.min(axis=0)
    cells_per_dim = max(1.0, (count / max(target_per_cell, 1e-9)) ** (1.0 / dim))
    sizes = []
    for span in spans:
        size = float(span) / cells_per_dim
        sizes.append(size if size > 0 else 1.0)
    return tuple(sizes)


class PointSet:
    """A columnar snapshot of item positions, packed once per tick.

    Parameters
    ----------
    items:
        The objects being indexed, in the order that defines their rows.
        Row order is the canonical match order: every kernel reports matches
        in ascending row order.
    key:
        Maps an item to its point; identity by default.
    points:
        Optional pre-built ``(n, dim)`` float64 matrix (rows parallel to
        ``items``); when given, ``key`` is not called — this is how a worker
        reuses positions harvested during the distribution phase.
    """

    __slots__ = ("items", "points", "_row_of")

    def __init__(
        self,
        items: Iterable[Any],
        key: Callable[[Any], Sequence[float]] | None = None,
        points: np.ndarray | None = None,
    ):
        self.items = list(items)
        if points is None:
            extract = key or (lambda item: item)
            points = [tuple(map(float, extract(item))) for item in self.items]
        self.points = _as_matrix(points)
        if len(self.points) != len(self.items):
            raise ValueError(
                f"points matrix has {len(self.points)} rows "
                f"for {len(self.items)} items"
            )
        self._row_of: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.items)

    @property
    def dim(self) -> int:
        """Dimensionality of the packed points (0 when empty)."""
        return int(self.points.shape[1])

    def row_of(self, item: Any) -> int | None:
        """Row of ``item`` (by object identity), or None when not indexed."""
        if self._row_of is None:
            self._row_of = {id(entry): row for row, entry in enumerate(self.items)}
        return self._row_of.get(id(item))

    def take(self, rows: np.ndarray) -> list[Any]:
        """Materialize the items at ``rows`` (ascending rows = canonical order)."""
        items = self.items
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()  # one C-level conversion beats per-element int()
        return [items[row] for row in rows]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension (min, max) over the packed points."""
        if len(self.items) == 0:
            raise ValueError("an empty PointSet has no bounds")
        return self.points.min(axis=0), self.points.max(axis=0)

    def scan_box(self, lows: Sequence[float], highs: Sequence[float]) -> np.ndarray:
        """Rows inside the closed box — one vectorized scan (no grid)."""
        if len(self.items) == 0:
            return np.zeros(0, dtype=np.intp)
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        mask = (self.points >= lows).all(axis=1) & (self.points <= highs).all(axis=1)
        return np.flatnonzero(mask)

    def scan_radius(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Rows within Euclidean ``radius`` of ``center`` — one scan."""
        if len(self.items) == 0:
            return np.zeros(0, dtype=np.intp)
        center = np.asarray(tuple(map(float, center)), dtype=np.float64)
        dist_sq = _pairwise_dist_sq(self.points - center)
        return np.flatnonzero(dist_sq <= float(radius) * float(radius))


def _cells_per_axis_cap(count: int, binned_dims: int) -> float:
    """Most cells one binned dimension may have with ``count`` rows indexed.

    The grid sorts rows by the integer key ``cell_key * count + rank``; the
    cap keeps every such key (and the probe-side ``cell_key * count + count``
    run bounds) inside ``int64``.  A binned axis spans at most ``cap + 1``
    cells (the maximum point sits on the far face), hence one spare bit per
    axis.  A snapshot too large to leave even one cell per axis is a typed
    error, never a wrapped key.
    """
    bits = 62 - binned_dims - int(count).bit_length()
    if bits < 0:
        raise ValueError(
            f"{count} rows leave no int64 key space for {binned_dims} binned dimensions"
        )
    return float(2 ** (bits // binned_dims))


class VectorizedGrid:
    """A rank-run index over a :class:`PointSet`, built with array ops only.

    Dimension 0 is not binned: its column is stable-ranked once, and a
    probe's dimension-0 interval becomes a *rank interval* through two
    ``searchsorted`` calls on the sorted column.  Dimensions ``1 … d-1`` are
    binned with ``np.floor`` into cells (strips in 2-D), and rows are sorted
    by the integer key ``cell_key * n + rank0`` — so inside one cell the
    rows a probe can match in dimension 0 are one contiguous run, located
    with two more ``searchsorted`` calls.  A 1-D snapshot has no cells at
    all: the rank run *is* the answer.

    ``cell_size`` keeps one entry per dimension (a scalar is broadcast);
    every entry is validated, the dimension-0 entry is otherwise unused.
    """

    def __init__(self, pointset: PointSet, cell_size: float | Sequence[float]):
        self.pointset = pointset
        points = pointset.points
        count, dim = points.shape
        if isinstance(cell_size, (int, float)):
            cell = np.full(max(dim, 1), float(cell_size), dtype=np.float64)
        else:
            cell = np.asarray(tuple(map(float, cell_size)), dtype=np.float64)
            if dim and len(cell) != dim:
                raise ValueError("cell_size must match the point dimensionality")
        if (cell <= 0).any() or not np.isfinite(cell).all():
            raise ValueError(f"grid cell sizes must be positive and finite, got {cell!r}")
        self.cell_size = cell
        binned = max(dim - 1, 0)
        self._origin = np.zeros(binned, dtype=np.float64)
        self._min_cell = np.zeros(binned, dtype=np.int64)
        self._max_cell = self._min_cell
        self._strides = np.ones(binned, dtype=np.int64)
        self._sorted_first = np.zeros(0, dtype=np.float64)
        self._order = np.zeros(0, dtype=np.intp)
        self._sorted_keys = np.zeros(0, dtype=np.int64)
        if count == 0 or dim == 0:
            return
        first = points[:, 0]
        by_first = np.argsort(first, kind="stable")
        self._sorted_first = first[by_first]
        rank = np.empty(count, dtype=np.int64)
        rank[by_first] = np.arange(count, dtype=np.int64)
        if binned == 0:
            self._order, self._sorted_keys = by_first, np.arange(count, dtype=np.int64)
            return
        # Bin relative to the data's own origin: cell indices then span only
        # the occupied extent, so coordinates far from zero cannot overflow.
        # A requested cell size far smaller than the extent is clamped so the
        # key space stays inside int64 (the exact filters make oversized
        # cells a performance detail, never a correctness one).
        rest = points[:, 1:]
        self._origin = rest.min(axis=0)
        span = rest.max(axis=0) - self._origin
        cell[1:] = np.maximum(cell[1:], span / _cells_per_axis_cap(count, binned))
        cells = np.floor((rest - self._origin) / cell[1:]).astype(np.int64)
        self._min_cell = cells.min(axis=0)
        self._max_cell = cells.max(axis=0)
        spans = self._max_cell - self._min_cell + 1
        strides = np.ones(binned, dtype=np.int64)
        for dimension in range(binned - 2, -1, -1):
            strides[dimension] = strides[dimension + 1] * spans[dimension + 1]
        self._strides = strides
        # Keys are unique (ranks are), so any sort yields the one order:
        # cell-major, dimension-0 rank within the cell.
        keys = ((cells - self._min_cell) @ strides) * count + rank
        self._order = np.argsort(keys)
        self._sorted_keys = keys[self._order]

    # ------------------------------------------------------------------
    # The batched join sweep
    # ------------------------------------------------------------------
    def _batch_join(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        keep: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run every probe box through the index with an exact ``keep`` filter.

        ``lows``/``highs`` are ``(n_probes, dim)`` closed box bounds; they
        may be infinite, and a box with ``low > high`` (or a NaN bound) in
        any dimension matches nothing.  Dimension 0 is answered by rank: the
        rows with ``low <= p <= high`` are exactly the sorted-column slots
        ``[searchsorted(low, "left"), searchsorted(high, "right"))`` — the
        bounds are *not* clamped, ±inf simply land on the ends.  The other
        dimensions are clamped to (just beyond) the occupied extent and
        swept one cell offset at a time; per offset, a probe's candidates
        are the run of sorted keys between ``cell * n + lo_rank`` and
        ``cell * n + hi_rank``.

        ``keep(probe_ids, rows)`` returns the exact-match mask of a chunk of
        candidates (every one already inside the box in dimension 0);
        ``keep=None`` says every candidate is a match (a 1-D range query).
        Returns ``(probe_ids, match_rows)`` sorted by ``(probe, row)``.

        Each chunk is filtered *before* anything global happens, so memory
        traffic scales with the matches, not the candidates; the final
        per-probe ordering costs one single-key sort of composite ``probe *
        n + row`` keys.  Probes whose clamped box spans more than
        :data:`MAX_SPAN_PER_DIM` cells in a binned dimension (or
        :data:`MAX_CELLS_PER_PROBE` overall) fall back to one exact columnar
        scan each, so unbounded visible regions cannot blow up the cell
        enumeration.
        """
        count = len(self.pointset)
        empty = np.zeros(0, dtype=np.int64)
        if count == 0 or len(lows) == 0:
            return empty, empty

        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        lo_rank = np.searchsorted(self._sorted_first, lows[:, 0], side="left")
        hi_rank = np.searchsorted(self._sorted_first, highs[:, 0], side="right")
        valid = (lows <= highs).all(axis=1) & (lo_rank < hi_rank)
        # Clamp into (just beyond) the occupied extent so ±inf or far-away
        # boxes bin cleanly; validity is judged on the clamped cells below.
        cell = self.cell_size[1:]
        pad_lo = self._origin + (self._min_cell - 1) * cell
        pad_hi = self._origin + (self._max_cell + 2) * cell
        with np.errstate(invalid="ignore"):  # a NaN bound: already invalid
            low_cells = np.floor(
                (np.clip(lows[:, 1:], pad_lo, pad_hi) - self._origin) / cell
            ).astype(np.int64)
            high_cells = np.floor(
                (np.clip(highs[:, 1:], pad_lo, pad_hi) - self._origin) / cell
            ).astype(np.int64)
        valid &= (high_cells >= self._min_cell).all(axis=1)
        valid &= (low_cells <= self._max_cell).all(axis=1)
        low_cells = np.clip(low_cells, self._min_cell, self._max_cell)
        high_cells = np.clip(high_cells, self._min_cell, self._max_cell)
        offset_span = high_cells - low_cells
        wide = valid & (
            (offset_span >= MAX_SPAN_PER_DIM).any(axis=1)
            | ((offset_span + 1).prod(axis=1) > MAX_CELLS_PER_PROBE)
        )
        narrow = valid & ~wide

        key_chunks: list[np.ndarray] = []

        def collect(probe_ids: np.ndarray, rows: np.ndarray) -> None:
            if keep is not None:
                # Index arrays beat a boolean mask applied to two arrays.
                matched = np.flatnonzero(keep(probe_ids, rows))
                probe_ids, rows = probe_ids[matched], rows[matched]
            key_chunks.append(probe_ids * count + rows)

        if narrow.any():
            base_keys = ((low_cells - self._min_cell) @ self._strides) * count
            rank_span = hi_rank - lo_rank
            for offset in np.ndindex(*(offset_span[narrow].max(axis=0) + 1)):
                offset = np.asarray(offset, dtype=np.int64)
                probes = np.flatnonzero(narrow & (offset <= offset_span).all(axis=1))
                if len(probes) == 0:
                    continue
                low_keys = base_keys[probes] + (offset @ self._strides) * count
                low_keys += lo_rank[probes]
                # Chunk order is free (the final sort fixes it), and needles
                # in key order make both binary searches walk forwards.
                by_key = np.argsort(low_keys)
                probes, low_keys = probes[by_key], low_keys[by_key]
                starts = np.searchsorted(self._sorted_keys, low_keys)
                ends = np.searchsorted(self._sorted_keys, low_keys + rank_span[probes])
                counts = ends - starts
                total = int(counts.sum())
                if total == 0:
                    continue
                cumulative = np.cumsum(counts) - counts
                positions = np.arange(total, dtype=np.int64)
                positions += np.repeat(starts - cumulative, counts)
                collect(np.repeat(probes, counts), self._order[positions])

        for probe in np.flatnonzero(wide):
            rows = self.pointset.scan_box(lows[probe], highs[probe])
            collect(np.full(len(rows), probe, dtype=np.int64), rows)

        if not key_chunks:
            return empty, empty
        keys = np.concatenate(key_chunks)
        # (probe, row) pairs are unique across cell offsets, so one unstable
        # single-key sort recovers the canonical (probe, row) order.
        keys.sort()
        probe_ids = keys // count
        return probe_ids, keys - probe_ids * count

    # ------------------------------------------------------------------
    # Exact batch joins
    # ------------------------------------------------------------------
    def batch_range_query(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact closed-box matches for every probe box, in one sweep.

        Returns ``(probe_ids, match_rows, examined)`` with the pair arrays
        sorted by ``(probe, row)``.  ``examined[p]`` counts the candidates
        an interpreted index would have surfaced for probe ``p`` — the rows
        inside its closed box — so per-probe work units are comparable
        across the python and vectorized backends (virtual-time figures must
        not shift when the backend flips mid-sweep).  Here those are the
        matches themselves: one ``bincount`` of the final probe ids.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        # Dimension 0 is exact by rank; only the others need the box test.
        columns = _columns(self.pointset.points)[1:]
        low_columns, high_columns = _columns(lows)[1:], _columns(highs)[1:]

        def keep(probe_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
            inside = True
            for column, low, high in zip(columns, low_columns, high_columns):
                coordinate = column[rows]
                inside &= coordinate >= low[probe_ids]
                inside &= coordinate <= high[probe_ids]
            return inside

        probe_ids, match_rows = self._batch_join(lows, highs, keep if columns else None)
        return probe_ids, match_rows, np.bincount(probe_ids, minlength=len(lows))

    def batch_radius_query(
        self, centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact Euclidean-ball matches around every center, in one sweep.

        Matches satisfy the closed box ``center ± radius`` *and* the squared
        Euclidean distance test, exactly like the interpreted path (a box
        range query pruned by distance).  The box test is not redundant: for
        subnormal-scale offsets the squared distance underflows to zero
        while the box still excludes the point.  ``examined`` (see
        :meth:`batch_range_query`) is the box candidates, a superset of the
        matches, counted chunk by chunk.
        """
        centers = np.asarray(centers, dtype=np.float64)
        radius = float(radius)
        radius_sq = radius * radius
        columns = _columns(self.pointset.points)
        center_columns = _columns(centers)
        examined = np.zeros(len(centers), dtype=np.int64)

        def keep(probe_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
            inside = None  # every lane, until a dimension >= 1 says otherwise
            dist_sq = None
            for dimension, (column, center_column) in enumerate(zip(columns, center_columns)):
                coordinate = column[rows]
                center = center_column[probe_ids]
                if dimension:  # dimension 0 is inside the box by rank
                    within = coordinate >= center - radius
                    within &= coordinate <= center + radius
                    inside = within if inside is None else inside & within
                # Left-to-right accumulation, as in _pairwise_dist_sq.
                diff = coordinate - center
                dist_sq = diff * diff if dist_sq is None else dist_sq + diff * diff
            # Work charge = the box candidates an interpreted index surfaces;
            # matches additionally pass the distance test.
            near = dist_sq <= radius_sq
            if inside is None:
                examined[:] += np.bincount(probe_ids, minlength=len(examined))
                return near
            examined[:] += np.bincount(probe_ids[inside], minlength=len(examined))
            return inside & near

        probe_ids, match_rows = self._batch_join(centers - radius, centers + radius, keep)
        return probe_ids, match_rows, examined


def _split_rows(probe_ids: np.ndarray, rows: np.ndarray, n_probes: int) -> list[np.ndarray]:
    """Split ``(probe, row)`` pairs (sorted by probe) into per-probe arrays."""
    cuts = np.searchsorted(probe_ids, np.arange(1, n_probes))
    return np.split(rows, cuts)


def batch_range_query(
    pointset: PointSet,
    lows: np.ndarray,
    highs: np.ndarray,
    cell_size: float | Sequence[float] | None = None,
    grid: VectorizedGrid | None = None,
) -> list[np.ndarray]:
    """Per-probe row arrays for a batch of closed-box range queries.

    ``grid`` reuses a prebuilt :class:`VectorizedGrid` (the per-tick index
    reuse path); otherwise one is built with ``cell_size`` (data-derived via
    :func:`derive_cell_size` when omitted).
    """
    if len(pointset) == 0:
        return [np.zeros(0, dtype=np.intp) for _ in range(len(lows))]
    if grid is None:
        if cell_size is None:
            cell_size = derive_cell_size(pointset.points)
        grid = VectorizedGrid(pointset, cell_size)
    probe_ids, rows, _ = grid.batch_range_query(lows, highs)
    return _split_rows(probe_ids, rows, len(lows))


def batch_neighbor_pairs(
    pointset: PointSet,
    radius: float,
    grid: VectorizedGrid | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radius-based neighbour pairs for *every* row of the snapshot at once.

    The self-join kernel: every point is both probe and candidate.  Returns
    ``(probe_ids, rows, examined)`` — the matched ``(probe, row)`` pairs,
    probe-major with rows ascending (each probe's own row included), and
    ``examined[i]`` the number of candidates enumerated for probe ``i``.
    """
    count = len(pointset)
    if count == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0, dtype=np.int64)
    radius = float(radius)
    if grid is None:
        grid = VectorizedGrid(pointset, radius if radius > 0 else 1.0)
    return grid.batch_radius_query(pointset.points, radius)


def batch_neighbor_lists(
    pointset: PointSet,
    radius: float,
    include_self: bool = False,
    grid: VectorizedGrid | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`batch_neighbor_pairs` split into one row array per probe.

    Returns ``(lists, examined)`` — ``lists[i]`` holds the neighbour rows of
    row ``i`` in ascending order and ``examined[i]`` the number of
    candidates enumerated for it.  ``include_self=False`` drops the
    positional self match.
    """
    count = len(pointset)
    if count == 0:
        return [], np.zeros(0, dtype=np.int64)
    probe_ids, rows, examined = batch_neighbor_pairs(pointset, radius, grid)
    if not include_self:
        keep = probe_ids != rows
        probe_ids, rows = probe_ids[keep], rows[keep]
    return _split_rows(probe_ids, rows, count), examined


def vectorized_neighbor_lists(
    items: Sequence[Any],
    key: Callable[[Any], Sequence[float]],
    radius: float,
    include_self: bool = False,
) -> dict[int, list[Any]]:
    """Columnar equivalent of :func:`repro.spatial.join.neighbor_lists`.

    Same mapping (probe index → matched items, in item order), produced by
    one batched kernel instead of one Python range query per item.
    """
    pointset = PointSet(items, key=key)
    lists, _ = batch_neighbor_lists(pointset, radius, include_self=include_self)
    return {probe: pointset.take(rows) for probe, rows in enumerate(lists)}


def vectorized_self_join(
    agents: Sequence[Any],
    cell_size: float | Sequence[float] | None = None,
) -> dict[int, list[Any]]:
    """Columnar σ_V join: every agent against its *declared* visible region.

    The batch equivalent of
    :func:`repro.spatial.join.visible_region_self_join`: probes are the
    agents' ``visible_region()`` boxes (unbounded visibility scans the whole
    extent), the probe agent is excluded from its own matches, and matches
    come back in agent order — bit-identical accumulation downstream.
    """
    pointset = PointSet(agents, key=lambda agent: agent.position())
    count = len(pointset)
    if count == 0:
        return {}
    low_bound, high_bound = pointset.bounds()
    lows = np.empty_like(pointset.points)
    highs = np.empty_like(pointset.points)
    bounded_sides: list[np.ndarray] = []
    for row, agent in enumerate(pointset.items):
        region = agent.visible_region()
        if region is None:
            lows[row] = low_bound
            highs[row] = high_bound
        else:
            lows[row] = region.lows
            highs[row] = region.highs
            bounded_sides.append(highs[row] - lows[row])
    if cell_size is None:
        if bounded_sides:
            sides = np.maximum(np.max(bounded_sides, axis=0), 1e-12)
            cell_size = tuple(float(side) for side in sides)
        else:
            cell_size = derive_cell_size(pointset.points)
    grid = VectorizedGrid(pointset, cell_size)
    probe_ids, rows, _ = grid.batch_range_query(lows, highs)
    keep = probe_ids != rows
    lists = _split_rows(probe_ids[keep], rows[keep], count)
    return {probe: pointset.take(matches) for probe, matches in enumerate(lists)}
