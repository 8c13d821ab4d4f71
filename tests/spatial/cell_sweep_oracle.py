"""The pre-rank-run σ_V join, kept verbatim as the oracle.

Until the rank-run range search replaced it, ``VectorizedGrid`` binned
*every* dimension and swept one cell offset at a time over all of them.
This module is that class exactly as it stood in
``src/repro/spatial/columnar.py`` (constructor, ``_batch_join`` sweep and
both exact batch joins); only the class name changed.  It exists for
``test_join_oracle.py``: the production join must return ``array_equal``
``(probe_ids, match_rows, examined)`` on every input.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.spatial.columnar import PointSet

#: The sweep's caps at the time it was replaced (same values as production).
MAX_SPAN_PER_DIM = 8
MAX_CELLS_PER_PROBE = 64


def _columns(matrix: np.ndarray) -> list[np.ndarray]:
    """One contiguous array per dimension of an ``(n, dim)`` matrix."""
    return [np.ascontiguousarray(matrix[:, dimension]) for dimension in range(matrix.shape[1])]


class CellSweepGrid:
    """A uniform grid over a :class:`PointSet`, built with array ops only.

    Binning is ``np.floor(points / cell_size)``; buckets are contiguous runs
    of one stable ``argsort`` over the flattened cell keys (lexicographic
    bucketing), located per query with two ``searchsorted`` calls.  Because
    the sort is stable, every bucket lists its rows in ascending order — the
    canonical match order falls out of the data layout for free.
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
        if count == 0 or dim == 0:
            self.cell_size = cell
            self._origin = np.zeros(max(dim, 1), dtype=np.float64)
            self._min_cell = np.zeros(max(dim, 1), dtype=np.int64)
            self._max_cell = self._min_cell
            self._strides = np.ones(max(dim, 1), dtype=np.int64)
            self._order = np.zeros(0, dtype=np.intp)
            self._sorted_keys = np.zeros(0, dtype=np.int64)
            return
        # Bin relative to the data's own origin: cell indices then span only
        # the occupied extent, so coordinates far from zero cannot overflow.
        # A requested cell size far smaller than the extent is clamped so the
        # per-dimension index space stays bounded (the exact filters make
        # oversized cells a performance detail, never a correctness one).
        self._origin = points.min(axis=0)
        span = points.max(axis=0) - self._origin
        max_cells_per_axis = float(2 ** (50 // dim))
        cell = np.maximum(cell, span / max_cells_per_axis)
        self.cell_size = cell
        cells = np.floor((points - self._origin) / cell).astype(np.int64)
        self._min_cell = cells.min(axis=0)
        self._max_cell = cells.max(axis=0)
        spans = self._max_cell - self._min_cell + 1
        strides = np.ones(dim, dtype=np.int64)
        for dimension in range(dim - 2, -1, -1):
            strides[dimension] = strides[dimension + 1] * spans[dimension + 1]
        keys = (cells - self._min_cell) @ strides
        self._strides = strides
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    # ------------------------------------------------------------------
    # The batched join sweep
    # ------------------------------------------------------------------
    def _batch_join(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        keep: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run every probe box through the grid with an exact ``keep`` filter.

        ``lows``/``highs`` are ``(n_probes, dim)`` closed box bounds (they
        may be infinite; they are clamped to the occupied extent first);
        ``keep(probe_ids, rows)`` returns ``(match_mask, work_mask)`` for a
        chunk of candidate pairs — the exact matches, and the candidates an
        interpreted index would have surfaced for the same probe (its work
        charge).  Returns ``(probe_ids, match_rows, examined)`` with the
        pair arrays sorted by ``(probe, row)`` and ``examined[p]`` counting
        probe ``p``'s work-mask candidates, so per-probe work units are
        comparable across the python and vectorized backends (virtual-time
        figures must not shift when the backend flips mid-sweep).

        The sweep enumerates one cell offset at a time, filtering each
        chunk *before* anything global happens, so memory traffic scales
        with the matches, not the candidates; the final per-probe ordering
        costs one single-key sort of composite ``probe * n + row`` keys.
        Probes whose clamped box spans more than :data:`MAX_SPAN_PER_DIM`
        cells in a dimension (or :data:`MAX_CELLS_PER_PROBE` overall) fall
        back to one exact columnar scan each, so unbounded visible regions
        cannot blow up the cell enumeration.
        """
        points = self.pointset.points
        count, dim = points.shape
        n_probes = len(lows)
        empty = np.zeros(0, dtype=np.int64)
        examined = np.zeros(n_probes, dtype=np.int64)
        if count == 0 or n_probes == 0:
            return empty, empty, examined

        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        # Clamp into (just beyond) the occupied extent so ±inf or far-away
        # boxes bin cleanly; validity is judged on the clamped cells below.
        pad_lo = self._origin + (self._min_cell - 1) * self.cell_size
        pad_hi = self._origin + (self._max_cell + 2) * self.cell_size
        low_cells = np.floor(
            (np.clip(lows, pad_lo, pad_hi) - self._origin) / self.cell_size
        ).astype(np.int64)
        high_cells = np.floor(
            (np.clip(highs, pad_lo, pad_hi) - self._origin) / self.cell_size
        ).astype(np.int64)

        valid = (high_cells >= self._min_cell).all(axis=1)
        valid &= (low_cells <= self._max_cell).all(axis=1)
        low_cells = np.clip(low_cells, self._min_cell, self._max_cell)
        high_cells = np.clip(high_cells, self._min_cell, self._max_cell)
        probe_spans = high_cells - low_cells + 1
        wide = valid & (
            (probe_spans > MAX_SPAN_PER_DIM).any(axis=1)
            | (probe_spans.prod(axis=1) > MAX_CELLS_PER_PROBE)
        )
        narrow = valid & ~wide

        key_chunks: list[np.ndarray] = []

        if narrow.any():
            reach = probe_spans[narrow].max(axis=0)
            offset_span = high_cells - low_cells
            for offset in np.ndindex(*reach):
                offset = np.asarray(offset, dtype=np.int64)
                mask = narrow & (offset <= offset_span).all(axis=1)
                if not mask.any():
                    continue
                keys = (low_cells[mask] + offset - self._min_cell) @ self._strides
                starts = np.searchsorted(self._sorted_keys, keys, side="left")
                ends = np.searchsorted(self._sorted_keys, keys, side="right")
                counts = ends - starts
                total = int(counts.sum())
                if total == 0:
                    continue
                probes = np.flatnonzero(mask)
                cumulative = np.cumsum(counts) - counts
                positions = np.arange(total, dtype=np.int64)
                positions += np.repeat(starts - cumulative, counts)
                rows = self._order[positions]
                probe_ids = np.repeat(probes, counts)
                matched, worked = keep(probe_ids, rows)
                examined += np.bincount(probe_ids[worked], minlength=n_probes)
                key_chunks.append((probe_ids[matched] * count + rows[matched]))

        for probe in np.flatnonzero(wide):
            rows = self.pointset.scan_box(lows[probe], highs[probe])
            probe_ids = np.full(len(rows), probe, dtype=np.int64)
            matched, worked = keep(probe_ids, rows)
            examined[probe] += int(np.count_nonzero(worked))
            # Scan rows are already ascending: the composite keys are sorted.
            key_chunks.append(probe_ids[matched] * count + rows[matched])

        if not key_chunks:
            return empty, empty, examined
        keys = np.concatenate(key_chunks)
        # (probe, row) pairs are unique across cell offsets, so one unstable
        # single-key sort recovers the canonical (probe, row) order.
        keys.sort()
        probe_ids = keys // count
        match_rows = keys - probe_ids * count
        return probe_ids, match_rows, examined

    # ------------------------------------------------------------------
    # Exact batch joins
    # ------------------------------------------------------------------
    def batch_range_query(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact closed-box matches for every probe box, in one sweep.

        Returns ``(probe_ids, match_rows, examined)`` with the pair arrays
        sorted by ``(probe, row)``.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        columns = _columns(self.pointset.points)
        low_columns, high_columns = _columns(lows), _columns(highs)

        def keep(probe_ids: np.ndarray, rows: np.ndarray):
            inside = np.ones(len(rows), dtype=bool)
            for column, low, high in zip(columns, low_columns, high_columns):
                coordinate = column[rows]
                inside &= coordinate >= low[probe_ids]
                inside &= coordinate <= high[probe_ids]
            return inside, inside

        return self._batch_join(lows, highs, keep)

    def batch_radius_query(
        self, centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact Euclidean-ball matches around every center, in one sweep.

        Matches satisfy the closed box ``center ± radius`` *and* the squared
        Euclidean distance test, exactly like the interpreted path (a box
        range query pruned by distance).  The box test is not redundant: for
        subnormal-scale offsets the squared distance underflows to zero
        while the box still excludes the point.
        """
        centers = np.asarray(centers, dtype=np.float64)
        radius = float(radius)
        radius_sq = radius * radius
        columns = _columns(self.pointset.points)
        center_columns = _columns(centers)

        def keep(probe_ids: np.ndarray, rows: np.ndarray):
            inside = np.ones(len(rows), dtype=bool)
            dist_sq = np.zeros(len(rows), dtype=np.float64)
            for column, center_column in zip(columns, center_columns):
                coordinate = column[rows]
                center = center_column[probe_ids]
                inside &= coordinate >= center - radius
                inside &= coordinate <= center + radius
                # Left-to-right accumulation, as in _pairwise_dist_sq.
                diff = coordinate - center
                dist_sq += diff * diff
            # Work charge = the box candidates an interpreted index surfaces;
            # matches additionally pass the distance test.
            return inside & (dist_sq <= radius_sq), inside

        return self._batch_join(centers - radius, centers + radius, keep)
