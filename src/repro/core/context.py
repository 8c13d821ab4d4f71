"""Query- and update-phase contexts handed to agent behaviour code.

The *query context* is how an agent sees the rest of the world during the
query phase: it can enumerate the agents inside its visible region (a spatial
index accelerates the lookup) and draw deterministic random numbers.  The
*update context* lets an agent draw random numbers and request births and
deaths, which the engine applies at the tick boundary.

Both the sequential reference engine and the BRACE workers build the same
context classes, so agent code is oblivious to where it runs — exactly the
transparency BRASIL promises domain scientists.
"""

from __future__ import annotations

import math
from operator import is_
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.errors import VisibilityError, WorldError
from repro.core.ordering import agent_sort_key
from repro.core.soa import pack_positions, rows_by_class
from repro.spatial.bbox import BBox
from repro.spatial.columnar import PointSet, VectorizedGrid, batch_neighbor_pairs
from repro.spatial.grid import UniformGrid
from repro.spatial.kdtree import KDTree
from repro.spatial.quadtree import QuadTree

#: Extent size from which ``spatial_backend=None`` (auto) prefers the
#: columnar kernels: below this the per-tick snapshot costs more than the
#: handful of interpreted probes it replaces.
AUTO_VECTORIZE_MIN_AGENTS = 64


def resolve_spatial_backend(backend: str | None, index: str | None, num_agents: int) -> str:
    """Resolve a ``spatial_backend`` knob to ``"python"`` or ``"vectorized"``.

    ``None`` (auto) picks the vectorized columnar kernels when an index was
    requested (``index=None`` is an explicit ask for the un-indexed
    nested-loop baseline, which stays interpreted so the Figure 3/4
    no-indexing series keep their meaning) and the extent is large enough
    to amortize the snapshot.
    """
    if backend in ("python", "vectorized"):
        return backend
    if backend is not None:
        raise WorldError(
            f"unknown spatial backend {backend!r}; expected 'python', "
            "'vectorized' or None for automatic selection"
        )
    if index is not None and num_agents >= AUTO_VECTORIZE_MIN_AGENTS:
        return "vectorized"
    return "python"


def agent_rng(seed: int, tick: int, agent_id: Any) -> np.random.Generator:
    """A deterministic per-(seed, tick, agent) random generator.

    The stream depends only on the triple, never on execution order, so a
    sequential run and a distributed BRACE run draw identical numbers for the
    same agent at the same tick — the foundation of the equivalence tests.
    """
    if isinstance(agent_id, (tuple, list)):
        components = [int(part) for part in agent_id]
    else:
        components = [int(agent_id)]
    return np.random.default_rng([int(seed) & 0x7FFFFFFF, int(tick), *components])


class LazyAgentRng:
    """The :func:`agent_rng` generator of one agent, built on first use.

    Seeding a generator costs far more than most agents' draws, and many
    agents draw nothing in a given tick.  This stand-in keeps the
    ``(seed, tick, agent_id)`` triple and calls :func:`agent_rng` when an
    attribute (a draw method) is first touched, delegating to that generator
    from then on, so the stream is bit-identical to calling
    :func:`agent_rng` directly and an agent that never draws pays nothing.
    """

    __slots__ = ("_key", "_generator")

    def __init__(self, seed: int, tick: int, agent_id: Any):
        self._key = (seed, tick, agent_id)
        self._generator: np.random.Generator | None = None

    def __getattr__(self, name: str) -> Any:
        generator = self._generator
        if generator is None:
            generator = self._generator = agent_rng(*self._key)
        return getattr(generator, name)


class QueryContext:
    """The read-only view of the world an agent gets during the query phase.

    Parameters
    ----------
    agents:
        Every agent this context can serve (the full extent for the
        sequential engine; owned agents plus replicas for a BRACE worker).
    tick:
        Current tick number.
    seed:
        Simulation seed used for the per-agent random streams.
    index:
        ``"kdtree"``, ``"grid"``, ``"quadtree"`` or ``None`` (linear scan).
    cell_size:
        Grid cell size when ``index == "grid"``.
    check_visibility:
        When True, :meth:`neighbors` raises :class:`VisibilityError` if asked
        for a radius larger than the probing agent's declared visibility.
    spatial_backend:
        ``"python"`` (interpreted per-probe queries against the chosen
        index), ``"vectorized"`` (columnar batch kernels answering every
        probe of the tick in a handful of array operations) or ``None`` for
        automatic selection (:func:`resolve_spatial_backend`).
    snapshot:
        Optional prebuilt :class:`~repro.spatial.columnar.PointSet` over
        exactly these agents in canonical (:func:`agent_sort_key`) order —
        how a worker hands over the positions it already packed during the
        distribution phase.  Its row order is adopted as the context's
        canonical order; the extent is not sorted again.  Ignored by the
        python backend.

    Both backends return neighbour/visible matches in the *canonical agent
    order* (ascending :func:`agent_sort_key`), so every floating-point
    accumulation an agent performs over its matches is bit-identical
    regardless of backend, index choice, or how the extent was assembled.
    """

    def __init__(
        self,
        agents: Sequence[Any],
        tick: int,
        seed: int,
        index: str | None = "kdtree",
        cell_size: float | None = None,
        check_visibility: bool = True,
        spatial_backend: str | None = None,
        snapshot: PointSet | None = None,
    ):
        self._agents = list(agents)
        self.tick = tick
        self.seed = seed
        self.index_kind = index
        self.check_visibility = check_visibility
        self.work_units = 0
        self.index_probes = 0
        self.spatial_backend = resolve_spatial_backend(
            spatial_backend, index, len(self._agents)
        )
        self._snapshot = snapshot if self.spatial_backend == "vectorized" else None
        self._canonical_list: list[Any] | None = (
            snapshot.items if self._snapshot is not None else None
        )
        self._canonical_rank: dict[int, int] | None = None
        #: The log-cost index descent every indexed probe is charged.
        self._probe_base = max(1, int(math.log2(len(self._agents) + 1)))
        #: radius -> the self-join's per-row runs (see :meth:`_row_runs`).
        self._neighbor_batches: dict[float, tuple] = {}
        #: Lazily computed σ_V batch over the snapshot (vectorized only), as
        #: CSR: row ``r`` matched ``match_rows[offsets[r]:offsets[r + 1]]``
        #: (ascending, self included) and surfaced ``examined[r]`` candidates;
        #: ``probe_ids`` is the join's own expansion of ``offsets`` (the
        #: probing row of every entry of ``match_rows``).
        self._visible_batch: tuple[np.ndarray, ...] | None = None
        #: The σ_V batch as per-row runs, for per-agent :meth:`visible` calls.
        self._visible_runs: tuple | None = None
        if self.spatial_backend == "vectorized":
            self._index = None
        else:
            self._index = self._build_index(index, cell_size)

    def _build_index(self, index: str | None, cell_size: float | None):
        if index is None or not self._agents:
            return None
        key = lambda agent: agent.position()
        if index == "kdtree":
            return KDTree(self._agents, key=key)
        if index == "grid":
            if cell_size is None:
                cell_size = self._default_cell_size()
            return UniformGrid(self._agents, cell_size, key=key)
        if index == "quadtree":
            return QuadTree(self._agents, key=key)
        raise WorldError(f"unknown spatial index {index!r}")

    def _default_cell_size(self) -> float:
        radii = [
            radius
            for agent in self._agents
            for radius in agent.visibility_radii()
            if radius is not None
        ]
        return max(radii) if radii else 1.0

    # ------------------------------------------------------------------
    # Extent access
    # ------------------------------------------------------------------
    def agents(self) -> list[Any]:
        """Every agent visible to this context (the BRASIL ``Extent``)."""
        self.work_units += len(self._agents)
        return list(self._agents)

    def __len__(self) -> int:
        return len(self._agents)

    # ------------------------------------------------------------------
    # Neighbourhood queries
    # ------------------------------------------------------------------
    def neighbors(
        self,
        agent: Any,
        radius: float | None = None,
        include_self: bool = False,
    ) -> list[Any]:
        """Agents within Euclidean ``radius`` of ``agent``, in canonical order.

        ``radius`` defaults to the agent's smallest declared visibility bound.
        """
        if radius is None:
            radius = self._default_radius(agent)
        self._check_radius(agent, radius)
        radius = float(radius)
        if self.spatial_backend == "vectorized":
            return self._neighbors_vectorized(agent, radius, include_self)
        center = agent.position()
        candidates = self._candidates(BBox.around(center, radius))
        radius_sq = radius * radius
        matches = []
        for candidate in candidates:
            if candidate is agent and not include_self:
                continue
            point = candidate.position()
            dist_sq = sum((p - c) ** 2 for p, c in zip(point, center))
            if dist_sq <= radius_sq:
                matches.append(candidate)
        self.work_units += len(candidates)
        return self._in_canonical_order(matches)

    def neighbors_in_box(self, agent: Any, box: BBox, include_self: bool = False) -> list[Any]:
        """Agents whose position lies inside ``box``, in canonical order."""
        if self.spatial_backend == "vectorized":
            snapshot = self._ensure_snapshot()
            rows = snapshot.scan_box(box.lows, box.highs)
            self.work_units += self._probe_work(len(rows))
            self.index_probes += 1
            return self._materialize(snapshot, rows, agent, include_self)
        candidates = self._candidates(box)
        matches = []
        for candidate in candidates:
            if candidate is agent and not include_self:
                continue
            if box.contains_point(candidate.position()):
                matches.append(candidate)
        self.work_units += len(candidates)
        return self._in_canonical_order(matches)

    def visible(self, agent: Any, include_self: bool = False) -> list[Any]:
        """Agents inside ``agent``'s declared visible region, in canonical order."""
        if self.spatial_backend == "vectorized":
            return self._visible_vectorized(agent, include_self)
        region = agent.visible_region()
        if region is None:
            result = [
                a for a in self._canonical_agents() if include_self or a is not agent
            ]
            self.work_units += len(self._agents)
            return result
        return self.neighbors_in_box(agent, region, include_self=include_self)

    def nearest(self, agent: Any, k: int = 1, max_radius: float | None = None) -> list[Any]:
        """Up to ``k`` nearest other agents, optionally within ``max_radius``.

        The vectorized backend breaks exact distance ties by canonical order;
        the k-d tree path breaks them by traversal order.
        """
        center = agent.position()
        if self.spatial_backend == "vectorized":
            found = self._nearest_vectorized(agent, center, k)
        elif isinstance(self._index, KDTree):
            self.index_probes += 1
            # Ask for one extra in case the agent itself is indexed here.
            found = [a for a in self._index.k_nearest(center, k + 1) if a is not agent][:k]
        else:
            ranked = sorted(
                (a for a in self._agents if a is not agent),
                key=lambda a: sum((p - c) ** 2 for p, c in zip(a.position(), center)),
            )
            self.work_units += len(self._agents)
            found = ranked[:k]
        if max_radius is not None:
            radius_sq = max_radius * max_radius
            found = [
                a
                for a in found
                if sum((p - c) ** 2 for p, c in zip(a.position(), center)) <= radius_sq
            ]
        return found

    def rng(self, agent: Any) -> LazyAgentRng:
        """Deterministic random generator for ``agent`` at this tick.

        Built on first use (see :class:`LazyAgentRng`): the same stream as
        :func:`agent_rng`, at no cost to an agent that never draws.
        """
        return LazyAgentRng(self.seed, self.tick, agent.agent_id)

    # ------------------------------------------------------------------
    # Internals — canonical ordering
    # ------------------------------------------------------------------
    def _canonical_agents(self) -> list[Any]:
        """The extent in canonical order (also the snapshot's row order)."""
        if self._canonical_list is None:
            self._canonical_list = sorted(
                self._agents, key=lambda agent: agent_sort_key(agent.agent_id)
            )
        return self._canonical_list

    def _rank(self) -> dict[int, int]:
        """Object id → canonical rank, built once per context."""
        if self._canonical_rank is None:
            self._canonical_rank = {
                id(agent): rank for rank, agent in enumerate(self._canonical_agents())
            }
        return self._canonical_rank

    def _in_canonical_order(self, matches: list[Any]) -> list[Any]:
        """Sort ``matches`` into canonical order (in place, returned)."""
        if len(matches) > 1:
            rank = self._rank()
            matches.sort(key=lambda agent: rank[id(agent)])
        return matches

    # ------------------------------------------------------------------
    # Internals — vectorized backend
    # ------------------------------------------------------------------
    def _ensure_snapshot(self) -> PointSet:
        """The columnar snapshot over the extent, built at most once."""
        if self._snapshot is None:
            canonical = self._canonical_agents()
            self._snapshot = PointSet(canonical, points=pack_positions(canonical))
        return self._snapshot

    def _materialize(self, snapshot, rows, agent, include_self) -> list[Any]:
        """Turn match rows into agent objects, honouring self-exclusion."""
        row = snapshot.row_of(agent)
        if not include_self and row is not None:
            rows = rows[rows != row]
            return snapshot.take(rows)
        matches = snapshot.take(rows)
        if not include_self and row is None:
            matches = [match for match in matches if match is not agent]
        return matches

    def _probe_work(self, candidates: int) -> int:
        """The python backend's work charge for one indexed probe.

        One log-cost index descent plus the surfaced candidates — charged
        identically on both backends so virtual-time measurements stay
        comparable when the backend flips between runs or worker sizes.
        """
        return self._probe_base + candidates

    def _neighbors_vectorized(self, agent, radius, include_self) -> list[Any]:
        snapshot = self._ensure_snapshot()
        row = snapshot.row_of(agent)
        self.index_probes += 1
        if row is None:
            # Probe from outside the extent: one columnar scan.
            rows = snapshot.scan_radius(agent.position(), radius)
            self.work_units += self._probe_work(len(rows))
            return self._materialize(snapshot, rows, agent, include_self)
        runs = self._neighbor_batches.get(radius)
        if runs is None:
            probe_ids, match_rows, examined = batch_neighbor_pairs(snapshot, radius)
            runs = self._neighbor_batches[radius] = self._row_runs(
                probe_ids, match_rows, examined
            )
        return self._serve_row(snapshot, runs, row, include_self)

    def _visible_vectorized(self, agent, include_self) -> list[Any]:
        snapshot = self._ensure_snapshot()
        if not agent.has_bounded_visibility():
            # Mirror the interpreted path exactly, including its work charge:
            # a full-extent scan, no index probe.
            self.work_units += len(self._agents)
            return [a for a in snapshot.items if include_self or a is not agent]
        row = snapshot.row_of(agent)
        self.index_probes += 1
        if row is None:
            region = agent.visible_region()
            rows = snapshot.scan_box(region.lows, region.highs)
            self.work_units += self._probe_work(len(rows))
            return self._materialize(snapshot, rows, agent, include_self)
        if self._visible_runs is None:
            _, probe_ids, match_rows, examined = self._visible_csr()
            self._visible_runs = self._row_runs(probe_ids, match_rows, examined)
        return self._serve_row(snapshot, self._visible_runs, row, include_self)

    def _row_runs(self, probe_ids, match_rows, examined) -> tuple:
        """A batch join's pairs as per-row runs a probe serves without array work.

        Returns ``(offsets, match_rows, charges, self_at)``: row ``r``'s
        matches are ``match_rows[offsets[r]:offsets[r + 1]]`` (ascending),
        its probe costs ``charges[r]`` work units and, when the row matched
        itself, ``self_at[r]`` is that match's position in its run (else
        -1).  All but ``match_rows`` are Python lists.
        """
        count = len(examined)
        offsets = np.searchsorted(probe_ids, np.arange(count + 1))
        self_pairs = np.flatnonzero(match_rows == probe_ids)
        self_rows = probe_ids[self_pairs]
        self_at = np.full(count, -1, dtype=np.intp)
        self_at[self_rows] = self_pairs - offsets[self_rows]
        charges = examined + self._probe_base
        return offsets.tolist(), match_rows, charges.tolist(), self_at.tolist()

    def _serve_row(self, snapshot: PointSet, runs: tuple, row: int, include_self: bool):
        """Charge row ``row``'s probe and materialize its matches from ``runs``."""
        offsets, match_rows, charges, self_at = runs
        self.work_units += charges[row]
        rows = match_rows[offsets[row] : offsets[row + 1]].tolist()
        if not include_self and self_at[row] >= 0:
            del rows[self_at[row]]
        items = snapshot.items
        return [items[match] for match in rows]

    def visible_pairs(self, probes: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
        """Every probe's visible matches at once, as two parallel index arrays.

        The set-at-a-time form of :meth:`visible` for the plan kernels:
        pair ``k`` says probe ``probes[pair_probe[k]]`` sees the agent at
        canonical row ``pair_rows[k]`` (the snapshot's row order, i.e.
        ascending :func:`agent_sort_key` over the extent).  Pairs are laid
        out probe-major, matches ascending, the probe itself excluded —
        exactly what calling ``visible(probe)`` once per probe, in order,
        returns — and ``work_units`` / ``index_probes`` are charged exactly
        what those calls would charge.

        When the vectorized batch covers every probe the arrays are gathered
        straight from its CSR — and when the probes *are* the snapshot, row
        for row, they are the join's own pair arrays minus the self pairs;
        otherwise (python backend, unbounded visibility, a probe outside the
        snapshot) they are assembled from :meth:`visible` itself, so callers
        have one code path.
        """
        if not probes:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        rows = self._batch_rows(probes)
        if rows is None:
            rank = self._rank()
            counts, matched = [], []
            for agent in probes:
                matches = self.visible(agent)
                counts.append(len(matches))
                matched.extend(rank[id(match)] for match in matches)
            pair_probe = np.repeat(np.arange(len(probes), dtype=np.intp), counts)
            return pair_probe, np.array(matched, dtype=np.intp)
        offsets, probe_ids, match_rows, examined = self._visible_csr()
        self.index_probes += len(probes)
        self.work_units += len(probes) * self._probe_work(0) + int(examined[rows].sum())
        if len(rows) == len(examined) and (rows == np.arange(len(rows))).all():
            # Probe k is row k: the join's (probe, row) pairs are the answer.
            others = np.flatnonzero(match_rows != probe_ids)
            return probe_ids[others], match_rows[others]
        starts = offsets[rows]
        counts = offsets[rows + 1] - starts
        pair_probe = np.repeat(np.arange(len(probes), dtype=np.intp), counts)
        # Position of every pair inside match_rows: each probe's run start
        # plus the pair's offset within its run.
        positions = np.arange(len(pair_probe), dtype=np.intp)
        positions += np.repeat(starts - (np.cumsum(counts) - counts), counts)
        pair_rows = match_rows[positions]
        others = np.flatnonzero(pair_rows != rows[pair_probe])
        return pair_probe[others], pair_rows[others]

    def _batch_rows(self, probes: Sequence[Any]) -> np.ndarray | None:
        """Snapshot rows of ``probes`` when the σ_V batch serves all of them."""
        if self.spatial_backend != "vectorized":
            return None
        if not all(cls.has_bounded_visibility() for cls in set(map(type, probes))):
            return None
        snapshot = self._ensure_snapshot()
        if len(probes) == len(snapshot) and all(map(is_, probes, snapshot.items)):
            return np.arange(len(probes), dtype=np.intp)
        rows = [snapshot.row_of(agent) for agent in probes]
        if None in rows:
            return None
        return np.array(rows, dtype=np.intp)

    def _visible_csr(self) -> tuple[np.ndarray, ...]:
        """The σ_V batch ``(offsets, probe_ids, match_rows, examined)``, joined at most once."""
        if self._visible_batch is None:
            self._visible_batch = self._build_visible_batch(self._ensure_snapshot())
        return self._visible_batch

    def _build_visible_batch(self, snapshot: PointSet):
        """Batch σ_V probe: every row's declared visible region at once.

        Probe boxes are column arithmetic per agent class — ``points -
        radii`` / ``points + radii``, the same float64 operations
        :meth:`BBox.around` performs per agent, including its rejection of
        a negative radius.  Rows with unbounded visibility never consult
        the batch (they take the full-extent path), so their probe boxes
        stay voided — the kernel marks them invalid and does no work for
        them.
        """
        points = snapshot.points
        lows = np.full_like(points, np.inf)
        highs = np.full_like(points, -np.inf)
        bounded = np.zeros(len(points), dtype=bool)
        for cls, rows in rows_by_class(snapshot.items).items():
            if not cls.has_bounded_visibility():
                continue
            radii = np.array(cls.visibility_radii(), dtype=np.float64)
            lows[rows] = points[rows] - radii
            highs[rows] = points[rows] + radii
            bounded[rows] = True
        bounded_lows, bounded_highs = lows[bounded], highs[bounded]
        inverted = bounded_lows > bounded_highs
        if inverted.any():
            raise ValueError(
                "BBox interval has low > high: "
                f"({bounded_lows[inverted][0]}, {bounded_highs[inverted][0]})"
            )
        if bounded.any():
            # Half the widest box side: a probe then sweeps two or three
            # strips per binned dimension, and the candidates it surfaces
            # beyond its box shrink with the strip (dimension 0 is exact).
            cell = np.maximum((bounded_highs - bounded_lows).max(axis=0) / 2, 1e-12)
        else:
            cell = np.maximum(points.max(axis=0) - points.min(axis=0), 1.0)
        grid = VectorizedGrid(snapshot, cell)
        probe_ids, match_rows, examined = grid.batch_range_query(lows, highs)
        offsets = np.searchsorted(probe_ids, np.arange(len(points) + 1))
        return offsets, probe_ids, match_rows, examined

    def _nearest_vectorized(self, agent, center, k: int) -> list[Any]:
        snapshot = self._ensure_snapshot()
        points = snapshot.points
        # Charge what the python path would for the configured index, so
        # virtual-time accounting stays backend-independent.
        if self.index_kind == "kdtree":
            self.index_probes += 1
        else:
            self.work_units += len(self._agents)
        if len(points) == 0 or k <= 0:
            return []
        center_arr = np.asarray(tuple(map(float, center)), dtype=np.float64)
        diff = points - center_arr
        dist_sq = diff[:, 0] * diff[:, 0]
        for dimension in range(1, points.shape[1]):
            dist_sq = dist_sq + diff[:, dimension] * diff[:, dimension]
        order = np.argsort(dist_sq, kind="stable")
        row = snapshot.row_of(agent)
        found = []
        for candidate_row in order:
            candidate = snapshot.items[int(candidate_row)]
            if candidate is agent or (row is not None and int(candidate_row) == row):
                continue
            found.append(candidate)
            if len(found) == k:
                break
        return found

    def _candidates(self, box: BBox) -> Iterable[Any]:
        if self._index is None:
            return self._agents
        self.index_probes += 1
        self.work_units += self._probe_base
        return self._index.range_query(box)

    def _default_radius(self, agent: Any) -> float:
        radii = [radius for radius in agent.visibility_radii() if radius is not None]
        if not radii:
            raise WorldError(
                f"{type(agent).__name__} has no bounded visibility; pass an explicit radius"
            )
        return min(radii)

    def _check_radius(self, agent: Any, radius: float) -> None:
        if not self.check_visibility or radius <= type(agent)._radius_limit:
            return
        for bound in agent.visibility_radii():
            if bound is not None and radius > bound * (1 + 1e-9):
                raise VisibilityError(
                    f"{type(agent).__name__} #{agent.agent_id} queried radius {radius} "
                    f"which exceeds its visibility bound {bound}"
                )


class UpdateContext:
    """The view an agent gets during the update phase.

    Only the agent's own state and aggregated effects may be read; the context
    additionally offers deterministic randomness and birth/death requests.
    """

    def __init__(self, tick: int, seed: int, world_bounds: BBox | None = None):
        self.tick = tick
        self.seed = seed
        self.world_bounds = world_bounds
        self._spawn_requests: list[tuple[Any, int, Any]] = []
        self._kill_requests: set[Any] = set()
        self._spawn_counts: dict[Any, int] = {}

    def rng(self, agent: Any) -> LazyAgentRng:
        """Deterministic random generator for ``agent`` at this tick.

        The stream is offset from the query-phase stream so query and update
        draws never overlap.  Built on first use (see :class:`LazyAgentRng`):
        the same stream as :func:`agent_rng`, at no cost to an agent that
        never draws.
        """
        return LazyAgentRng(self.seed ^ 0x5BD1E995, self.tick, agent.agent_id)

    def spawn(self, parent: Any, child: Any) -> None:
        """Request that ``child`` (an agent without an id) joins the world next tick."""
        sequence = self._spawn_counts.get(parent.agent_id, 0)
        self._spawn_counts[parent.agent_id] = sequence + 1
        self._spawn_requests.append((parent.agent_id, sequence, child))

    def kill(self, agent: Any) -> None:
        """Request that ``agent`` is removed from the world at the tick boundary."""
        self._kill_requests.add(agent.agent_id)

    @property
    def spawn_requests(self) -> list[tuple[Any, int, Any]]:
        """Pending ``(parent_id, sequence, child)`` spawn requests."""
        return list(self._spawn_requests)

    @property
    def kill_requests(self) -> set[Any]:
        """Ids of agents whose removal has been requested."""
        return set(self._kill_requests)

    def merge(self, other: "UpdateContext") -> None:
        """Fold another context's birth/death requests into this one.

        Used by the BRACE master to combine the requests collected by every
        worker before applying them globally in a deterministic order.
        """
        self._spawn_requests.extend(other._spawn_requests)
        self._kill_requests.update(other._kill_requests)
