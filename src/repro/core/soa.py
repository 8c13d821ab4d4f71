"""Structure-of-arrays (SoA) packing for per-shard agent state.

The interpreted runtime stores agent state as one ``dict`` per agent object
(:class:`~repro.core.agent.Agent`).  The columnar plan kernels
(:mod:`repro.brasil.kernels`) instead want each numeric field of a class as
one contiguous NumPy column so a whole query or update phase becomes a
handful of array operations.  :class:`AgentTable` is that column form: it
packs one class's agents — in the same canonical order the
:class:`~repro.spatial.columnar.PointSet` snapshot uses — into ``float64``
columns.

On a worker the table is *resident*.  The query kernel hands it, with its
effect accumulator columns, to the update kernel
(:class:`repro.brasil.kernels.EffectHandoff`); the update kernel writes the
new state into it; and the owned rows stay with the shard into the next
tick, whose map phase reads positions from the spatial columns and whose
query kernel reuses the rows instead of packing the objects again.  So the
columns run ahead of the objects, and :meth:`AgentTable.writeback` is
*materialization*: it brings the objects up to the columns, only where
someone reads them — the rows a map phase ships or migrates, the whole
shard before a capture, a sync, a repartitioning or an interpreted phase.
Constructing a table is the one pack path; a shard that materialized
everything builds its next table through it again.  Effects never pass
through this module.

Bit-identity is the contract, so packing is conservative:

* ``float`` values pass through exactly (they already are IEEE doubles);
* ``bool`` packs as 0.0/1.0 and ``int`` packs as its exact ``float64``
  value **only** when the round-trip is lossless (|v| ≤ 2**53 in effect);
* anything else — strings, tuples, ``None``, or an integer a double cannot
  represent (the "far-origin position" overflow case) — raises
  :class:`UnpackableValueError` so the caller falls back to the
  interpreted per-object path instead of silently corrupting state.

Writeback is keyed by the *object references* captured at pack time, not by
row position in some later list, so agents born or killed between pack and
writeback cannot shift rows: new agents are simply not in the table, and
rows whose agents left the world write to an unreferenced ``_state`` dict,
which is harmless.  A cell whose bit pattern never moved since the objects
were last written is not written at all, so it keeps the *original* Python
object (same type, same NaN payload), making a pack → writeback round-trip
bit-identical to not packing at all.  A cell that moved and moved back is
written, as one writeback per update would have written it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.core.ordering import agent_sort_key


class UnpackableValueError(ValueError):
    """A field value cannot be packed into a ``float64`` column losslessly."""


def pack_value(value) -> float:
    """Return ``value`` as an exact ``float64``, or raise.

    Accepts floats (verbatim, NaN/inf included), bools (0.0/1.0) and ints
    that survive an exact ``int → float → int`` round trip.  Everything
    else raises :class:`UnpackableValueError`.
    """
    if type(value) is float:
        return value
    if type(value) is bool:
        return 1.0 if value else 0.0
    if type(value) is int:
        try:
            as_float = float(value)
        except OverflowError as exc:
            raise UnpackableValueError(f"int too large for float64: {value!r}") from exc
        if math.isinf(as_float) or int(as_float) != value:
            raise UnpackableValueError(
                f"int does not round-trip through float64: {value!r}"
            )
        return as_float
    raise UnpackableValueError(f"cannot pack {type(value).__name__} value {value!r}")


def pack_column(values: Iterable) -> np.ndarray:
    """Pack a sequence of field values into one ``float64`` column."""
    values = list(values)
    if set(map(type, values)) <= {float}:
        # All floats already: one C-level conversion, bit patterns verbatim.
        return np.array(values, dtype=np.float64)
    return np.array([pack_value(value) for value in values], dtype=np.float64)


#: Per-cell kind tags of a mixed :class:`PackedColumn` ("m"): the cell's
#: Python type, so decoding restores `float` vs `bool` vs `int` exactly.
CELL_FLOAT, CELL_BOOL, CELL_INT, CELL_ESCAPE = 0, 1, 2, 3


@dataclass
class PackedColumn:
    """One delta column packed standalone (no owning :class:`AgentTable`).

    ``kind`` selects the layout:

    * ``"f"`` — every cell is a ``float``; ``data`` is a ``float64`` array
      (bit-exact, NaN payloads and signed zeros included);
    * ``"i"`` — every cell is an ``int`` representable as ``int64``;
      ``data`` is an ``int64`` array (exact for the whole range, so
      ``2**53 + 1`` survives where a ``float64`` cell could not);
    * ``"b"`` — every cell is a ``bool``; ``data`` is a ``bool`` array;
    * ``"m"`` — mixed: ``data`` holds :func:`pack_value` doubles,
      ``cell_kinds`` tags each cell's Python type, and cells no double can
      carry (strings, tuples, out-of-range ints, ...) are ``CELL_ESCAPE``
      entries consumed in row order from ``escapes`` — the pickle escape
      column that keeps bit-identity off the table entirely.

    The dataclass itself is picklable, and the bulk data are NumPy arrays,
    so pickling a frame of packed columns writes raw buffers at C speed
    instead of walking Python objects cell by cell.
    """

    kind: str
    data: np.ndarray | None = None
    cell_kinds: np.ndarray | None = None
    escapes: list | None = None

    def __len__(self) -> int:
        return 0 if self.data is None else len(self.data)


def pack_cells(values: Sequence) -> PackedColumn:
    """Pack one column of delta cells, preserving every cell's exact type.

    Homogeneous columns (the overwhelmingly common case for agent state)
    take an all-array fast path; anything else falls into the mixed layout
    with per-cell kind tags and the pickle escape list.  The contract is
    ``unpack_cells(pack_cells(values)) == values`` with *identical* types
    and bit patterns, for arbitrary Python values.
    """
    # set(map(...)) runs the type scan at C speed; columns are almost
    # always homogeneous, so this one pass decides the layout.
    kinds = set(map(type, values))
    if not kinds or kinds == {float}:
        return PackedColumn("f", np.asarray(values, dtype=np.float64))
    if kinds == {bool}:
        return PackedColumn("b", np.asarray(values, dtype=np.bool_))
    if kinds == {int}:
        try:
            return PackedColumn("i", np.asarray(values, dtype=np.int64))
        except OverflowError:
            pass  # an int outside int64: fall through to the escape column
    data = np.zeros(len(values), dtype=np.float64)
    cell_kinds = np.empty(len(values), dtype=np.uint8)
    escapes: list = []
    for row, value in enumerate(values):
        kind = type(value)
        if kind is float:
            cell_kinds[row] = CELL_FLOAT
            data[row] = value
        elif kind is bool:
            cell_kinds[row] = CELL_BOOL
            data[row] = 1.0 if value else 0.0
        elif kind is int:
            try:
                data[row] = pack_value(value)
            except UnpackableValueError:
                cell_kinds[row] = CELL_ESCAPE
                escapes.append(value)
            else:
                cell_kinds[row] = CELL_INT
        else:
            cell_kinds[row] = CELL_ESCAPE
            escapes.append(value)
    return PackedColumn("m", data, cell_kinds, escapes)


def unpack_cells(column: PackedColumn) -> list:
    """Restore the exact Python cells of a column packed by :func:`pack_cells`."""
    if column.kind != "m":
        # ndarray.tolist() rebuilds native Python floats/ints/bools with the
        # element's exact value (bit pattern included for float64).
        return column.data.tolist()
    out: list = []
    escapes = iter(column.escapes or ())
    data = column.data
    for row, kind in enumerate(column.cell_kinds):
        if kind == CELL_FLOAT:
            out.append(float(data[row]))
        elif kind == CELL_BOOL:
            out.append(bool(data[row]))
        elif kind == CELL_INT:
            out.append(int(data[row]))
        else:
            out.append(next(escapes))
    return out


_DOUBLE_BITS = struct.Struct("<d").pack


def cells_equal(a, b) -> bool:
    """Exact equality of two state cells — the repo's definition of "same".

    Floats compare by IEEE-754 bit pattern: a NaN equals a NaN with the
    same payload, and ``-0.0`` differs from ``0.0``.  Everything else must
    have the same type *and* compare equal, so ``1``, ``1.0`` and ``True``
    are three different cells; tuples and lists compare cell by cell.
    """
    if isinstance(a, float) and isinstance(b, float):
        if a == b:
            return a != 0.0 or _DOUBLE_BITS(a) == _DOUBLE_BITS(b)
        return a != a and b != b and _DOUBLE_BITS(a) == _DOUBLE_BITS(b)
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(cells_equal, a, b))
    return a == b


def states_equal(mine: Mapping, theirs: Mapping) -> bool:
    """Exact equality of two ``{agent_id: {field: value}}`` state maps.

    The one oracle behind every bit-identity claim (``RunResult.
    same_states_as``, ``World.same_state_as``, the
    differential suites): same agents, same fields, every cell equal under
    :func:`cells_equal`, walked in :func:`~repro.core.ordering.agent_sort_key`
    order.  ``dict ==`` is the wrong oracle — under it two runs that both
    produce ``nan`` never agree and a flipped zero sign goes unnoticed.
    """
    if mine.keys() != theirs.keys():
        return False
    for agent_id in sorted(mine, key=agent_sort_key):
        fields, other = mine[agent_id], theirs[agent_id]
        if fields.keys() != other.keys():
            return False
        if not all(cells_equal(value, other[name]) for name, value in fields.items()):
            return False
    return True


def rows_by_class(agents: Sequence) -> Dict[type, np.ndarray]:
    """Row indices of ``agents`` grouped by exact class.

    Visibility radii, spatial field names and kernels are all declared per
    class, so the set-at-a-time paths resolve them once per class and apply
    them to that class's rows.
    """
    classes = list(map(type, agents))
    distinct = set(classes)
    if len(distinct) == 1:
        return {classes[0]: np.arange(len(classes))}
    return {
        cls: np.flatnonzero(np.fromiter((c is cls for c in classes), bool, len(classes)))
        for cls in distinct
    }


def pack_positions(agents: Sequence) -> np.ndarray:
    """The agents' positions as one ``(n, dim)`` ``float64`` matrix.

    Row ``i`` holds what ``agents[i].position()`` returns, read column by
    column from the spatial state fields of each agent's class — no method
    call, tuple or ``float()`` per agent.  Agents whose classes disagree on
    the number of spatial dimensions cannot share a matrix (``ValueError``).
    """
    groups = rows_by_class(agents)
    dims = {len(cls._spatial_fields) for cls in groups}
    if len(dims) > 1:
        raise ValueError(
            "agents disagree on their number of spatial dimensions: "
            + ", ".join(f"{cls.__name__}={len(cls._spatial_fields)}" for cls in groups)
        )
    points = np.empty((len(agents), dims.pop() if dims else 0), dtype=np.float64)
    for cls, rows in groups.items():
        members = agents if len(rows) == len(agents) else [agents[row] for row in rows.tolist()]
        states = [agent._state for agent in members]
        for column, name in enumerate(cls._spatial_fields):
            points[rows, column] = np.fromiter(
                map(itemgetter(name), states), np.float64, len(states)
            )
    return points


class AgentTable:
    """Columnar (structure-of-arrays) table over one class's agents.

    ``agents`` must all be instances of the same agent class and should be
    supplied in canonical order (``sorted(key=agent_sort_key)``) so rows
    line up with the worker's ``PointSet`` snapshot.  ``field_names``
    defaults to every declared state field of the class, in declaration
    order — the same order ``position()`` uses for spatial fields.

    Constructing a table is the one pack path.  A table built from another
    (:meth:`take`, :meth:`with_resident`) gathers columns and packs nothing
    it already holds.  Columns may run ahead of the objects: each column
    set since the objects were last written keeps a mask of the rows whose
    bits moved, and :meth:`writeback` writes exactly those cells.
    """

    def __init__(self, agents: Sequence, field_names: Sequence[str] | None = None):
        self.agents: List = list(agents)
        if field_names is None:
            if self.agents:
                field_names = list(type(self.agents[0])._state_fields)
            else:
                field_names = []
        self.field_names: List[str] = list(field_names)
        self._row_of: Dict[int, int] | None = None
        self._columns: Dict[str, np.ndarray] = {}
        #: ``field -> rows whose bits moved since the objects were written``,
        #: for every column set since then.
        self._changed: Dict[str, np.ndarray] = {}
        #: Columns mutated in place (:meth:`mark_dirty`): judged against the
        #: objects themselves at :meth:`writeback`.
        self._in_place: set = set()
        for name in self.field_names:
            self._columns[name] = pack_column([agent._state[name] for agent in self.agents])

    @classmethod
    def _from_parts(cls, agents: List, field_names: List[str], columns, changed) -> "AgentTable":
        table = cls.__new__(cls)
        table.agents = agents
        table.field_names = field_names
        table._row_of = None
        table._columns = columns
        table._changed = changed
        table._in_place = set()
        return table

    @classmethod
    def with_resident(
        cls,
        agents: Sequence,
        field_names: Sequence[str],
        resident: "AgentTable",
        rows: np.ndarray,
    ) -> "AgentTable":
        """A table over ``agents`` that reuses ``resident``'s columns.

        Row ``i`` is ``resident`` row ``rows[i]`` when that is ``>= 0`` —
        columns, and the cells still to be written, carried over — and is
        packed from ``agents[i]`` otherwise; only those rows are packed.
        ``resident`` must hold every one of ``field_names``.  When every row
        is ``resident``'s own, in its order, ``resident`` itself is returned.
        """
        names = list(field_names)
        fresh = np.flatnonzero(rows < 0)
        if (
            not len(fresh)
            and len(rows) == len(resident)
            and names == resident.field_names
            and (rows == np.arange(len(rows))).all()
        ):
            return resident
        kept = np.flatnonzero(rows >= 0)
        source = rows[kept]
        agents = list(agents)
        packed = AgentTable([agents[row] for row in fresh.tolist()], names) if len(fresh) else None
        columns: Dict[str, np.ndarray] = {}
        for name in names:
            column = np.empty(len(agents), dtype=np.float64)
            column[kept] = resident._columns[name][source]
            if packed is not None:
                column[fresh] = packed._columns[name]
            columns[name] = column
        changed: Dict[str, np.ndarray] = {}
        for name, moved in resident._changed.items():
            if name in columns:
                mask = np.zeros(len(agents), dtype=bool)
                mask[kept] = moved[source]
                changed[name] = mask
        return cls._from_parts(agents, names, columns, changed)

    def take(self, rows: np.ndarray) -> "AgentTable":
        """The table of ``rows`` only (columns and unwritten cells gathered)."""
        return self._from_parts(
            [self.agents[row] for row in rows.tolist()],
            self.field_names,
            {name: column[rows] for name, column in self._columns.items()},
            {name: moved[rows] for name, moved in self._changed.items()},
        )

    def __len__(self) -> int:
        return len(self.agents)

    def row_of(self, agent) -> int:
        """Row index of ``agent`` (by object identity)."""
        if self._row_of is None:
            self._row_of = {id(a): i for i, a in enumerate(self.agents)}
        return self._row_of[id(agent)]

    def column(self, name: str) -> np.ndarray:
        """The packed ``float64`` column for state field ``name``."""
        return self._columns[name]

    def points(self) -> np.ndarray:
        """The rows' positions as one ``(n, dim)`` matrix: the class's spatial
        columns, so row ``i`` is what ``agents[i].position()`` returns once
        the row is written back."""
        if not self.agents:
            return np.zeros((0, 0), dtype=np.float64)
        names = type(self.agents[0])._spatial_fields
        return np.column_stack([self._columns[name] for name in names])

    def set_column(self, name: str, values: np.ndarray) -> None:
        """Replace a column; the rows whose bits moved are written back later."""
        column = np.asarray(values, dtype=np.float64)
        if column.shape != (len(self.agents),):
            raise ValueError(
                f"column {name!r} has shape {column.shape}, "
                f"expected ({len(self.agents)},)"
            )
        # uint64 views compare bit patterns: NaN payloads and the sign of
        # zero count, exactly as cells_equal defines "same".
        moved = column.view(np.uint64) != self._columns[name].view(np.uint64)
        prior = self._changed.get(name)
        self._changed[name] = moved if prior is None else prior | moved
        self._columns[name] = column

    def mark_dirty(self, name: str) -> None:
        """Mark a column mutated in place as needing :meth:`writeback`."""
        if name not in self._columns:
            raise KeyError(name)
        self._in_place.add(name)

    def writeback(self, rows: np.ndarray | None = None) -> int:
        """Write the cells that moved back into the agents' ``_state`` dicts.

        The one materialization step: only cells whose bit pattern moved
        since the objects were last written are written, as Python floats —
        matching what the interpreted update path stores for computed
        values.  Every other cell keeps the original Python object (its type
        and, for NaN, its identity).  ``rows`` limits the write to those
        rows (the rest stay ahead); None writes every row.  Returns the
        number of rows brought current: all of them, or 0 when no cell of
        the table was ahead.
        """
        agents = self.agents
        for name in self._in_place:
            objects = pack_column([agent._state[name] for agent in agents])
            moved = self._columns[name].view(np.uint64) != objects.view(np.uint64)
            prior = self._changed.get(name)
            self._changed[name] = moved if prior is None else prior | moved
        self._in_place.clear()
        if not self._changed:
            return 0
        for name in sorted(self._changed):
            moved = self._changed[name]
            if rows is None:
                written = np.flatnonzero(moved)
            else:
                written = rows[moved[rows]]
                if len(written):
                    moved = moved.copy()
                    moved[written] = False
                if moved.any():
                    self._changed[name] = moved
                else:
                    del self._changed[name]
            column = self._columns[name]
            for row, value in zip(written.tolist(), column[written].tolist()):
                agents[row]._state[name] = value
        if rows is None:
            self._changed = {}
            return len(agents)
        return len(rows)
