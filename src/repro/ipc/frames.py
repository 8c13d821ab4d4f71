"""Columnar delta frames: the one wire format for shard traffic.

The shard protocol (:mod:`repro.brace.shards`) moves four kinds of bulk
payload across the driver/shard boundary every tick: replicas and
migrations (lists of :class:`~repro.core.agent.Agent`), non-local effect
partials (``{agent_id: {field: partial}}`` maps), and routed partials
(``[(agent_id, {field: partial}), ...]`` rows).  Pickling these object by
object — every agent walks its ``_state`` dict, every partial map pickles
its keys as strings — would dominate the tick on every executor that does
not share the driver's memory.

This module packs that traffic into **columnar frames** instead:

* agent rows group by concrete class; each group stores one
  :class:`~repro.core.soa.PackedColumn` per declared state field (floats,
  bools and exact ints as NumPy arrays, anything else through the pickle
  escape column), an id column, the field-name tuple once, and a
  :class:`ClassHandle` naming the class once per group;
* effects are not shipped at all in the common case — on the wire agents
  almost always carry freshly reset accumulators, so each group records
  only the rare rows whose effects differ bit-for-bit from the class's
  combinator identities, and decode manufactures fresh identities for the
  rest;
* partial rows group by their exact field-key tuple, giving one
  ``PackedColumn`` per accumulator field instead of one dict per agent;
* replica refreshes (:class:`ReplicaDelta`) carry only the changed cells of
  rows a destination already holds, grouped by class and changed-cell set:
  one id column, the field names once, and the cells as one float matrix or
  per-field columns — applied in place by :func:`refresh_replicas`;
* any agent whose ``_state`` keys do not match its class declaration
  escapes as a whole object — bit-identity is never at risk.

The frame objects themselves are plain dataclasses whose bulk data are
NumPy arrays, so :class:`ColumnarCodec` can serialize a frame with one
``pickle.dumps`` call that writes the array buffers at C speed — the codec
collapses per-object costs without inventing a hand-rolled binary format.

Protocol dataclasses register their own wire transforms via
:func:`register_wire_type` (see the bottom of :mod:`repro.brace.shards`),
keeping this module free of upward imports; generic payloads — agent
lists, coordinate lists, state maps — are recognized structurally.
"""

from __future__ import annotations

import pickle
import weakref
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.agent import (
    Agent,
    _set_agent_id,
    _set_dict,
    _set_effects,
    _set_effects_touched,
    _set_state,
    _set_updating,
)
from repro.core.errors import BraceError
from repro.core.soa import PackedColumn, cells_equal, pack_cells, unpack_cells


def _float_matrix(value_rows: list) -> np.ndarray | None:
    """Pack rows of cells as one 2-D ``float64`` matrix, if exactly floats.

    The all-float group is the dominant wire shape, and a single
    ``np.asarray`` over the row tuples plus one C-speed type scan replaces
    a per-column Python packing loop.  Any non-float cell (ints and bools
    need their type preserved; everything else needs the escape column)
    returns ``None`` so the caller takes the exact per-column path.
    """
    if not value_rows or not value_rows[0]:
        return None
    if set(map(type, chain.from_iterable(value_rows))) != {float}:
        return None
    return np.asarray(value_rows, dtype=np.float64)


@dataclass(frozen=True)
class ClassHandle:
    """The class of one agent group, shipped once per group.

    Plain agent classes travel by reference (``cls``) — pickle resolves
    them by module path.
    BRASIL-compiled classes are *generated* types that cannot be imported,
    so they travel as their pure-data
    :class:`~repro.brasil.compiler.AgentClassSpec` (``spec``) and resolve
    through the same weakref registry pickle's ``__reduce__`` path uses —
    every process rebuilds (or reuses) the identical compiled class.
    """

    cls: type | None = None
    spec: Any = None

    def resolve(self) -> type:
        """Return the concrete agent class this handle names."""
        if self.spec is not None:
            from repro.brasil.compiler import compiled_class_for_spec

            return compiled_class_for_spec(self.spec)
        return self.cls


def class_handle(cls: type) -> ClassHandle:
    """Build the :class:`ClassHandle` for an agent class."""
    spec = getattr(cls, "_compile_spec", None)
    if spec is not None:
        return ClassHandle(spec=spec)
    return ClassHandle(cls=cls)


#: ``cls -> tuple of its declared state field names``; weak keys as below.
_FIELD_NAMES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def state_field_names(cls: type) -> tuple:
    """The declared state field names of ``cls``, one cached tuple per class.

    The same tuple object every call, so two rows can be tested for the same
    declared layout by identity.
    """
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(cls._state_fields)
    return names


#: Cache of per-class effect identity templates: ``cls -> (template dict,
#: all-immutable flag)``.  Weak keys so generated BRASIL classes can die.
_EFFECT_TEMPLATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_SCALAR_IMMUTABLE = (float, int, bool, str, bytes, type(None))


def _is_immutable(value) -> bool:
    if isinstance(value, _SCALAR_IMMUTABLE):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_is_immutable(item) for item in value)
    return False


def _effect_template(cls: type) -> tuple[dict, bool]:
    entry = _EFFECT_TEMPLATES.get(cls)
    if entry is None:
        template = {
            name: spec.combinator.identity()
            for name, spec in cls._effect_fields.items()
        }
        fast = all(_is_immutable(value) for value in template.values())
        entry = (template, fast)
        _EFFECT_TEMPLATES[cls] = entry
    return entry


def _fresh_effects(cls: type) -> dict:
    """A brand-new identity accumulator dict for ``cls``.

    When every identity value is immutable the cached template is shallow
    copied; otherwise (``COLLECT``'s list identity, say) each accumulator
    is manufactured fresh so decoded agents never share mutable state.
    """
    template, fast = _effect_template(cls)
    if fast:
        return dict(template)
    return {
        name: spec.combinator.identity()
        for name, spec in cls._effect_fields.items()
    }


def _effects_are_default(effects: dict, template: dict) -> bool:
    """True when ``effects`` equals the identity template bit-for-bit.

    Uses exact-cell comparison for floats (NaN counts as equal to itself,
    ``-0.0`` does **not** equal ``0.0``) so a checkpoint-restored
    accumulator that merely *compares* equal to the identity still ships
    as an override — decode must never flip a bit.
    """
    if len(effects) != len(template):
        return False
    for name, ref in template.items():
        if name not in effects:
            return False
        value = effects[name]
        if type(value) is not type(ref):
            return False
        if isinstance(ref, float):
            if not cells_equal(value, ref):
                return False
        elif value != ref:
            return False
    return True


@dataclass
class _AgentGroup:
    """One concrete class's rows of an :class:`AgentFrame`.

    ``matrix`` is the all-float fast path: one ``(rows, fields)`` float64
    matrix replacing the per-field ``columns`` list (which is then empty).
    """

    handle: ClassHandle
    rows: np.ndarray
    fields: tuple
    ids: PackedColumn
    columns: list
    effect_overrides: list = field(default_factory=list)
    matrix: np.ndarray | None = None


@dataclass
class AgentFrame:
    """A columnar frame of agent rows, order-preserving.

    ``groups`` partition the rows by concrete class (first-seen order);
    ``escapes`` holds ``(row, agent)`` pairs for agents the columnar
    layout cannot represent (``_state`` keys that diverge from the class
    declaration), shipped as whole pickled objects.
    """

    length: int
    groups: list
    escapes: list = field(default_factory=list)


def pack_agents(agents: Sequence) -> AgentFrame:
    """Pack a sequence of agents into one columnar :class:`AgentFrame`."""
    by_class: dict[type, list] = {}
    escapes: list = []
    field_tuples: dict[type, tuple] = {}
    for row, agent in enumerate(agents):
        cls = type(agent)
        fields = field_tuples.get(cls)
        if fields is None:
            fields = field_tuples[cls] = state_field_names(cls)
        # Order-sensitive on purpose: a matching key *sequence* lets the
        # column transpose below read ``_state.values()`` directly, one
        # pass instead of one dict lookup per cell.  Reordered dicts (rare)
        # ship as whole pickled escapes, which is equally exact.
        if tuple(agent._state) != fields:
            escapes.append((row, agent))
        else:
            by_class.setdefault(cls, []).append((row, agent))
    groups: list = []
    for cls, members in by_class.items():
        rows = np.fromiter(
            (row for row, _ in members), dtype=np.int64, count=len(members)
        )
        group_agents = [agent for _, agent in members]
        fields = field_tuples[cls]
        ids = pack_cells([agent.agent_id for agent in group_agents])
        value_rows = [tuple(agent._state.values()) for agent in group_agents]
        matrix = _float_matrix(value_rows)
        if matrix is None:
            columns = [pack_cells(column) for column in zip(*value_rows)]
        else:
            columns = []
        template, _ = _effect_template(cls)
        if template:
            overrides = [
                (offset, dict(agent._effects), tuple(agent._effects_touched))
                for offset, agent in enumerate(group_agents)
                if agent._effects_touched
                or not _effects_are_default(agent._effects, template)
            ]
        else:
            # No declared effect fields: an override only exists when some
            # out-of-band accumulator was grafted onto the instance.
            overrides = [
                (offset, dict(agent._effects), tuple(agent._effects_touched))
                for offset, agent in enumerate(group_agents)
                if agent._effects_touched or agent._effects
            ]
        groups.append(
            _AgentGroup(class_handle(cls), rows, fields, ids, columns, overrides, matrix)
        )
    return AgentFrame(len(agents), groups, escapes)


def unpack_agents(frame: AgentFrame) -> list:
    """Rebuild the exact agent list a frame was packed from.

    Decoded agents are *new objects* with bit-identical ``agent_id``,
    ``_state`` and ``_effects`` — the same contract pickle gives.
    """
    out: list = [None] * frame.length
    for group in frame.groups:
        cls = group.handle.resolve()
        rows = group.rows.tolist()
        ids = unpack_cells(group.ids)
        matrix = getattr(group, "matrix", None)
        if matrix is not None:
            # One C call rebuilds every row's Python floats exactly.
            value_rows = iter(matrix.tolist())
        else:
            columns = [unpack_cells(column) for column in group.columns]
            if columns:
                value_rows = zip(*columns)
            else:
                value_rows = iter([()] * len(rows))
        fields = group.fields
        if fields == state_field_names(cls):
            # The class's own name objects as keys: the shard's test of a
            # row's layout (``Worker.distribute``) then compares pointers.
            fields = state_field_names(cls)
        new = cls.__new__
        template, fast = _effect_template(cls)
        # The slots are filled through their descriptors, inline (as
        # core.agent._bind_agent does): the state dict is both the
        # ``_state`` slot and the instance ``__dict__``.
        for row, agent_id, values in zip(rows, ids, value_rows):
            agent = new(cls)
            state = dict(zip(fields, values))
            _set_dict(agent, state)
            _set_state(agent, state)
            _set_agent_id(agent, agent_id)
            _set_updating(agent, False)
            _set_effects(agent, dict(template) if fast else _fresh_effects(cls))
            _set_effects_touched(agent, set())
            out[row] = agent
        for offset, effects, touched in group.effect_overrides:
            agent = out[rows[offset]]
            _set_effects(agent, dict(effects))
            _set_effects_touched(agent, set(touched))
    for row, agent in frame.escapes:
        out[row] = agent
    return out


class LazyAgentFrame:
    """A packed :class:`AgentFrame` kept opaque while the driver routes it.

    The driver never inspects replica lists — it only concatenates them per
    destination — so a frame decoded from one shard can be re-emitted into
    the next command verbatim, skipping a full unpack/repack cycle per
    replica.  ``unpack`` materializes the agents on demand (the shard side,
    or any in-process consumer that actually needs objects).
    """

    __slots__ = ("frame",)

    def __init__(self, frame: AgentFrame):
        self.frame = frame

    def __len__(self) -> int:
        return self.frame.length

    def unpack(self) -> list:
        """Materialize the agents this frame carries."""
        return unpack_agents(self.frame)


class ReplicaDelta:
    """One destination's replica delta for a tick, in three parts.

    Instead of reshipping every replica every tick, a shard in delta mode
    sends each destination only what changed since it last sent there:

    * ``additions`` — whole rows the destination does not hold (new
      replicas, or rows that cannot be refreshed cell by cell: another
      class under the same id, a ``_state`` whose key order differs from the
      class declaration);
    * ``refreshes`` — rows the destination already holds, carrying only the
      cells whose value objects are not identical to what was last sent
      (plus every cell holding a mutable value, which can change in place
      without changing identity — see ``Worker.distribute``), grouped by
      ``(class, changed cells)``;
    * ``removed_ids`` — replicas the destination must drop.

    Unchanged cells and rows are simply retained by the destination, so
    steady-state replica traffic scales with the cells that *change*, not
    with the replica count or the row width.  The destination applies
    removals, resets the effects of retained replicas, writes refreshes into
    its existing replica objects and installs additions, in that order
    (``Worker.apply_replica_deltas``).  A wire always ships replicas this
    way; by reference they travel as plain clone lists instead.
    """

    __slots__ = ("additions", "removed_ids", "refreshes")

    def __init__(self, additions, removed_ids, refreshes=None):
        #: ``list[Agent]`` at the source, a :class:`LazyAgentFrame` in
        #: transit (the driver routes deltas without unpacking them).
        self.additions = additions
        self.removed_ids = removed_ids
        #: At the source ``{(class, cell positions): (ids, state value
        #: tuples)}``; in transit a list of packed :class:`RefreshGroup`.
        self.refreshes = {} if refreshes is None else refreshes


@dataclass
class RefreshGroup:
    """One ``(class, changed cells)`` group of a delta's refreshes.

    ``fields`` names the shipped cells once for the whole group; ``ids`` is
    the id column.  The cells are one ``(rows, fields)`` float64 ``matrix``
    when every one is a float, else one :class:`~repro.core.soa.PackedColumn`
    per field in ``columns`` (escape column included), as in
    :class:`_AgentGroup`.
    """

    handle: ClassHandle
    fields: tuple
    ids: PackedColumn
    columns: list
    matrix: np.ndarray | None = None


def pack_refreshes(refreshes: dict) -> list:
    """Pack a source-side refresh map into :class:`RefreshGroup` frames.

    ``refreshes`` maps ``(class, cell positions)`` to the group's agent ids
    and the rows' state value tuples (in declared field order); only the
    named positions of each tuple are packed.
    """
    groups = []
    for (cls, positions), (ids, value_rows) in refreshes.items():
        names = state_field_names(cls)
        if len(positions) == len(names):
            cells = value_rows
        elif len(positions) == 1:
            (position,) = positions
            cells = [(values[position],) for values in value_rows]
        else:
            cells = list(map(itemgetter(*positions), value_rows))
        matrix = _float_matrix(cells)
        columns = [] if matrix is not None else [pack_cells(column) for column in zip(*cells)]
        groups.append(
            RefreshGroup(
                class_handle(cls),
                tuple(names[position] for position in positions),
                pack_cells(ids),
                columns,
                matrix,
            )
        )
    return groups


def refresh_replicas(groups: list, replicas: dict) -> None:
    """Write packed refresh groups into the held ``replicas``, in place.

    Exactly the named cells of each row's existing replica object change; no
    agent is built.  A row for an id that is not held (or is held as another
    class) means the source's send history and this destination disagree,
    and raises :class:`~repro.core.errors.BraceError` rather than skipping.
    """
    for group in groups:
        cls = group.handle.resolve()
        if group.matrix is not None:
            value_rows = group.matrix.tolist()
        else:
            value_rows = zip(*[unpack_cells(column) for column in group.columns])
        names = group.fields
        for agent_id, cells in zip(unpack_cells(group.ids), value_rows):
            replica = replicas.get(agent_id)
            if type(replica) is not cls:
                held = "no replica" if replica is None else f"a {type(replica).__name__}"
                raise BraceError(
                    f"refresh of {cls.__name__} agent {agent_id!r} {names} "
                    f"but this shard holds {held} under that id"
                )
            replica._state.update(zip(names, cells))


@dataclass
class _MappingGroup:
    """One field-signature's rows of a :class:`MappingFrame`.

    ``matrix`` is the all-float fast path (see :class:`_AgentGroup`).
    """

    rows: np.ndarray
    fields: tuple
    keys: PackedColumn
    columns: list
    matrix: np.ndarray | None = None


@dataclass
class MappingFrame:
    """Columnar frame over ``(key, {field: value})`` rows.

    Rows group by their exact field-key tuple (insertion order preserved),
    so each group stores one :class:`~repro.core.soa.PackedColumn` per
    field — the layout for effect-partial routing and state maps, where a
    handful of signatures cover thousands of rows.
    """

    length: int
    groups: list


def pack_mapping_rows(items: Sequence) -> MappingFrame:
    """Pack ``(key, mapping)`` rows into a :class:`MappingFrame`."""
    by_signature: dict[tuple, list] = {}
    for row, (key, mapping) in enumerate(items):
        by_signature.setdefault(tuple(mapping), []).append((row, key, mapping))
    groups: list = []
    for fields, members in by_signature.items():
        rows = np.fromiter(
            (row for row, _, _ in members), dtype=np.int64, count=len(members)
        )
        keys = pack_cells([key for _, key, _ in members])
        # Every member shares the exact key order (the group signature is
        # ``tuple(mapping)``), so ``values()`` aligns with ``fields`` and
        # one transpose replaces a per-field lookup pass.
        value_rows = [tuple(mapping.values()) for _, _, mapping in members]
        matrix = _float_matrix(value_rows)
        if matrix is None:
            columns = [pack_cells(column) for column in zip(*value_rows)]
        else:
            columns = []
        groups.append(_MappingGroup(rows, fields, keys, columns, matrix))
    return MappingFrame(len(items), groups)


def unpack_mapping_rows(frame: MappingFrame) -> list:
    """Rebuild the exact ``(key, mapping)`` row list of a frame."""
    out: list = [None] * frame.length
    for group in frame.groups:
        rows = group.rows.tolist()
        keys = unpack_cells(group.keys)
        matrix = getattr(group, "matrix", None)
        if matrix is not None:
            value_rows = matrix.tolist()
        else:
            columns = [unpack_cells(column) for column in group.columns]
            if columns:
                value_rows = list(zip(*columns))
            else:
                value_rows = [()] * len(rows)
        fields = group.fields
        for offset, row in enumerate(rows):
            out[row] = (keys[offset], dict(zip(fields, value_rows[offset])))
    return out


# --------------------------------------------------------------------------
# Wire transforms
# --------------------------------------------------------------------------

#: Explicitly registered protocol types: ``type -> (tag, encode)``.
_WIRE_ENCODERS: dict[type, tuple] = {}
#: Inverse: ``tag -> decode``.
_WIRE_DECODERS: dict[str, Callable] = {}

_RAW = "raw"


def register_wire_type(
    cls: type, tag: str, encode: Callable, decode: Callable
) -> None:
    """Register a columnar wire transform for a protocol dataclass.

    ``encode(obj)`` returns a picklable wire payload built from frames
    and :class:`~repro.core.soa.PackedColumn` columns; ``decode(payload)``
    rebuilds the exact object.  The module that *owns* a protocol type
    registers it (see :mod:`repro.brace.shards`), so this codec never
    imports upward.
    """
    _WIRE_ENCODERS[cls] = (tag, encode)
    _WIRE_DECODERS[tag] = decode


def _to_wire(obj) -> tuple:
    entry = _WIRE_ENCODERS.get(type(obj))
    if entry is not None:
        tag, encode = entry
        return (tag, encode(obj))
    if type(obj) is list and obj:
        if all(isinstance(item, Agent) for item in obj):
            return ("agents", pack_agents(obj))
        if all(type(item) is float for item in obj):
            return ("floats", pack_cells(obj))
    if type(obj) is dict and obj:
        values = list(obj.values())
        if all(type(value) is dict for value in values):
            return ("state-map", pack_mapping_rows(list(obj.items())))
        if all(
            type(value) is list and value and all(isinstance(a, Agent) for a in value)
            for value in values
        ):
            return (
                "agent-map",
                [(key, pack_agents(value)) for key, value in obj.items()],
            )
    return (_RAW, obj)


def _from_wire(wire: tuple):
    tag, payload = wire
    if tag == _RAW:
        return payload
    if tag == "agents":
        return unpack_agents(payload)
    if tag == "floats":
        return unpack_cells(payload)
    if tag == "state-map":
        return dict(unpack_mapping_rows(payload))
    if tag == "agent-map":
        return {key: unpack_agents(frame) for key, frame in payload}
    decode = _WIRE_DECODERS.get(tag)
    if decode is None:
        raise ValueError(f"unknown columnar wire tag {tag!r}")
    return decode(payload)


class ColumnarCodec:
    """Encode/decode protocol payloads as columnar delta frames.

    ``encode`` transforms the payload into its wire form (frames and
    packed columns in a small shell) and pickles that shell — the NumPy
    buffers serialize at C speed, the shell costs a handful of objects.
    ``decode`` inverts both steps, restoring bit-identical payloads.

    The codec is stateless; instances pickle by reference-free default
    reconstruction, so shipping one to a shard host is essentially free.
    """

    protocol = pickle.HIGHEST_PROTOCOL

    def encode(self, obj) -> bytes:
        """Serialize ``obj`` to a columnar frame blob."""
        return pickle.dumps(_to_wire(obj), self.protocol)

    def decode(self, blob):
        """Restore the exact payload of an :meth:`encode` blob."""
        return _from_wire(pickle.loads(blob))
