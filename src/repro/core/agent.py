"""The Agent base class.

Agents are the unit of data parallelism in BRACE.  A concrete agent class
declares :class:`~repro.core.fields.StateField` and
:class:`~repro.core.fields.EffectField` attributes and overrides
:meth:`Agent.query` (the query phase: read neighbours, assign effects) and
:meth:`Agent.update` (the update phase: read own state + aggregated effects,
write new state).

Agents are plain Python objects whose instance ``__dict__`` *is* their
state: ``agent.x`` is an ordinary attribute load, and every write passes
through :meth:`Agent.__setattr__`, which enforces the phase rules on
declared state fields and rejects undeclared attributes (an executor only
carries declared state, so an ad-hoc attribute would silently diverge
between them).  Agents also expose explicit snapshot/merge hooks so the
BRACE runtime can replicate them to other partitions, merge partially
aggregated effects coming back from replicas, checkpoint workers and compare
runs for equivalence.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Iterator

from repro.core.errors import AgentDefinitionError
from repro.core.fields import EffectField, StateField, note_raw_effect_write
from repro.core.soa import cells_equal
from repro.spatial.bbox import BBox


#: Value types that can be shared between an agent and its clone outright.
_ATOMIC_TYPES = frozenset(
    (float, int, bool, str, bytes, complex, type(None), frozenset)
)


def _is_immutable(value: Any) -> bool:
    """True for atomic values and tuples of them: safe to share between agents."""
    if type(value) is tuple:
        return all(map(_is_immutable, value))
    return type(value) in _ATOMIC_TYPES


def mutable_cells(values: tuple, positions=None) -> tuple:
    """Positions of the ``values`` that :meth:`Agent.clone` would deep-copy.

    Such a value (a list, a dict, any object) can change in place while
    keeping its identity, so nothing that compares cells by identity may
    call it unchanged.  ``positions`` restricts the search to those cells.
    """
    cells = values if positions is None else map(values.__getitem__, positions)
    if _ATOMIC_TYPES.issuperset(map(type, cells)):
        return ()
    if positions is None:
        positions = range(len(values))
    return tuple([position for position in positions if not _is_immutable(values[position])])


def _copy_mapping(mapping: dict) -> dict:
    """Copy a field-value dict, deep-copying only what is actually mutable."""
    for value in mapping.values():
        if type(value) not in _ATOMIC_TYPES:
            return {
                name: value if _is_immutable(value) else copy.deepcopy(value)
                for name, value in mapping.items()
            }
    return dict(mapping)


#: Every attribute :class:`Agent` itself defines (slots, methods, class
#: attributes); a field of the same name would shadow it.  Set once
#: ``Agent`` exists.
_AGENT_ATTRIBUTES: frozenset = frozenset()

#: The per-instance slots; assignments to them bypass the field rules.
_AGENT_SLOTS = ("agent_id", "_updating", "_state", "_effects", "_effects_touched")

_set_slot = object.__setattr__


def _bind_agent(agent, agent_id, state: dict, effects: dict, touched: set) -> None:
    """Fill ``agent``'s slots; ``state`` becomes its ``__dict__`` as well."""
    _set_dict(agent, state)
    _set_state(agent, state)
    _set_agent_id(agent, agent_id)
    _set_updating(agent, False)
    _set_effects(agent, effects)
    _set_effects_touched(agent, touched)


def _rebuild_agent(cls, state: dict, agent_id, effects: dict, touched: set):
    """Unpickle an agent from :meth:`Agent.__reduce__`'s positional parts."""
    agent = cls.__new__(cls)
    _bind_agent(agent, agent_id, state, effects, touched)
    return agent


class AgentMeta(type):
    """Collects field declarations (including inherited ones) in order."""

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)

        state_fields: dict[str, StateField] = {}
        effect_fields: dict[str, EffectField] = {}
        for base in reversed(cls.__mro__[1:]):
            state_fields.update(getattr(base, "_state_fields", {}))
            effect_fields.update(getattr(base, "_effect_fields", {}))
        for attr_name, attr_value in namespace.items():
            if isinstance(attr_value, StateField):
                if attr_name in effect_fields:
                    raise AgentDefinitionError(
                        f"{name}.{attr_name} redeclares an effect field as state"
                    )
                state_fields[attr_name] = attr_value
            elif isinstance(attr_value, EffectField):
                if attr_name in state_fields:
                    raise AgentDefinitionError(
                        f"{name}.{attr_name} redeclares a state field as effect"
                    )
                effect_fields[attr_name] = attr_value
            else:
                continue
            if attr_name in _AGENT_ATTRIBUTES:
                raise AgentDefinitionError(
                    f"{name}.{attr_name} collides with Agent.{attr_name}; "
                    "pick another field name"
                )

        cls._state_fields = state_fields
        cls._effect_fields = effect_fields
        cls._spatial_fields = [
            field_name for field_name, field in state_fields.items() if field.spatial
        ]
        cls._visibility_radii = tuple(
            state_fields[field_name].visibility for field_name in cls._spatial_fields
        )
        cls._bounded_visibility = bool(cls._visibility_radii) and all(
            radius is not None for radius in cls._visibility_radii
        )
        # The largest radius a neighbour query may ask for (the context's
        # visibility check raises above it, naming the first bound exceeded).
        cls._radius_limit = min(
            (radius * (1 + 1e-9) for radius in cls._visibility_radii if radius is not None),
            default=math.inf,
        )
        # Agent.__setattr__'s dispatch: a declared field's write hook.
        cls._field_writers = {
            **{field_name: field.write for field_name, field in state_fields.items()},
            **{field_name: field.__set__ for field_name, field in effect_fields.items()},
        }
        # reset_effects runs once per agent per tick: identities that are
        # immutable are shared from one per-class template; the others
        # (a custom collect-into-a-list combinator) are made per agent.
        identities = {
            field_name: field.combinator.identity()
            for field_name, field in effect_fields.items()
        }
        cls._effect_identities = {
            field_name: value for field_name, value in identities.items()
            if _is_immutable(value)
        }
        cls._mutable_effect_fields = tuple(
            (field_name, effect_fields[field_name].combinator)
            for field_name in identities
            if field_name not in cls._effect_identities
        )
        return cls


class Agent(metaclass=AgentMeta):
    """Base class for every simulated agent.

    Subclasses declare fields at class level and implement ``query`` and
    ``update``.  Instances may be constructed with keyword arguments naming
    any state field.

    The state dict is both the ``_state`` slot and the instance ``__dict__``
    (one object), so state reads are attribute loads and every internal
    ``agent._state`` access stays a slot read.  Only declared fields and the
    slots below may be assigned.
    """

    __slots__ = _AGENT_SLOTS + ("__dict__", "__weakref__")

    _state_fields: dict[str, StateField] = {}
    _effect_fields: dict[str, EffectField] = {}
    _spatial_fields: list[str] = []
    _visibility_radii: tuple = ()
    _bounded_visibility: bool = False
    _radius_limit: float = math.inf
    _field_writers: dict = {}
    _effect_identities: dict[str, Any] = {}
    _mutable_effect_fields: tuple = ()

    def __init__(self, agent_id: int | None = None, **field_values: Any):
        state: dict[str, Any] = {}
        effects: dict[str, Any] = {}
        for field_name, field in self._state_fields.items():
            default = field.default
            if type(default) not in _ATOMIC_TYPES and field_name not in field_values:
                default = copy.copy(default)
            state[field_name] = default
        for field_name, field in self._effect_fields.items():
            effects[field_name] = field.combinator.identity()
        _bind_agent(self, agent_id, state, effects, set())
        unknown = set(field_values) - set(self._state_fields)
        if unknown:
            raise AgentDefinitionError(
                f"unknown state field(s) {sorted(unknown)} for {type(self).__name__}"
            )
        state.update(field_values)

    def __setattr__(self, name: str, value: Any) -> None:
        """Route a write: declared fields through their hooks, slots as is.

        Assigning ``_state`` (or ``__dict__``) rebinds both, so they stay
        one dict.  Any other name is rejected: executors carry only declared
        state, so an undeclared attribute would silently diverge between a
        serial run and a distributed one.
        """
        write = self._field_writers.get(name)
        if write is not None:
            write(self, value)
        elif name == "_state" or name == "__dict__":
            _set_dict(self, value)
            _set_state(self, value)
        elif name in _AGENT_SLOTS:
            _set_slot(self, name, value)
        else:
            raise AgentDefinitionError(
                f"{type(self).__name__}.{name} is not a declared field; agents "
                "may only carry state declared with StateField (or EffectField), "
                "since that is all an executor replicates, migrates and checkpoints"
            )

    def __reduce__(self):
        """Pickle positionally: class, state, id, effects, touched effects."""
        return (
            _rebuild_agent,
            (type(self), self._state, self.agent_id, self._effects, self._effects_touched),
        )

    # ------------------------------------------------------------------
    # Behaviour hooks (overridden by concrete models)
    # ------------------------------------------------------------------
    def query(self, ctx) -> None:
        """Query phase: read neighbouring agents and assign effects.

        ``ctx`` is a :class:`repro.core.context.QueryContext`.
        """

    def update(self, ctx) -> None:
        """Update phase: read own state and aggregated effects, write new state.

        ``ctx`` is a :class:`repro.core.context.UpdateContext`.
        """

    # ------------------------------------------------------------------
    # Spatial accessors
    # ------------------------------------------------------------------
    @classmethod
    def spatial_field_names(cls) -> list[str]:
        """Names of the spatial state fields, in declaration order."""
        return list(cls._spatial_fields)

    @classmethod
    def visibility_radii(cls) -> tuple[float | None, ...]:
        """Per-dimension visibility bounds (None = unbounded)."""
        return cls._visibility_radii

    @classmethod
    def reachability_radii(cls) -> tuple[float | None, ...]:
        """Per-dimension reachability bounds (None = unbounded)."""
        return tuple(cls._state_fields[name].reachability for name in cls._spatial_fields)

    @classmethod
    def has_bounded_visibility(cls) -> bool:
        """True when every spatial dimension has a finite visibility bound."""
        return cls._bounded_visibility

    def position(self) -> tuple[float, ...]:
        """The agent's spatial location (tuple of its spatial state fields)."""
        return tuple(self._state[name] for name in self._spatial_fields)

    def visible_region(self) -> BBox | None:
        """The box the agent may read from / assign effects into, or None if unbounded."""
        if not self.has_bounded_visibility():
            return None
        radii = [radius for radius in self.visibility_radii()]
        return BBox.around(self.position(), radii)

    def reachable_region(self) -> BBox | None:
        """The box the agent may move into during the next update, or None if unbounded."""
        radii = self.reachability_radii()
        if not radii or any(radius is None for radius in radii):
            return None
        return BBox.around(self.position(), list(radii))

    # ------------------------------------------------------------------
    # Raw state / effect access (bypasses phase enforcement)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """A copy of the raw state values."""
        return dict(self._state)

    def set_state_dict(self, values: dict[str, Any]) -> None:
        """Overwrite raw state values (no phase checks); unknown keys are rejected."""
        unknown = set(values) - set(self._state_fields)
        if unknown:
            raise AgentDefinitionError(f"unknown state field(s) {sorted(unknown)}")
        self._state.update(values)

    def effect_partials(self) -> dict[str, Any]:
        """A copy of the raw (not finalized) effect accumulators."""
        return dict(self._effects)

    def touched_effect_partials(self) -> dict[str, Any]:
        """Raw accumulators of only the effect fields assigned this tick."""
        return {name: self._effects[name] for name in self._effects_touched}

    def set_effect_partials(self, partials: dict[str, Any]) -> None:
        """Overwrite raw effect accumulators (no phase checks)."""
        unknown = set(partials) - set(self._effect_fields)
        if unknown:
            raise AgentDefinitionError(f"unknown effect field(s) {sorted(unknown)}")
        self._effects.update(partials)
        self._effects_touched.update(partials)

    def merge_effect_partials(self, partials: dict[str, Any]) -> None:
        """Merge partial accumulators from a replica using each field's combinator."""
        for field_name, partial in partials.items():
            field = self._effect_fields.get(field_name)
            if field is None:
                raise AgentDefinitionError(f"unknown effect field {field_name!r}")
            self._effects[field_name] = field.combinator.merge(
                self._effects[field_name], partial
            )
            self._effects_touched.add(field_name)

    def reset_effects(self) -> None:
        """Reset every effect accumulator to its combinator identity."""
        self._effects.update(self._effect_identities)
        for field_name, combinator in self._mutable_effect_fields:
            self._effects[field_name] = combinator.identity()
        self._effects_touched.clear()

    def effect_value(self, field_name: str) -> Any:
        """Finalized value of one effect field (no phase checks)."""
        field = self._effect_fields[field_name]
        return field.combinator.finalize(self._effects[field_name])

    # ------------------------------------------------------------------
    # Replication / checkpointing helpers
    # ------------------------------------------------------------------
    def clone(self) -> "Agent":
        """A deep copy sharing nothing mutable with the original.

        Used for replication, so it is on the per-replica hot path:
        immutable values (the overwhelming majority — floats, ints, bools,
        strings) are shared rather than walked through ``copy.deepcopy``,
        which is an order of magnitude cheaper and observably identical.
        """
        return _rebuild_agent(
            type(self),
            _copy_mapping(self._state),
            self.agent_id,
            _copy_mapping(self._effects),
            set(self._effects_touched),
        )

    def snapshot(self) -> dict[str, Any]:
        """A serializable snapshot (class name, id, state, effects)."""
        return {
            "class": type(self).__name__,
            "agent_id": self.agent_id,
            "state": _copy_mapping(self._state),
            "effects": _copy_mapping(self._effects),
        }

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Restore state and effects from a snapshot taken with :meth:`snapshot`."""
        note_raw_effect_write()  # the restored effects carry no touched mark
        _bind_agent(
            self,
            snapshot["agent_id"],
            _copy_mapping(snapshot["state"]),
            _copy_mapping(snapshot["effects"]),
            set(),
        )

    def same_state_as(self, other: "Agent") -> bool:
        """True when ``other`` has the same id, class name and state.

        Exact under :func:`repro.core.soa.cells_equal`: float bit patterns,
        types distinguished.
        """
        if self.agent_id != other.agent_id or type(self).__name__ != type(other).__name__:
            return False
        return all(
            cells_equal(self._state[name], other._state[name]) for name in self._state_fields
        )

    def approximate_size_bytes(self) -> int:
        """Modeled wire footprint: one row of a columnar delta frame.

        Delegates to :func:`repro.ipc.sizing.agent_frame_bytes` — the one
        formula behind every byte account — so the cost model's virtual
        time and the measured socket traffic are charged from the same
        sizes.  (Imported lazily: ``core`` must not depend on ``ipc`` at
        import time.)
        """
        from repro.ipc.sizing import agent_frame_bytes

        return agent_frame_bytes(self)

    def __repr__(self) -> str:
        position = ", ".join(f"{value:.3g}" for value in self.position())
        return f"<{type(self).__name__} #{self.agent_id} @ ({position})>"

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        """Iterate over ``(state field name, value)`` pairs."""
        return iter(self._state.items())


_AGENT_ATTRIBUTES = frozenset(dir(Agent))

# The slot descriptors' setters: a direct call skips Agent.__setattr__ and
# object.__setattr__'s lookup on the paths that build agents in bulk
# (construction, clone, unpickle, frame decoding).
_set_dict = vars(Agent)["__dict__"].__set__
_set_state = vars(Agent)["_state"].__set__
_set_agent_id = vars(Agent)["agent_id"].__set__
_set_updating = vars(Agent)["_updating"].__set__
_set_effects = vars(Agent)["_effects"].__set__
_set_effects_touched = vars(Agent)["_effects_touched"].__set__
