"""State and effect field descriptors.

Agent classes declare their attributes with :class:`StateField` and
:class:`EffectField`, mirroring BRASIL's ``state``/``effect`` tags:

.. code-block:: python

    class Fish(Agent):
        x = StateField(0.0, spatial=True, visibility=5.0, reachability=1.0)
        y = StateField(0.0, spatial=True, visibility=5.0, reachability=1.0)
        vx = StateField(0.0)
        vy = StateField(0.0)
        avoid_x = EffectField(SUM)
        avoid_y = EffectField(SUM)
        count = EffectField(COUNT)

An agent's state lives in its instance ``__dict__``, so reading a state
field is a plain attribute load; every write goes through
:meth:`repro.core.agent.Agent.__setattr__`, which hands a state field to
:meth:`StateField.write`.  Together they enforce the read/write rules of the
state-effect pattern (see :mod:`repro.core.phase`); effect fields are data
descriptors that route assignments through the field's combinator so that
concurrent writes from many agents are order-independent.

An effect lives inside one tick: written in the query phase, read by the
same tick's update phase, dead after it.  Every write that can move an
accumulator off its combinator identity (a query-phase fold, a raw
assignment outside a query phase) adds the field to the agent's touched
set, so an agent with no touched field holds identities, and resetting the
touched agents resets every live accumulator.
"""

from __future__ import annotations

from typing import Any

from repro.core import phase as _phase
from repro.core.combinators import Combinator, get_combinator
from repro.core.errors import PhaseViolationError
from repro.core.phase import Phase

# The field hooks run once per attribute write (and, for effects, per read)
# of every agent, so they read the thread-local phase and the module-level
# enforcement flag directly instead of through current_phase() /
# enforcement_enabled().
_thread_phase = _phase._state
_QUERY = Phase.QUERY
_UPDATE = Phase.UPDATE
_IDLE = Phase.IDLE


class StateField:
    """A public state attribute, updated only at tick boundaries.

    Parameters
    ----------
    default:
        Initial value for agents that do not override it at construction.
    spatial:
        True when this field is one coordinate of the agent's spatial
        location.  The agent's position is the tuple of its spatial fields in
        declaration order.
    visibility:
        For spatial fields: how far (in this dimension) the agent can *see* —
        i.e. read other agents or assign effects to them.  ``None`` means
        unbounded visibility.
    reachability:
        For spatial fields: how far the agent can *move* in one tick.  The
        update phase clamps changes to this field to the reachability bound.
        ``None`` means unbounded.
    doc:
        Optional human-readable description.
    """

    def __init__(
        self,
        default: Any = 0.0,
        spatial: bool = False,
        visibility: float | None = None,
        reachability: float | None = None,
        doc: str | None = None,
    ):
        self.default = default
        self.spatial = bool(spatial)
        self.visibility = None if visibility is None else float(visibility)
        self.reachability = None if reachability is None else float(reachability)
        self.doc = doc
        self.name: str | None = None
        if not self.spatial and (visibility is not None or reachability is not None):
            raise ValueError("visibility/reachability only apply to spatial state fields")

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        # A non-data descriptor: an agent's state *is* its instance
        # ``__dict__``, so ``agent.x`` is a plain dict load and this hook
        # only runs for the class attribute (or a state dict lacking the key).
        if instance is None:
            return self
        return instance._state[self.name]

    def write(self, instance, value) -> None:
        """Assign ``value`` to ``instance`` under the phase rules.

        Reached through :meth:`repro.core.agent.Agent.__setattr__`: a state
        write is forbidden in the query phase and, in the update phase,
        allowed only on the agent being updated; an update-phase write to a
        spatial field is clamped to its reachability bound.
        """
        phase_now = _thread_phase.phase
        if phase_now is not _IDLE:
            if _phase._enforcement:
                if phase_now is _QUERY:
                    raise PhaseViolationError(
                        f"state field {self.name!r} written during the query phase; "
                        "state is read-only while effects are being computed"
                    )
                if phase_now is _UPDATE and not instance._updating:
                    raise PhaseViolationError(
                        f"state field {self.name!r} of agent {instance.agent_id} written "
                        "during another agent's update phase; agents may only update "
                        "their own state"
                    )
            if phase_now is _UPDATE and self.spatial and self.reachability is not None:
                # Reachability clamp: the new coordinate may not move farther
                # than the reachability bound from the coordinate at the start
                # of the tick.
                old = instance._state[self.name]
                lo, hi = old - self.reachability, old + self.reachability
                value = min(max(value, lo), hi)
        instance._state[self.name] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "spatial state" if self.spatial else "state"
        return f"<{kind} field {self.name!r} default={self.default!r}>"


class EffectField:
    """An effect attribute aggregated with a combinator during the query phase.

    Assignments during the query phase (``agent.field = value``) are folded
    into the field's accumulator with the combinator — they are *aggregated*,
    not overwritten, matching BRASIL's ``<-`` operator.  During the update
    phase the field is read-only and yields the finalized aggregate.
    """

    def __init__(self, combinator: Combinator | str = "sum", doc: str | None = None):
        self.combinator = get_combinator(combinator)
        self.doc = doc
        self.name: str | None = None
        # What Combinator.combine / finalize forward to, resolved once
        # (a finalize_fn of None is the identity).
        self._combine = self.combinator.combine_fn
        self._finalize = self.combinator.finalize_fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        if _phase._enforcement and _thread_phase.phase is _QUERY:
            raise PhaseViolationError(
                f"effect field {self.name!r} read during the query phase; "
                "effects are write-only until the update phase"
            )
        finalize = self._finalize
        if finalize is None:
            return instance._effects[self.name]
        return finalize(instance._effects[self.name])

    def __set__(self, instance, value):
        phase_now = _thread_phase.phase
        if phase_now is _QUERY:
            name = self.name
            effects = instance._effects
            effects[name] = self._combine(effects[name], value)
            instance._effects_touched.add(name)
            return
        if _phase._enforcement and phase_now is _UPDATE:
            raise PhaseViolationError(
                f"effect field {self.name!r} written during the update phase; "
                "effects may only be assigned in the query phase"
            )
        # IDLE (or an unenforced update phase): a raw assignment, used by
        # setup code and tests.  It marks the field touched like a
        # query-phase write, so an untouched accumulator is at identity.
        instance._effects[self.name] = value
        instance._effects_touched.add(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<effect field {self.name!r} combinator={self.combinator.name}>"
