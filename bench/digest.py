"""Exact final-state digests: the benchmark's own definition of "same states".

``dict ==`` is the wrong oracle — two runs that both produce ``nan`` never
compare equal, and ``0.0 == -0.0`` hides a sign flip.  The digest here is a
SHA-256 over a canonical byte encoding:

* agents in :func:`repro.core.ordering.agent_sort_key` order, field names
  sorted;
* floats by their IEEE-754 bit pattern (NaN payload and the sign of zero
  are part of the value);
* ints and bools type-tagged, so ``1``, ``1.0`` and ``True`` all differ.

NumPy scalars are folded onto the Python type of the same kind first: a
kernel that hands back ``np.float64(2.5)`` computed the same state as an
interpreter that hands back ``2.5``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.ordering import agent_sort_key

_DOUBLE = struct.Struct(">d")
_LENGTH = struct.Struct(">I")


def _encode(value: Any, out: list[bytes]) -> None:
    if isinstance(value, (bool, np.bool_)):
        out.append(b"b\x01" if value else b"b\x00")
    elif isinstance(value, (int, np.integer)):
        out.append(b"i" + str(int(value)).encode("ascii") + b";")
    elif isinstance(value, (float, np.floating)):
        out.append(b"f" + _DOUBLE.pack(float(value)))
    elif value is None:
        out.append(b"n")
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s" + _LENGTH.pack(len(raw)) + raw)
    elif isinstance(value, (tuple, list)):
        out.append(b"t" + _LENGTH.pack(len(value)))
        for item in value:
            _encode(item, out)
    else:
        # No workload of the benchmark stores anything else; keep the digest
        # total rather than raising inside a correctness check.
        raw = repr(value).encode("utf-8")
        out.append(b"r" + _LENGTH.pack(len(raw)) + raw)


def state_digest(states: Mapping[Any, Mapping[str, Any]]) -> str:
    """SHA-256 hex digest of ``{agent_id: {field: value}}``."""
    out: list[bytes] = []
    for agent_id in sorted(states, key=agent_sort_key):
        _encode(agent_id, out)
        fields = states[agent_id]
        out.append(_LENGTH.pack(len(fields)))
        for name in sorted(fields):
            _encode(name, out)
            _encode(fields[name], out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def agents_digest(agents: Iterable[Any]) -> str:
    """Digest of live agent objects (``world.agents()``)."""
    return state_digest({agent.agent_id: agent.state_dict() for agent in agents})
