"""Deterministic, cross-process ordering of agent ids.

Several layers of the runtime must enumerate agents in *exactly* the same
order regardless of where the enumeration happens — the driver, an in-place
worker, or a resident shard living on a node process:

* a worker's owned/replica iteration order fixes how the spatial index is
  built and therefore which work every query phase performs;
* the routing order of non-local effect partials fixes the order in which
  floating-point accumulators are merged, which must be bit-identical on
  every backend.

The previous implementation sorted by ``repr(agent_id)``, which is slow
(every comparison formats a string) and fragile (two ids can share a repr,
and numeric ids sort lexicographically: ``10 < 2``).  :func:`agent_sort_key`
provides a proper total order: real-valued ids sort numerically, everything
else sorts by its string form, and the two groups never interleave.
"""

from __future__ import annotations

from typing import Any


def agent_sort_key(agent_id: Any) -> tuple:
    """A total, deterministic sort key for agent ids.

    Numeric ids (``int``/``float``, excluding ``bool`` and NaN) compare
    numerically; every other id compares by ``str``.  The leading group tag
    keeps the two families apart so mixed-type id sets still sort without
    ``TypeError``, identically in every interpreter and process.
    """
    if (
        isinstance(agent_id, (int, float))
        and not isinstance(agent_id, bool)
        and agent_id == agent_id  # NaN ids fall through to the string group
    ):
        return (0, agent_id, "")
    return (1, 0.0, str(agent_id))


def sorted_agent_ids(agent_ids) -> list:
    """``agent_ids`` sorted by :func:`agent_sort_key`."""
    return sorted(agent_ids, key=agent_sort_key)
