"""The one measured-frame-size helper behind every byte account.

Before the columnar wire format, two different numbers described "how big
an agent is on the wire": the shadow-worker cost model used
``Agent.approximate_size_bytes()`` estimates while the executor reported
measured pickled blob sizes, and the two disagreed by whatever pickle's
framing overhead happened to be.  The columnar delta frames make the true
marginal cost knowable in closed form — every packable state or effect
cell is exactly one 8-byte array element, the id column adds one more, and
the per-group headers amortize to a small per-row constant — so the cost
model and the measured traffic can finally be charged from the same
formula.  (The formula also charges one cell per effect field, which a
frame does not carry; see :func:`agent_frame_bytes`.)

Every modeled byte count in :mod:`repro.brace.runtime` and
:mod:`repro.brace.worker` routes through these helpers **unconditionally**
(whichever transport actually ran), so the modeled statistics —
``bytes_migrated``/``bytes_replicated``/``bytes_effects`` and the virtual
seconds derived from them — stay part of the cross-backend determinism
contract.  ``tests/ipc/test_sizing.py`` pins the formula to the measured
marginal row size of a real encoded frame.
"""

from __future__ import annotations

#: Per-row frame overhead: the 8-byte id cell plus the row's share of the
#: group headers (class handle, field names, row index).  Chosen to equal
#: the historical per-agent header so modeled statistics are unchanged.
ROW_HEADER_BYTES = 16

#: Every packable cell is one element of a ``float64``/``int64`` column.
CELL_BYTES = 8


def agent_frame_bytes(agent) -> int:
    """Modeled wire footprint of one agent row in a columnar delta frame.

    One :data:`CELL_BYTES` cell per declared state and effect field plus
    the :data:`ROW_HEADER_BYTES` row share.  Computed from the *class*
    structure, never from instance values, so the number is identical on
    every backend and in every process — a determinism requirement, since
    the cost model's virtual seconds are derived from it.

    A frame carries no effect cells (accumulators stay inside their tick,
    see :mod:`repro.ipc.frames`), yet the formula still charges one per
    effect field: it is the cost model's row size, and keeping it keeps
    every modeled byte count, virtual second and figure unchanged.

    This is the canonical formula; :meth:`repro.core.agent.Agent.
    approximate_size_bytes` now *delegates* here (lazily, so ``core``
    stays import-time independent of ``ipc``), which closes the last
    PR 3-era drift between the cost model's estimates and the measured
    ``ipc_bytes_*`` — one formula, every accounting site.
    """
    cls = type(agent)
    return ROW_HEADER_BYTES + CELL_BYTES * (
        len(cls._state_fields) + len(cls._effect_fields)
    )


def partial_frame_bytes(partials: dict) -> int:
    """Modeled wire footprint of one routed effect-partial row.

    The id cell and header share plus one cell per touched accumulator —
    the same shape :func:`agent_frame_bytes` charges, applied to the
    ``(agent_id, {field: partial})`` rows of the second reduce pass.
    """
    return ROW_HEADER_BYTES + CELL_BYTES * len(partials)
