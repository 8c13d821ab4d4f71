"""Columnar IPC: SoA delta frames and their size model.

The shard protocol's payload layer — what every executor that does not
share the driver's memory puts on its wire.  :mod:`repro.ipc.frames` packs
each tick's replica/migration/partial traffic into columnar frames with a
pickle escape column (bit-identity is never at risk), and
:mod:`repro.ipc.sizing` is the one modeled frame-size formula every byte
account (shadow-worker cost model and tick statistics alike) charges from.
The frames travel in the enveloped messages of
:mod:`repro.cluster.protocol`, between the one wire client
(:mod:`repro.cluster.client`) and the one shard host
(:mod:`repro.cluster.server`), over TCP or a private socketpair.

Submodules import lazily — ``frames`` sits above :mod:`repro.core` while
:mod:`repro.brace` modules import this package, so the package root stays
dependency-free.
"""

from __future__ import annotations

from repro.ipc.sizing import CELL_BYTES, ROW_HEADER_BYTES, agent_frame_bytes, partial_frame_bytes

__all__ = [
    "CELL_BYTES",
    "ROW_HEADER_BYTES",
    "agent_frame_bytes",
    "partial_frame_bytes",
]
