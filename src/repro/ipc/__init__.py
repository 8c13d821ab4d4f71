"""Columnar IPC: SoA delta frames and shared-memory transport.

The shard protocol's wire layer — the one transport of every executor that
does not share the driver's memory.  :mod:`repro.ipc.frames` packs each
tick's replica/migration/partial traffic into columnar frames with a pickle
escape column (bit-identity is never at risk);
:mod:`repro.ipc.transport` moves encoded frames through pooled
``multiprocessing.shared_memory`` segments on the process backend; and
:mod:`repro.ipc.sizing` is the one modeled frame-size formula every byte
account (shadow-worker cost model and tick statistics alike) charges from.

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
