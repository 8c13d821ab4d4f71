"""Coordinated epoch checkpoints and recovery by re-execution.

BRACE's master node interacts with workers every *epoch*; at a pre-defined
tick boundary, every worker writes a checkpoint of its in-memory state
independently (no global synchronisation beyond agreeing on the boundary).
Failures are handled by restoring the last checkpoint and re-executing the
ticks since then — the standard technique for short-iteration scientific
computations (Section 3.3).

This module keeps checkpoints in memory (the "stable storage" of the
simulated cluster) as world snapshots, never as bytes: the tick history
(:mod:`repro.history.store`, with its own codec) is what persists state.  It
also provides a deterministic failure injector used by the fault-tolerance
tests and the checkpointing ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.errors import CheckpointError
from repro.core.world import World


@dataclass
class Checkpoint:
    """A snapshot of the whole simulation at an epoch boundary."""

    tick: int
    epoch: int
    world_snapshot: dict[str, Any]
    size_bytes: int


class CheckpointManager:
    """Stores epoch checkpoints and restores the most recent one on failure."""

    def __init__(self, keep_last: int = 2):
        if keep_last < 1:
            raise CheckpointError("keep_last must be at least 1")
        self.keep_last = keep_last
        self._checkpoints: list[Checkpoint] = []
        self.total_checkpoints = 0
        self.total_bytes = 0

    def take(self, world: World, epoch: int, size_bytes: int) -> Checkpoint:
        """Snapshot ``world`` at the current tick."""
        checkpoint = Checkpoint(
            tick=world.tick,
            epoch=epoch,
            world_snapshot=world.snapshot(),
            size_bytes=size_bytes,
        )
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.keep_last:
            self._checkpoints.pop(0)
        self.total_checkpoints += 1
        self.total_bytes += size_bytes
        return checkpoint

    def latest(self) -> Checkpoint:
        """The most recent checkpoint."""
        if not self._checkpoints:
            raise CheckpointError("no checkpoint has been taken")
        return self._checkpoints[-1]

    def has_checkpoint(self) -> bool:
        """True when at least one checkpoint exists."""
        return bool(self._checkpoints)

    def restore_latest(self, world: World) -> Checkpoint:
        """Restore ``world`` from the most recent checkpoint and return it."""
        checkpoint = self.latest()
        world.restore(checkpoint.world_snapshot)
        return checkpoint


class FailureInjector:
    """Deterministically injects worker failures for fault-tolerance experiments.

    A failure probability is evaluated once per tick from a seeded stream, so
    a run with the same seed fails at the same ticks every time.
    """

    def __init__(self, failure_probability_per_tick: float = 0.0, seed: int = 0):
        if not 0.0 <= failure_probability_per_tick <= 1.0:
            raise CheckpointError("failure probability must be within [0, 1]")
        self.failure_probability_per_tick = failure_probability_per_tick
        self._rng = np.random.default_rng(seed)
        self.failures_injected = 0

    def should_fail(self) -> bool:
        """Draw whether a failure happens during the current tick."""
        if self.failure_probability_per_tick <= 0.0:
            return False
        failed = bool(self._rng.random() < self.failure_probability_per_tick)
        if failed:
            self.failures_injected += 1
        return failed
