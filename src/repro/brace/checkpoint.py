"""Coordinated epoch checkpoints and recovery by re-execution.

BRACE's master node interacts with workers every *epoch*; at a pre-defined
tick boundary, every worker writes a checkpoint of its in-memory state
independently (no global synchronisation beyond agreeing on the boundary).
Failures are handled by restoring the last checkpoint and re-executing the
ticks since then — the standard technique for short-iteration scientific
computations (Section 3.3).

A checkpoint is the shards' state images (:func:`repro.brace.shards.
encode_image`), kept in memory — the "stable storage" of the simulated
cluster — with the tick, epoch, id counter and seed the world resumes
from; :meth:`repro.brace.runtime.BraceRuntime.restore` puts a run back onto
them.  The tick history (:mod:`repro.history.store`) is what persists
state.  This module also provides a deterministic failure injector used by
the fault-tolerance tests and the checkpointing ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.errors import CheckpointError
from repro.core.world import World

@dataclass
class Checkpoint:
    """The whole simulation at a tick boundary, as one image per shard."""

    tick: int
    epoch: int
    next_id: int
    seed: int
    #: The tag each shard stashed its image under.
    tag: int
    #: ``shard id -> state image``.
    images: dict[int, bytes]


class CheckpointManager:
    """Keeps the most recent epoch checkpoints."""

    def __init__(self, keep_last: int = 2):
        if keep_last < 1:
            raise CheckpointError("keep_last must be at least 1")
        self.keep_last = keep_last
        self._checkpoints: list[Checkpoint] = []
        self.total_checkpoints = 0

    def take(
        self, world: World, epoch: int, tag: int, capture: Callable[[], dict[int, bytes]]
    ) -> Checkpoint:
        """Checkpoint the run at ``world``'s current tick; ``capture()`` is
        the shard round in which every shard hands over its image."""
        checkpoint = Checkpoint(
            tick=world.tick,
            epoch=epoch,
            next_id=world.next_agent_id,
            seed=world.seed,
            tag=tag,
            images=capture(),
        )
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.keep_last:
            self._checkpoints.pop(0)
        self.total_checkpoints += 1
        return checkpoint

    def latest(self) -> Checkpoint:
        """The most recent checkpoint."""
        if not self._checkpoints:
            raise CheckpointError("no checkpoint has been taken")
        return self._checkpoints[-1]

    def has_checkpoint(self) -> bool:
        """True when at least one checkpoint exists."""
        return bool(self._checkpoints)


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
