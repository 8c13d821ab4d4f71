"""A test double that runs the columnar wire without pools.

:class:`CodecRoundTripExecutor` is a serial executor that claims not to
share memory: every shard payload and result is encoded and decoded through
the :mod:`repro.ipc.frames` wire transforms exactly as it would be across a
process boundary (same bytes, same object copies), so a runtime it is
plugged into takes its wire path — replica deltas, lazy routing, world sync,
measured bytes — in process.  Install it on a freshly built runtime, before
the first tick seeds the shards::

    runtime.executor = CodecRoundTripExecutor()
"""

from __future__ import annotations

import pickle
import time

from repro.ipc.frames import ColumnarCodec, _from_wire, _to_wire
from repro.mapreduce.executor import SerialExecutor, ShardTaskResult, _timed_shard_call


def roundtrip(obj) -> tuple:
    """Encode→decode ``obj``; returns ``(decoded copy, frame bytes)``.

    Dynamically built agent classes cannot be pickled, which is exactly why
    they only run in process; their frames are decoded directly (0 bytes) so
    they still exercise the wire transforms.
    """
    wire = _to_wire(obj)
    try:
        blob = pickle.dumps(wire, ColumnarCodec.protocol)
    except (pickle.PicklingError, AttributeError, TypeError):
        return _from_wire(wire), 0
    return _from_wire(pickle.loads(blob)), len(blob)


class CodecRoundTripExecutor(SerialExecutor):
    """Serial shard host whose transport copies through the columnar codec."""

    name = "codec-roundtrip"
    shares_memory = False

    # What the runtime asks of every wire, answered for a wire without nodes:
    # nothing can be lost, and there is nowhere to move a shard to.
    def drain_fault_events(self) -> list:
        return []

    def lost_shards(self) -> tuple:
        return ()

    def rebalance_shards(self, weights) -> tuple:
        return [], 0

    def init_shards(self, factory, payloads) -> None:
        super().init_shards(
            factory, {shard_id: roundtrip(payload)[0] for shard_id, payload in payloads.items()}
        )

    def run_sharded_tasks(self, tasks) -> list[ShardTaskResult]:
        states = self._require_shards(tasks)
        results = []
        for shard_id, fn, payload in tasks:
            start = time.perf_counter()
            decoded, payload_bytes = roundtrip(payload)
            serialize_seconds = time.perf_counter() - start
            value, seconds = _timed_shard_call(fn, states[shard_id], decoded)
            start = time.perf_counter()
            result, result_bytes = roundtrip(value)
            serialize_seconds += time.perf_counter() - start
            results.append(
                ShardTaskResult(
                    shard_id,
                    result,
                    seconds,
                    payload_bytes=payload_bytes,
                    result_bytes=result_bytes,
                    serialize_seconds=serialize_seconds,
                )
            )
        return results
