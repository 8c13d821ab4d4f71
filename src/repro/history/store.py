"""The on-disk layout of a recorded trajectory: checkpoints + delta segments.

A history store is a directory::

    <path>/
        manifest.json        # format version, cadence, retention, metadata
        deltas.seg           # append-only columnar per-tick delta frames
        deltas.idx           # one JSON line per frame: tick, offset, length
        checkpoints/
            cp_0000000000.bin    # full state snapshot at the base tick
            cp_0000000016.bin    # ... and every ``checkpoint_every`` ticks

Checkpoints hold the complete simulation state at one tick (every agent,
the id allocator, the seed); deltas hold only what changed from the previous
tick — the transactional/analytical split of the store.  Both kinds of frame
go through this module's one codec (:func:`_encode`, highest-protocol
pickle), so the replay layer reads back exactly the Python values the
recorder saw.

The store knows nothing about agents or worlds: it moves opaque payloads and
maintains the tick index, truncation (rewinds after recovery) and retention
thinning.  The schema of the payloads is owned by
:mod:`repro.history.recorder` (writing) and :mod:`repro.history.query`
(reading).
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Any, Iterator

from repro.core.errors import HistoryError

#: On-disk format tag; bump when the layout or payload schema changes.
FORMAT = "repro-history/1"

_MANIFEST = "manifest.json"
_SEGMENT = "deltas.seg"
_INDEX = "deltas.idx"
_CHECKPOINT_DIR = "checkpoints"


def _checkpoint_name(tick: int) -> str:
    return f"cp_{tick:010d}.bin"


def _encode(payload: Any) -> bytes:
    """Encode one checkpoint or delta frame.

    Pickle at the highest protocol round-trips Python floats and ints
    exactly, which is what the bit-identical replay guarantee rests on.
    """
    return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)


def _decode(data: bytes) -> Any:
    """Decode a frame written by :func:`_encode`."""
    return pickle.loads(data)


class HistoryStore:
    """One recorded trajectory on disk.

    Create a fresh store with :meth:`create` (the recorder's path) or attach
    to an existing one with :meth:`open` (the query layer's path).  A store
    object may both append and read; appends are flushed eagerly so a
    concurrently opened reader always sees every completed tick.
    """

    def __init__(self, path: Path, manifest: dict[str, Any]):
        self.path = Path(path)
        self._manifest = manifest
        self._index: list[tuple[int, int, int]] = []  # (tick, offset, length)
        self._tick_lookup: dict[int, tuple[int, int]] = {}
        self._segment_handle = None
        self._load_index()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        checkpoint_every: int = 16,
        max_ticks: int | None = None,
        thin_to_checkpoints: bool = False,
        overwrite: bool = False,
    ) -> "HistoryStore":
        """Initialise an empty store at ``path`` (created if missing).

        Refuses to clobber an existing store unless ``overwrite=True`` —
        recorded trajectories are measurement data, not scratch space.
        """
        if checkpoint_every < 1:
            raise HistoryError("checkpoint_every must be at least 1")
        if max_ticks is not None and max_ticks < 1:
            raise HistoryError("max_ticks must be at least 1 (or None to keep everything)")
        path = Path(path)
        manifest_path = path / _MANIFEST
        if manifest_path.exists():
            if not overwrite:
                raise HistoryError(
                    f"{path} already holds a recorded history; pass overwrite=True "
                    "to replace it or record into a fresh directory"
                )
            existing = cls.open(path)
            existing._delete_contents()
        path.mkdir(parents=True, exist_ok=True)
        (path / _CHECKPOINT_DIR).mkdir(exist_ok=True)
        manifest = {
            "format": FORMAT,
            "checkpoint_every": int(checkpoint_every),
            "max_ticks": max_ticks if max_ticks is None else int(max_ticks),
            "thin_to_checkpoints": bool(thin_to_checkpoints),
            "base_tick": None,
            "last_tick": None,
            "bounds": None,
            "seed": None,
            "provenance": None,
        }
        store = cls(path, manifest)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, path: str | Path) -> "HistoryStore":
        """Attach to the store at ``path``."""
        path = Path(path)
        manifest_path = path / _MANIFEST
        if not manifest_path.exists():
            raise HistoryError(f"no recorded history at {path} (missing {_MANIFEST})")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise HistoryError(f"unreadable history manifest at {manifest_path}: {error}")
        if manifest.get("format") != FORMAT:
            raise HistoryError(
                f"history at {path} uses format {manifest.get('format')!r}; "
                f"this build reads {FORMAT!r}"
            )
        return cls(path, manifest)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest(self) -> dict[str, Any]:
        """The store's metadata (a live reference — use :meth:`set_metadata`)."""
        return self._manifest

    def set_metadata(self, **updates: Any) -> None:
        """Merge ``updates`` into the manifest and persist it."""
        self._manifest.update(updates)
        self._write_manifest()

    def _write_manifest(self) -> None:
        (self.path / _MANIFEST).write_text(json.dumps(self._manifest, indent=2))

    # ------------------------------------------------------------------
    # Delta segment
    # ------------------------------------------------------------------
    def _load_index(self) -> None:
        index_path = self.path / _INDEX
        self._index = []
        self._tick_lookup = {}
        if not index_path.exists():
            return
        for line in index_path.read_text().splitlines():
            if not line.strip():
                continue
            entry = json.loads(line)
            record = (int(entry["tick"]), int(entry["offset"]), int(entry["length"]))
            self._index.append(record)
            self._tick_lookup[record[0]] = (record[1], record[2])

    def _segment(self):
        if self._segment_handle is None:
            self._segment_handle = open(self.path / _SEGMENT, "ab")
        return self._segment_handle

    def append_delta(self, tick: int, record: dict[str, Any]) -> int:
        """Append one per-tick delta frame; returns its size in bytes.

        Ticks must be appended in strictly increasing order; the recorder is
        responsible for truncating first when a recovery rewound the run.
        """
        if self._index and tick <= self._index[-1][0]:
            raise HistoryError(
                f"delta for tick {tick} appended out of order "
                f"(last recorded tick is {self._index[-1][0]}); truncate first"
            )
        frame = _encode(record)
        handle = self._segment()
        offset = handle.tell()
        handle.write(frame)
        handle.flush()
        entry = (int(tick), offset, len(frame))
        self._index.append(entry)
        self._tick_lookup[entry[0]] = (offset, len(frame))
        with open(self.path / _INDEX, "a") as index_handle:
            index_handle.write(
                json.dumps({"tick": entry[0], "offset": offset, "length": len(frame)}) + "\n"
            )
        return len(frame)

    def has_delta(self, tick: int) -> bool:
        """True when a delta frame for ``tick`` is retained."""
        return tick in self._tick_lookup

    def read_delta(self, tick: int) -> dict[str, Any]:
        """Load the delta frame for ``tick``."""
        try:
            offset, length = self._tick_lookup[tick]
        except KeyError:
            raise HistoryError(
                f"no delta recorded for tick {tick} "
                "(outside the recorded range, or thinned by retention)"
            ) from None
        with open(self.path / _SEGMENT, "rb") as handle:
            handle.seek(offset)
            frame = handle.read(length)
        return _decode(frame)

    def iter_deltas(self, start_tick: int, end_tick: int) -> Iterator[dict[str, Any]]:
        """Yield the delta frames for ``start_tick..end_tick`` inclusive, in order."""
        for tick in range(start_tick, end_tick + 1):
            yield self.read_delta(tick)

    def delta_ticks(self) -> list[int]:
        """Every tick with a retained delta frame, ascending."""
        return sorted(self._tick_lookup)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def write_checkpoint(self, tick: int, payload: dict[str, Any]) -> int:
        """Persist a full-state checkpoint at ``tick``; returns bytes written."""
        frame = _encode(payload)
        target = self.path / _CHECKPOINT_DIR / _checkpoint_name(tick)
        target.write_bytes(frame)
        return len(frame)

    def read_checkpoint(self, tick: int) -> dict[str, Any]:
        """Load the checkpoint taken at exactly ``tick``."""
        target = self.path / _CHECKPOINT_DIR / _checkpoint_name(tick)
        if not target.exists():
            raise HistoryError(f"no checkpoint recorded at tick {tick}")
        return _decode(target.read_bytes())

    def checkpoint_ticks(self) -> list[int]:
        """Every tick with a full checkpoint, ascending."""
        directory = self.path / _CHECKPOINT_DIR
        if not directory.exists():
            return []
        ticks = []
        for name in os.listdir(directory):
            if name.startswith("cp_") and name.endswith(".bin"):
                ticks.append(int(name[3:-4]))
        return sorted(ticks)

    def nearest_checkpoint_at_or_before(self, tick: int) -> int:
        """The latest checkpoint tick ``<= tick``."""
        candidates = [cp for cp in self.checkpoint_ticks() if cp <= tick]
        if not candidates:
            raise HistoryError(f"no checkpoint at or before tick {tick}")
        return candidates[-1]

    # ------------------------------------------------------------------
    # Truncation and retention
    # ------------------------------------------------------------------
    def truncate_after(self, tick: int) -> None:
        """Drop every delta and checkpoint recorded for ticks ``> tick``.

        Used when checkpoint recovery rewinds the run: the re-executed ticks
        are recorded afresh over the truncated tail.
        """
        for cp_tick in self.checkpoint_ticks():
            if cp_tick > tick:
                (self.path / _CHECKPOINT_DIR / _checkpoint_name(cp_tick)).unlink()
        if self._index and self._index[-1][0] > tick:
            self._compact(keep=lambda delta_tick: delta_tick <= tick)
        last = self._manifest.get("last_tick")
        if last is not None and last > tick:
            self.set_metadata(last_tick=tick)

    def thin_through(self, tick: int) -> int:
        """Drop delta frames for ticks ``<= tick``; checkpoints are kept.

        Returns the number of frames dropped.  The caller (the recorder's
        retention policy) must pick ``tick`` to be a checkpoint tick so
        every retained tick stays replayable from some checkpoint.
        """
        before = len(self._index)
        if any(delta_tick <= tick for delta_tick, _, _ in self._index):
            self._compact(keep=lambda delta_tick: delta_tick > tick)
        return before - len(self._index)

    def _compact(self, keep) -> None:
        """Rewrite the segment + index, keeping only frames where ``keep(tick)``."""
        if self._segment_handle is not None:
            self._segment_handle.close()
            self._segment_handle = None
        retained: list[tuple[int, bytes]] = []
        segment_path = self.path / _SEGMENT
        if segment_path.exists():
            with open(segment_path, "rb") as handle:
                for tick, offset, length in self._index:
                    if keep(tick):
                        handle.seek(offset)
                        retained.append((tick, handle.read(length)))
        new_index: list[tuple[int, int, int]] = []
        with open(segment_path, "wb") as handle:
            for tick, frame in retained:
                new_index.append((tick, handle.tell(), len(frame)))
                handle.write(frame)
        with open(self.path / _INDEX, "w") as index_handle:
            for tick, offset, length in new_index:
                index_handle.write(
                    json.dumps({"tick": tick, "offset": offset, "length": length}) + "\n"
                )
        self._index = new_index
        self._tick_lookup = {tick: (offset, length) for tick, offset, length in new_index}

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total bytes the store occupies on disk."""
        total = 0
        for root, _dirs, files in os.walk(self.path):
            for name in files:
                total += os.path.getsize(os.path.join(root, name))
        return total

    def _delete_contents(self) -> None:
        """Remove every file the store owns (used by create(overwrite=True))."""
        self.close()
        for name in (_MANIFEST, _SEGMENT, _INDEX):
            target = self.path / name
            if target.exists():
                target.unlink()
        directory = self.path / _CHECKPOINT_DIR
        if directory.exists():
            for name in os.listdir(directory):
                (directory / name).unlink()

    def close(self) -> None:
        """Flush and release the append handle (reading stays possible)."""
        if self._segment_handle is not None:
            self._segment_handle.close()
            self._segment_handle = None

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<HistoryStore path={str(self.path)!r} deltas={len(self._index)} "
            f"checkpoints={len(self.checkpoint_ticks())}>"
        )
