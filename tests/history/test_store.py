"""Unit tests for the on-disk store: layout, ordering, truncation, thinning."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import HistoryError
from repro.history.store import FORMAT, HistoryStore


@pytest.fixture
def store(tmp_path):
    return HistoryStore.create(tmp_path / "store", checkpoint_every=4)


class TestCreateAndOpen:
    def test_create_initializes_the_layout(self, tmp_path):
        store = HistoryStore.create(tmp_path / "s")
        assert (tmp_path / "s" / "manifest.json").exists()
        assert (tmp_path / "s" / "checkpoints").is_dir()
        assert store.manifest["format"] == FORMAT
        assert store.delta_ticks() == []
        assert store.checkpoint_ticks() == []

    def test_open_missing_store_raises(self, tmp_path):
        with pytest.raises(HistoryError, match="no recorded history"):
            HistoryStore.open(tmp_path / "nowhere")

    def test_create_refuses_to_clobber(self, tmp_path):
        HistoryStore.create(tmp_path / "s")
        with pytest.raises(HistoryError, match="overwrite=True"):
            HistoryStore.create(tmp_path / "s")

    def test_create_overwrite_resets_everything(self, tmp_path):
        store = HistoryStore.create(tmp_path / "s")
        store.append_delta(1, {"tick": 1})
        store.write_checkpoint(0, {"tick": 0})
        store.close()
        fresh = HistoryStore.create(tmp_path / "s", overwrite=True)
        assert fresh.delta_ticks() == []
        assert fresh.checkpoint_ticks() == []

    def test_unknown_format_raises(self, tmp_path):
        HistoryStore.create(tmp_path / "s").close()
        manifest_path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "repro-history/99"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(HistoryError, match="format"):
            HistoryStore.open(tmp_path / "s")

    def test_corrupt_manifest_raises(self, tmp_path):
        HistoryStore.create(tmp_path / "s").close()
        (tmp_path / "s" / "manifest.json").write_text("{not json")
        with pytest.raises(HistoryError, match="unreadable"):
            HistoryStore.open(tmp_path / "s")

    def test_bad_cadence_and_retention_values_raise(self, tmp_path):
        with pytest.raises(HistoryError, match="checkpoint_every"):
            HistoryStore.create(tmp_path / "a", checkpoint_every=0)
        with pytest.raises(HistoryError, match="max_ticks"):
            HistoryStore.create(tmp_path / "b", max_ticks=0)


class TestDeltaSegment:
    def test_append_and_read_round_trip(self, store):
        record = {"tick": 1, "killed": [3], "groups": [{"ids": [0, 1]}]}
        store.append_delta(1, record)
        assert store.read_delta(1) == record
        assert store.delta_ticks() == [1]

    def test_appends_must_be_strictly_increasing(self, store):
        store.append_delta(1, {"tick": 1})
        store.append_delta(3, {"tick": 3})
        with pytest.raises(HistoryError, match="out of order"):
            store.append_delta(3, {"tick": 3})
        with pytest.raises(HistoryError, match="out of order"):
            store.append_delta(2, {"tick": 2})

    def test_missing_delta_raises_with_context(self, store):
        with pytest.raises(HistoryError, match="tick 7"):
            store.read_delta(7)

    def test_reopened_store_sees_appended_frames(self, tmp_path):
        store = HistoryStore.create(tmp_path / "s")
        for tick in (1, 2, 3):
            store.append_delta(tick, {"tick": tick, "payload": tick * 10})
        store.close()
        reopened = HistoryStore.open(tmp_path / "s")
        assert reopened.delta_ticks() == [1, 2, 3]
        assert reopened.read_delta(2)["payload"] == 20


class TestCheckpoints:
    def test_round_trip_and_listing(self, store):
        store.write_checkpoint(0, {"tick": 0, "agents": []})
        store.write_checkpoint(4, {"tick": 4, "agents": []})
        assert store.checkpoint_ticks() == [0, 4]
        assert store.read_checkpoint(4)["tick"] == 4

    def test_missing_checkpoint_raises(self, store):
        with pytest.raises(HistoryError, match="no checkpoint"):
            store.read_checkpoint(8)

    def test_nearest_checkpoint_at_or_before(self, store):
        store.write_checkpoint(0, {})
        store.write_checkpoint(4, {})
        assert store.nearest_checkpoint_at_or_before(3) == 0
        assert store.nearest_checkpoint_at_or_before(4) == 4
        assert store.nearest_checkpoint_at_or_before(9) == 4
        with pytest.raises(HistoryError, match="at or before"):
            store.nearest_checkpoint_at_or_before(-1)


class TestTruncationAndThinning:
    def _populate(self, store):
        store.write_checkpoint(0, {"tick": 0})
        for tick in range(1, 9):
            store.append_delta(tick, {"tick": tick})
            if tick % 4 == 0:
                store.write_checkpoint(tick, {"tick": tick})

    def test_truncate_after_drops_the_tail(self, store):
        self._populate(store)
        store.truncate_after(5)
        assert store.delta_ticks() == [1, 2, 3, 4, 5]
        assert store.checkpoint_ticks() == [0, 4]
        # The segment is rewritten compactly and stays readable.
        assert store.read_delta(5) == {"tick": 5}
        # New appends continue from the truncation point.
        store.append_delta(6, {"tick": 6, "rerun": True})
        assert store.read_delta(6)["rerun"] is True

    def test_thin_through_drops_old_deltas_keeps_checkpoints(self, store):
        self._populate(store)
        dropped = store.thin_through(4)
        assert dropped == 4
        assert store.delta_ticks() == [5, 6, 7, 8]
        assert store.checkpoint_ticks() == [0, 4, 8]
        with pytest.raises(HistoryError, match="thinned"):
            store.read_delta(3)

    def test_thin_is_idempotent(self, store):
        self._populate(store)
        store.thin_through(4)
        assert store.thin_through(4) == 0

    def test_truncate_survives_reopen(self, tmp_path):
        store = HistoryStore.create(tmp_path / "s")
        self._populate(store)
        store.truncate_after(2)
        store.close()
        reopened = HistoryStore.open(tmp_path / "s")
        assert reopened.delta_ticks() == [1, 2]
        assert reopened.read_delta(2) == {"tick": 2}


class TestManifest:
    def test_set_metadata_persists(self, tmp_path):
        store = HistoryStore.create(tmp_path / "s")
        store.set_metadata(base_tick=0, last_tick=5, seed=7)
        reopened = HistoryStore.open(tmp_path / "s")
        assert reopened.manifest["last_tick"] == 5
        assert reopened.manifest["seed"] == 7

    def test_size_bytes_grows_with_content(self, store):
        before = store.size_bytes()
        store.append_delta(1, {"tick": 1, "blob": list(range(100))})
        assert store.size_bytes() > before

    def test_context_manager_closes_the_segment(self, tmp_path):
        with HistoryStore.create(tmp_path / "s") as store:
            store.append_delta(1, {"tick": 1})
        assert store._segment_handle is None
        assert HistoryStore.open(tmp_path / "s").read_delta(1) == {"tick": 1}
