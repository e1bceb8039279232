"""Tests for checkpoint flatten/unflatten, rotation, and corrupt fallback."""

import numpy as np
import pytest

from repro.resilience.checkpoint import (
    CheckpointManager,
    flatten_state,
    unflatten_state,
)
from repro.resilience.errors import CorruptArtifactError
from repro.resilience.faults import flip_bytes, truncate_file


def sample_state(epoch: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed + epoch)
    return {
        "epoch": epoch,
        "seed": seed,
        "model": {"layer.weight": rng.normal(size=(4, 3)), "layer.bias": rng.normal(size=3)},
        "optimizer": {"lr": 1e-3, "m": [rng.normal(size=(4, 3)), rng.normal(size=3)]},
        "rng": {"loader": {"bit_generator": "PCG64", "state": {"state": 123, "inc": 7}}},
        "history": {"epochs": [{"total": 0.5}] * epoch, "events": []},
    }


class TestFlatten:
    def test_roundtrip_preserves_structure_and_values(self):
        state = sample_state(epoch=2)
        arrays, skeleton = flatten_state(state)
        rebuilt = unflatten_state(arrays, skeleton)
        assert rebuilt["epoch"] == 2
        assert np.array_equal(rebuilt["model"]["layer.weight"], state["model"]["layer.weight"])
        assert np.array_equal(rebuilt["optimizer"]["m"][1], state["optimizer"]["m"][1])
        assert rebuilt["rng"] == state["rng"]
        assert rebuilt["history"]["epochs"] == state["history"]["epochs"]

    def test_arrays_land_in_flat_dict(self):
        arrays, _ = flatten_state(sample_state(epoch=1))
        assert "state/model/layer.weight" in arrays
        assert "state/optimizer/m/0" in arrays


class TestManager:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(sample_state(epoch=1))
        state = manager.load_latest_valid()
        assert state["epoch"] == 1
        assert np.array_equal(
            state["model"]["layer.weight"], sample_state(epoch=1)["model"]["layer.weight"]
        )

    def test_rotation_keeps_newest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=2)
        for epoch in range(1, 6):
            manager.save(sample_state(epoch=epoch))
        assert [epoch for epoch, _ in manager.list_checkpoints()] == [4, 5]

    def test_stale_temp_files_are_swept(self, tmp_path):
        # A SIGKILL mid-write leaves `checkpoint-epochNNNNN.npz.tmp-XXXX`
        # behind; the next manager over the directory sweeps it up, leaving
        # unrelated files alone.
        stale = tmp_path / "checkpoint-epoch00002.npz.tmp-abc123"
        unrelated = tmp_path / "notes.txt"
        stale.write_bytes(b"partial write")
        unrelated.write_text("keep me")
        CheckpointManager(str(tmp_path))
        assert not stale.exists()
        assert unrelated.exists()

    def test_empty_directory_returns_none(self, tmp_path):
        assert CheckpointManager(str(tmp_path)).load_latest_valid() is None

    def test_invalid_keep(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), keep=0)

    @pytest.mark.parametrize("damage", [truncate_file, lambda p: flip_bytes(p, count=4, seed=3)])
    def test_falls_back_past_corrupt_newest(self, tmp_path, damage):
        manager = CheckpointManager(str(tmp_path), keep=3)
        for epoch in (1, 2, 3):
            manager.save(sample_state(epoch=epoch))
        damage(manager.checkpoint_path(3))
        state = manager.load_latest_valid()
        assert state["epoch"] == 2
        assert len(manager.skipped) == 1
        assert manager.skipped[0][0] == manager.checkpoint_path(3)

    def test_falls_back_past_a_flipped_directory_flag(self, tmp_path):
        # Bit 6 of a zip directory entry's flags claims strong encryption:
        # zipfile raises NotImplementedError, which must count as corruption.
        manager = CheckpointManager(str(tmp_path), keep=3)
        for epoch in (1, 2):
            manager.save(sample_state(epoch=epoch))
        path = manager.checkpoint_path(2)
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            flags = data.index(b"PK\x01\x02") + 8  # the first entry's flag word
            data[flags] |= 1 << 6
            handle.seek(0)
            handle.write(data)
        state = manager.load_latest_valid()
        assert state["epoch"] == 1
        assert [p for p, _ in manager.skipped] == [path]

    def test_all_corrupt_returns_none(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=3)
        for epoch in (1, 2):
            manager.save(sample_state(epoch=epoch))
            truncate_file(manager.checkpoint_path(epoch))
        assert manager.load_latest_valid() is None
        assert len(manager.skipped) == 2

    def test_direct_load_of_corrupt_file_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(sample_state(epoch=1))
        flip_bytes(manager.checkpoint_path(1), count=4, seed=5)
        with pytest.raises(CorruptArtifactError):
            manager.load(manager.checkpoint_path(1))
