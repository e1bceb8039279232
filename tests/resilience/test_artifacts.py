"""Tests for durable archives: atomicity, checksums, and typed failures."""

import os

import numpy as np
import pytest

from repro.resilience.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    MANIFEST_KEY,
    read_archive,
    write_archive,
)
from repro.resilience.errors import CorruptArtifactError, IncompatibleStateError
from repro.resilience.faults import flip_bytes, truncate_file


def sample_arrays(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "weights": rng.normal(size=(8, 4)),
        "codes": rng.integers(0, 255, size=(20, 3)).astype(np.uint8),
    }


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        path = str(tmp_path / "artifact.npz")
        arrays = sample_arrays()
        write_archive(path, arrays, kind="test-kind", meta={"note": "hello", "n": 3})
        loaded, meta, manifest = read_archive(path, kind="test-kind")
        assert set(loaded) == set(arrays)
        for key in arrays:
            assert np.array_equal(loaded[key], arrays[key])
            assert loaded[key].dtype == arrays[key].dtype
        assert meta == {"note": "hello", "n": 3}
        assert manifest["kind"] == "test-kind"
        assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION

    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        path = str(tmp_path / "artifact.npz")
        write_archive(path, sample_arrays(), kind="test-kind")
        write_archive(path, sample_arrays(1), kind="test-kind")  # overwrite in place
        assert sorted(os.listdir(tmp_path)) == ["artifact.npz"]

    def test_reserved_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_archive(
                str(tmp_path / "a.npz"), {MANIFEST_KEY: np.zeros(1)}, kind="test-kind"
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_archive(str(tmp_path / "absent.npz"))


class TestCorruptionDetection:
    def test_truncation_raises_corrupt(self, tmp_path):
        path = str(tmp_path / "artifact.npz")
        write_archive(path, sample_arrays(), kind="test-kind")
        truncate_file(path, fraction=0.5)
        with pytest.raises(CorruptArtifactError):
            read_archive(path, kind="test-kind")

    def test_bit_flip_raises_corrupt(self, tmp_path):
        path = str(tmp_path / "artifact.npz")
        write_archive(path, sample_arrays(), kind="test-kind")
        flip_bytes(path, count=4, seed=0)
        with pytest.raises(CorruptArtifactError):
            read_archive(path, kind="test-kind")

    def test_array_swapped_after_write_fails_checksum(self, tmp_path):
        # Re-pack the archive with one member altered but structurally valid:
        # only the embedded checksum can catch this.
        path = str(tmp_path / "artifact.npz")
        write_archive(path, sample_arrays(), kind="test-kind")
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["weights"] = payload["weights"] + 1e-9
        np.savez_compressed(path, **payload)
        with pytest.raises(CorruptArtifactError, match="checksum"):
            read_archive(path, kind="test-kind")


class TestDirectoryFlipSweep:
    def test_every_directory_bit_flip_is_caught_or_harmless(self, tmp_path):
        # Bits 0 and 6 of every byte of the zip central directory (and its
        # end record) of a small index artifact: each flip makes the load
        # raise a typed artifact error, or load the very arrays written.
        from repro.retrieval import QuantizedIndex
        from repro.retrieval.persistence import load_index, save_index

        def arrays(index):
            return [index.codebooks, index.codes, index.db_sq_norms, index.labels]

        rng = np.random.default_rng(0)
        index = QuantizedIndex.build(
            rng.normal(size=(2, 4, 3)), rng.normal(size=(30, 3)), labels=np.arange(30) % 3
        )
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        with open(path, "rb") as handle:
            clean = handle.read()
        want = arrays(load_index(path))
        outcomes = {"caught": 0, "equal": 0}
        for offset in range(clean.index(b"PK\x01\x02"), len(clean)):
            for bit in (0, 6):
                damaged = bytearray(clean)
                damaged[offset] ^= 1 << bit
                with open(path, "wb") as handle:
                    handle.write(damaged)
                try:
                    got = arrays(load_index(path))
                except (CorruptArtifactError, IncompatibleStateError):
                    outcomes["caught"] += 1
                    continue
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (offset, bit)
                outcomes["equal"] += 1
        assert outcomes["caught"] > 0 and outcomes["equal"] > 0


class TestCompatibility:
    def test_wrong_kind(self, tmp_path):
        path = str(tmp_path / "artifact.npz")
        write_archive(path, sample_arrays(), kind="model")
        with pytest.raises(IncompatibleStateError, match="kind"):
            read_archive(path, kind="index")

    def test_legacy_archive_loads_without_manifest(self, tmp_path):
        path = str(tmp_path / "legacy.npz")
        arrays = sample_arrays()
        np.savez_compressed(path, **arrays)
        loaded, meta, manifest = read_archive(path, kind="anything")
        assert manifest is None and meta is None
        assert np.array_equal(loaded["weights"], arrays["weights"])
