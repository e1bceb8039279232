"""Tests for index persistence."""

import numpy as np
import pytest

from repro.resilience.errors import CorruptArtifactError, IncompatibleStateError
from repro.resilience.faults import flip_bytes, truncate_file
from repro.retrieval.index import QuantizedIndex
from repro.resilience.artifacts import read_archive, write_archive
from repro.retrieval.mutable import MutableIndex
from repro.retrieval.persistence import (
    INDEX_KIND,
    MUTABLE_INDEX_KIND,
    index_file_size,
    load_index,
    load_mutable_index,
    save_index,
    save_mutable_index,
)


def build_index(seed: int = 0, k: int = 16, with_labels: bool = True):
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(3, k, 8))
    database = rng.normal(size=(50, 8))
    labels = rng.integers(0, 5, size=50) if with_labels else None
    return QuantizedIndex.build(codebooks, database, labels=labels)


def synthetic_index(k: int, with_labels: bool = True, seed: int = 0):
    """Directly-constructed index, cheap even at very large codebook sizes."""
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(2, k, 2))
    codes = rng.integers(0, k, size=(12, 2))
    labels = rng.integers(0, 4, size=12) if with_labels else None
    return QuantizedIndex(
        codebooks=codebooks,
        codes=codes,
        db_sq_norms=rng.uniform(0.1, 2.0, size=12),
        labels=labels,
    )


class TestRoundTrip:
    def test_search_results_survive(self, tmp_path):
        index = build_index()
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        restored = load_index(path)
        queries = np.random.default_rng(1).normal(size=(7, 8))
        assert np.array_equal(index.search(queries), restored.search(queries))
        assert np.array_equal(index.labels, restored.labels)

    def test_float32_storage_tolerance(self, tmp_path):
        # Codebooks are stored in float32 (the paper's 4-byte budget);
        # distances change by at most float32 epsilon effects.
        index = build_index()
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        restored = load_index(path)
        assert np.allclose(index.codebooks, restored.codebooks, atol=1e-6)

    def test_without_labels(self, tmp_path):
        index = build_index(with_labels=False)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        assert load_index(path).labels is None

    def test_code_dtype_matches_codebook_size(self, tmp_path):
        small = build_index(k=16)
        path = str(tmp_path / "small.npz")
        save_index(small, path)
        with np.load(path) as archive:
            assert archive["codes"].dtype == np.uint8

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(str(tmp_path / "absent.npz"))

    def test_file_size_reported(self, tmp_path):
        index = build_index()
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        assert index_file_size(path) > 0

    def test_version_check(self, tmp_path):
        index = build_index()
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["version"] = np.array([99])
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_index(path)


class TestCodeDtypeBoundaries:
    """Round trips at every storage dtype the K-boundaries select."""

    @pytest.mark.parametrize(
        "k,expected_dtype",
        [
            (256, np.uint8),  # largest K that fits one byte
            (257, np.uint16),  # first K requiring two
            (65536, np.uint16),  # largest two-byte K
            (65537, np.uint32),  # first K requiring four
        ],
    )
    @pytest.mark.parametrize("with_labels", [True, False])
    def test_roundtrip_at_boundary(self, tmp_path, k, expected_dtype, with_labels):
        index = synthetic_index(k, with_labels=with_labels)
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        with np.load(path) as archive:
            assert archive["codes"].dtype == expected_dtype
        restored = load_index(path)
        assert np.array_equal(restored.codes, index.codes)
        assert restored.num_codewords == k
        if with_labels:
            assert np.array_equal(restored.labels, index.labels)
        else:
            assert restored.labels is None


class TestWiderCodeArchives:
    """Archives whose codes are wider than the store keeps them still load:
    mutable archives written before the store was compact (int64
    ``segment{i}_codes``), index archives from any writer that did not
    narrow. New archives carry the in-memory dtype."""

    @pytest.mark.parametrize("kind", [INDEX_KIND, MUTABLE_INDEX_KIND])
    @pytest.mark.parametrize("k", [16, 300])
    def test_int64_codes_load_and_search_identically(self, tmp_path, kind, k):
        index = build_index(k=k)
        queries = np.random.default_rng(1).normal(size=(7, 8))
        if kind == MUTABLE_INDEX_KIND:
            index = MutableIndex.from_index(index)
            index.add(np.random.default_rng(2).normal(size=(9, 8)), labels=np.zeros(9))
            index.remove(index.live_ids()[::5])
            save, load = save_mutable_index, load_mutable_index
        else:
            save, load = save_index, load_index
        path = str(tmp_path / "compact.npz")
        save(index, path)
        arrays, meta, _ = read_archive(path, kind=kind)
        code_keys = [key for key in arrays if key.endswith("codes")]
        compact = np.uint8 if k == 16 else np.uint16
        assert code_keys and all(arrays[key].dtype == compact for key in code_keys)
        for key in code_keys:
            arrays[key] = arrays[key].astype(np.int64)
        wide_path = str(tmp_path / "wide.npz")
        write_archive(wide_path, arrays, kind=kind, meta=meta)
        narrow, wide = load(path), load(wide_path)
        for a, b in zip(
            narrow.search_with_distances(queries, 10),
            wide.search_with_distances(queries, 10),
        ):
            assert np.array_equal(a, b)
        if kind == INDEX_KIND:
            assert wide.codes.dtype == index.codes.dtype
            assert np.array_equal(wide.codes, index.codes)


class TestCorruptionAndValidation:
    def save(self, tmp_path, index=None) -> str:
        path = str(tmp_path / "index.npz")
        save_index(index if index is not None else build_index(), path)
        return path

    def test_truncated_archive_rejected(self, tmp_path):
        path = self.save(tmp_path)
        truncate_file(path, fraction=0.5)
        with pytest.raises(CorruptArtifactError):
            load_index(path)

    def test_bit_flipped_archive_rejected(self, tmp_path):
        path = self.save(tmp_path)
        flip_bytes(path, count=4, seed=2)
        with pytest.raises(CorruptArtifactError):
            load_index(path)

    def _repack(self, path, **overrides):
        """Rewrite the archive (legacy-style, no manifest) with fields altered."""
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload.pop("__manifest__", None)
        payload.pop("__meta__", None)
        payload.update(overrides)
        np.savez_compressed(path, **payload)

    def test_codes_codebooks_disagreement_rejected(self, tmp_path):
        path = self.save(tmp_path)
        # 4 code columns for 3 codebooks.
        self._repack(path, codes=np.zeros((50, 4), dtype=np.uint8))
        with pytest.raises(CorruptArtifactError, match="codes"):
            load_index(path)

    def test_norms_length_disagreement_rejected(self, tmp_path):
        path = self.save(tmp_path)
        self._repack(path, db_sq_norms=np.zeros(7, dtype=np.float32))
        with pytest.raises(CorruptArtifactError, match="db_sq_norms"):
            load_index(path)

    def test_labels_length_disagreement_rejected(self, tmp_path):
        path = self.save(tmp_path)
        self._repack(path, labels=np.zeros(3, dtype=np.int64))
        with pytest.raises(CorruptArtifactError, match="labels"):
            load_index(path)

    def test_out_of_range_codes_rejected(self, tmp_path):
        path = self.save(tmp_path)
        # Codeword id 200 with only 16 codewords per book.
        self._repack(path, codes=np.full((50, 3), 200, dtype=np.uint8))
        with pytest.raises(CorruptArtifactError, match="codewords"):
            load_index(path)

    def test_missing_member_rejected(self, tmp_path):
        path = self.save(tmp_path)
        with np.load(path) as archive:
            payload = {
                key: archive[key]
                for key in archive.files
                if key not in ("db_sq_norms", "__manifest__", "__meta__")
            }
        np.savez_compressed(path, **payload)
        with pytest.raises(CorruptArtifactError, match="missing"):
            load_index(path)

    def test_model_archive_is_not_an_index(self, tmp_path):
        from repro.nn import MLP, save_state

        path = str(tmp_path / "model.npz")
        save_state(MLP([4, 4], np.random.default_rng(0)), path)
        with pytest.raises(IncompatibleStateError, match="kind"):
            load_index(path)
