"""Persisting quantized indexes to disk.

A deployed LightLT system stores exactly what §IV budgets for: the
codebooks, the per-item codeword ids, the per-item norms, and (optionally)
labels. This module round-trips a :class:`QuantizedIndex` through a single
``.npz`` archive so indexes can be built offline and served elsewhere.

Serving correctness depends on these archives being trustworthy, so writes
go through :mod:`repro.resilience.artifacts` (atomic rename, embedded
SHA-256 manifest) and loads validate everything a served index relies on:
archive integrity, format version, and mutual shape/dtype consistency of
``codes``/``codebooks``/``db_sq_norms``/``labels``. A damaged archive
raises :class:`~repro.resilience.errors.CorruptArtifactError`; an archive
from an unknown format raises
:class:`~repro.resilience.errors.IncompatibleStateError` — never a
garbage index.
"""

from __future__ import annotations

import os

import numpy as np

from repro.resilience.artifacts import read_archive, write_archive
from repro.resilience.errors import CorruptArtifactError, IncompatibleStateError
from repro.retrieval.adc import validate_codes
from repro.retrieval.index import QuantizedIndex

_FORMAT_VERSION = 1
_MUTABLE_FORMAT_VERSION = 1

INDEX_KIND = "quantized-index"
MUTABLE_INDEX_KIND = "mutable-index"


def save_index(index: QuantizedIndex, path: str) -> None:
    """Write an index to ``path`` as a durable compressed ``.npz`` archive.

    Codes are archived as the index keeps them — the smallest unsigned
    integer dtype that fits the codebook size, mirroring the
    ``M·log2(K)/8`` bytes-per-item budget.
    """
    payload = {
        "version": np.array([_FORMAT_VERSION]),
        "codebooks": index.codebooks.astype(np.float32),
        "codes": index.codes,
        "db_sq_norms": index.db_sq_norms.astype(np.float32),
    }
    if index.labels is not None:
        payload["labels"] = index.labels
    write_archive(
        path,
        payload,
        kind=INDEX_KIND,
        meta={
            "num_items": len(index),
            "num_codebooks": index.num_codebooks,
            "num_codewords": index.num_codewords,
            "dim": index.dim,
        },
    )


def _validate_index_arrays(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Reject archives whose members cannot form a consistent index."""
    required = ("version", "codebooks", "codes", "db_sq_norms")
    missing = [key for key in required if key not in arrays]
    if missing:
        raise CorruptArtifactError(
            f"index archive {path!r} is missing required arrays: {missing}"
        )
    version = int(np.asarray(arrays["version"]).reshape(-1)[0])
    if version != _FORMAT_VERSION:
        raise IncompatibleStateError(
            f"unsupported index format version {version} "
            f"(expected {_FORMAT_VERSION})"
        )
    codebooks = arrays["codebooks"]
    codes = arrays["codes"]
    norms = arrays["db_sq_norms"]
    if codebooks.ndim != 3:
        raise CorruptArtifactError(
            f"index archive {path!r}: codebooks must be (M, K, d), "
            f"got shape {codebooks.shape}"
        )
    m, k, _ = codebooks.shape
    try:
        validate_codes(codes, m, k)
    except ValueError as exc:
        raise CorruptArtifactError(
            f"index archive {path!r}: codes do not fit {m} codebooks of "
            f"{k} codewords: {exc}"
        ) from exc
    if norms.ndim != 1 or len(norms) != len(codes):
        raise CorruptArtifactError(
            f"index archive {path!r}: db_sq_norms shape {norms.shape} disagrees "
            f"with {len(codes)} coded items"
        )
    if "labels" in arrays and len(arrays["labels"]) != len(codes):
        raise CorruptArtifactError(
            f"index archive {path!r}: {len(arrays['labels'])} labels for "
            f"{len(codes)} coded items"
        )


def load_index(path: str) -> QuantizedIndex:
    """Load and validate an archive produced by :func:`save_index`."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    arrays, _, _ = read_archive(path, kind=INDEX_KIND)
    _validate_index_arrays(path, arrays)
    return QuantizedIndex(
        codebooks=arrays["codebooks"].astype(np.float64),
        codes=arrays["codes"],
        db_sq_norms=arrays["db_sq_norms"].astype(np.float64),
        labels=arrays["labels"] if "labels" in arrays else None,
    )


def save_mutable_index(index, path: str) -> None:
    """Write a :class:`~repro.retrieval.mutable.MutableIndex` to ``path``.

    Unlike :func:`save_index` (which narrows to float32, matching the §IV
    serving budget), mutable archives keep codebooks and norms at float64:
    the mutable index's contract is *bit-identical* parity with a
    from-scratch rebuild, and that survives a round trip only if the scan
    inputs do. Segments are stored as-is — ``segment{i}_codes/norms/ids/
    dead`` (+ optional labels) — so a load resumes mid-lifecycle with
    tombstones and pending compaction intact.
    """
    # Imported here (not at module top) to keep the immutable-index path
    # free of the mutable module and its engine dependencies.
    from repro.retrieval.mutable import MutableIndex

    if not isinstance(index, MutableIndex):
        raise TypeError("save_mutable_index requires a MutableIndex")
    gen = index._gen
    baseline = index._drift_baseline
    payload: dict[str, np.ndarray] = {
        "version": np.array([_MUTABLE_FORMAT_VERSION]),
        "codebooks": index.codebooks,
        "state": np.array(
            [gen.number, index._next_id, int(index._refresh_flagged)],
            dtype=np.int64,
        ),
        "drift": np.array(
            [np.nan if baseline is None else baseline, index._drift_ratio],
            dtype=np.float64,
        ),
    }
    for i, segment in enumerate(gen.segments):
        payload[f"segment{i}_codes"] = segment.codes
        payload[f"segment{i}_norms"] = segment.norms
        payload[f"segment{i}_ids"] = segment.ids
        payload[f"segment{i}_dead"] = segment.dead
        if segment.labels is not None:
            payload[f"segment{i}_labels"] = segment.labels
    write_archive(
        path,
        payload,
        kind=MUTABLE_INDEX_KIND,
        meta={
            "num_segments": len(gen.segments),
            "live": gen.live_count,
            "tombstones": gen.dead_count,
            "generation": gen.number,
            "dim": index.dim,
        },
    )


def load_mutable_index(path: str, *, engine_kwargs: dict | None = None):
    """Load an archive produced by :func:`save_mutable_index`.

    ``engine_kwargs`` is a runtime concern (rerank, IVF cells, LUT cache)
    and is not persisted; pass it here — ``{}`` for the default engine — to
    attach an engine to the restored base segment.
    """
    from repro.retrieval.mutable import MutableIndex, Segment, _Generation

    if not os.path.exists(path):
        raise FileNotFoundError(path)
    arrays, meta, _ = read_archive(path, kind=MUTABLE_INDEX_KIND)
    meta = meta or {}
    for key in ("version", "codebooks", "state", "drift"):
        if key not in arrays:
            raise CorruptArtifactError(
                f"mutable-index archive {path!r} is missing {key!r}"
            )
    version = int(np.asarray(arrays["version"]).reshape(-1)[0])
    if version != _MUTABLE_FORMAT_VERSION:
        raise IncompatibleStateError(
            f"unsupported mutable-index format version {version} "
            f"(expected {_MUTABLE_FORMAT_VERSION})"
        )
    num_segments = int(meta.get("num_segments", 0))
    if num_segments < 1:
        raise CorruptArtifactError(
            f"mutable-index archive {path!r} declares no segments"
        )
    codebooks = np.asarray(arrays["codebooks"], dtype=np.float64)
    if codebooks.ndim != 3:
        raise CorruptArtifactError(
            f"mutable-index archive {path!r}: codebooks must be (M, K, d), "
            f"got shape {codebooks.shape}"
        )
    m, k, _ = codebooks.shape
    segments = []
    for i in range(num_segments):
        members = {}
        for member in ("codes", "norms", "ids", "dead"):
            key = f"segment{i}_{member}"
            if key not in arrays:
                raise CorruptArtifactError(
                    f"mutable-index archive {path!r} is missing {key!r}"
                )
            members[member] = arrays[key]
        try:
            codes = validate_codes(members["codes"], m, k)
        except ValueError as exc:
            raise CorruptArtifactError(
                f"mutable-index archive {path!r}: segment {i} codes: {exc}"
            ) from exc
        n = len(codes)
        for member in ("norms", "ids", "dead"):
            if len(members[member]) != n:
                raise CorruptArtifactError(
                    f"mutable-index archive {path!r}: segment {i} {member} "
                    f"disagrees with {n} coded rows"
                )
        labels = arrays.get(f"segment{i}_labels")
        if labels is not None and len(labels) != n:
            raise CorruptArtifactError(
                f"mutable-index archive {path!r}: segment {i} labels "
                f"disagree with {n} coded rows"
            )
        segments.append(
            Segment.seal(
                codes,
                np.asarray(members["norms"], dtype=np.float64),
                np.asarray(members["ids"], dtype=np.int64),
                labels=labels,
                dead=np.asarray(members["dead"], dtype=bool),
                num_codewords=k,
            )
        )
    state = np.asarray(arrays["state"], dtype=np.int64).reshape(-1)
    drift = np.asarray(arrays["drift"], dtype=np.float64).reshape(-1)
    if len(state) != 3 or len(drift) != 2:
        raise CorruptArtifactError(
            f"mutable-index archive {path!r}: malformed state/drift members"
        )
    locations: dict[int, tuple[int, int]] = {}
    for position, segment in enumerate(segments):
        for row, ext in enumerate(segment.ids):
            if not segment.dead[row]:
                if int(ext) in locations:
                    raise CorruptArtifactError(
                        f"mutable-index archive {path!r}: id {int(ext)} is "
                        f"live in two segments"
                    )
                locations[int(ext)] = (position, row)
    index = MutableIndex(
        codebooks,
        engine_kwargs=engine_kwargs,
        labels_required=segments[0].labels is not None,
    )
    with index._lock:
        index._install_generation(
            _Generation(number=int(state[0]), segments=tuple(segments))
        )
        index._locations = locations
        index._next_id = int(state[1])
        index._refresh_flagged = bool(state[2])
        index._drift_baseline = None if np.isnan(drift[0]) else float(drift[0])
        index._drift_ratio = float(drift[1])
    return index


def index_file_size(path: str) -> int:
    """On-disk byte size of a saved index."""
    return os.path.getsize(path)
