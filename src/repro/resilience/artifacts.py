"""Durable ``.npz`` archives: atomic writes with embedded integrity manifests.

All persistent artifacts in the repository (model state, quantized indexes,
training checkpoints) go through this module. Writing is crash-safe —
write to a temporary file in the destination directory, flush, ``fsync``,
then atomically rename — so a reader never observes a half-written archive.
Each archive embeds a manifest recording a SHA-256 digest, dtype, and shape
per array, plus an artifact *kind* and format version, so loads detect
silent corruption (bit flips, truncation) and kind/version mismatches
before any downstream math sees garbage.

Legacy archives written by bare ``np.savez_compressed`` (no manifest) are
still readable; they simply get no checksum verification.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from repro.resilience.errors import CorruptArtifactError, IncompatibleStateError

ARTIFACT_FORMAT_VERSION = 1

MANIFEST_KEY = "__manifest__"
META_KEY = "__meta__"
_RESERVED_KEYS = frozenset({MANIFEST_KEY, META_KEY})


def _digest(array: np.ndarray) -> str:
    """SHA-256 over an array's raw bytes (contiguous, native layout)."""
    contiguous = np.ascontiguousarray(array)
    return hashlib.sha256(contiguous.tobytes()).hexdigest()


def _encode_json(payload: object) -> np.ndarray:
    """Store a JSON document as a uint8 array (stable across platforms)."""
    return np.frombuffer(
        json.dumps(payload, sort_keys=True).encode("utf-8"), dtype=np.uint8
    ).copy()


def _decode_json(array: np.ndarray) -> object:
    return json.loads(np.asarray(array, dtype=np.uint8).tobytes().decode("utf-8"))


def write_archive(
    path: str,
    arrays: dict[str, np.ndarray],
    kind: str,
    meta: dict | None = None,
) -> None:
    """Atomically write ``arrays`` (plus optional JSON ``meta``) to ``path``.

    The archive lands fully-formed or not at all: content goes to a
    temporary file in the same directory, is fsync'd, and is renamed over
    ``path`` with ``os.replace``. A crash mid-write leaves any previous
    version of ``path`` untouched.
    """
    reserved = _RESERVED_KEYS.intersection(arrays)
    if reserved:
        raise ValueError(f"array keys {sorted(reserved)} are reserved")
    payload = {key: np.asarray(value) for key, value in arrays.items()}
    if meta is not None:
        payload[META_KEY] = _encode_json(meta)
    manifest = {
        "kind": kind,
        "format_version": ARTIFACT_FORMAT_VERSION,
        "arrays": {
            key: {
                "sha256": _digest(value),
                "dtype": value.dtype.str,
                "shape": list(value.shape),
            }
            for key, value in payload.items()
        },
    }
    payload[MANIFEST_KEY] = _encode_json(manifest)

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp-", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _end_record_members(path: str) -> int | None:
    """The member count in a zip's end-of-central-directory record, when the
    file ends in a plain one (no archive comment, not zip64) — as every
    ``np.savez`` archive does; ``None`` otherwise."""
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() < 22:
            return None
        handle.seek(-22, os.SEEK_END)
        record = handle.read(22)
    count = int.from_bytes(record[10:12], "little")
    if record[:4] != b"PK\x05\x06" or count == 0xFFFF:
        return None
    return count


def read_archive(
    path: str,
    kind: str | None = None,
) -> tuple[dict[str, np.ndarray], dict | None, dict | None]:
    """Load and verify an archive; returns ``(arrays, meta, manifest)``.

    Raises :class:`CorruptArtifactError` if the file is unreadable,
    truncated, fails checksum verification, or disagrees with its manifest,
    and :class:`IncompatibleStateError` if the manifest's kind or format
    version does not match expectations. Archives without a manifest are
    treated as legacy: returned un-verified with ``manifest=None``.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            raw = {key: archive[key] for key in archive.files}
    except Exception as exc:
        # Whatever the zip or .npy reader raises on damaged bytes — beyond
        # BadZipFile, zlib.error, OSError and the like, a flipped directory
        # flag bit raises NotImplementedError ("strong encryption") or
        # RuntimeError ("password required") — is corruption to the caller.
        raise CorruptArtifactError(f"unreadable archive {path!r}: {exc}") from exc
    counted = _end_record_members(path)
    if counted is not None and counted != len(raw):
        # A damaged directory entry (say, its comment length) can hide the
        # members after it — the manifest among them — and pass the rest
        # off as a complete legacy archive.
        raise CorruptArtifactError(
            f"archive {path!r} lists {len(raw)} members but its end record counts {counted}"
        )

    if MANIFEST_KEY not in raw:
        # Legacy archive: no integrity data to verify against.
        meta = _decode_json(raw.pop(META_KEY)) if META_KEY in raw else None
        return raw, meta, None

    try:
        manifest = _decode_json(raw.pop(MANIFEST_KEY))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptArtifactError(f"unreadable manifest in {path!r}: {exc}") from exc

    version = manifest.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise IncompatibleStateError(
            f"unsupported artifact format version {version!r} in {path!r} "
            f"(expected {ARTIFACT_FORMAT_VERSION})"
        )
    if kind is not None and manifest.get("kind") != kind:
        raise IncompatibleStateError(
            f"artifact kind mismatch in {path!r}: "
            f"expected {kind!r}, found {manifest.get('kind')!r}"
        )

    entries = manifest.get("arrays", {})
    missing = sorted(set(entries) - set(raw))
    extra = sorted(set(raw) - set(entries))
    if missing or extra:
        raise CorruptArtifactError(
            f"archive {path!r} disagrees with its manifest: "
            f"missing={missing}, unexpected={extra}"
        )
    for key, entry in entries.items():
        value = raw[key]
        if value.dtype.str != entry["dtype"] or list(value.shape) != entry["shape"]:
            raise CorruptArtifactError(
                f"array {key!r} in {path!r} does not match its manifest: "
                f"stored {value.dtype.str}{value.shape}, "
                f"expected {entry['dtype']}{tuple(entry['shape'])}"
            )
        if _digest(value) != entry["sha256"]:
            raise CorruptArtifactError(
                f"checksum mismatch for array {key!r} in {path!r}"
            )

    meta = _decode_json(raw.pop(META_KEY)) if META_KEY in raw else None
    return raw, meta, manifest
