"""Build, cache and bind the compiled kernels (``native.c``).

The ADC scan and three passes of index builds share one C source, one
artifact and one fallback:

- *the ADC search* behind :func:`repro.retrieval.adc.search_ranges`;
- *the row-select pass* (:meth:`Kernel.select_rows`): after each codebook
  level's BLAS GEMM, one call scores every row against the level's
  codewords with the NumPy path's float operations, picks NumPy's extremum
  and updates the row's residual, running decode and next input — for
  :func:`repro.retrieval.adc.encode_nearest`,
  :meth:`repro.core.dsq.DSQ.encode` and :mod:`repro.cluster.kmeans`;
- *the row decode* (:meth:`Kernel.decode`) behind
  :func:`repro.retrieval.adc.reconstruct`: each row's codewords summed level
  by level in registers, with no ``(rows, M, d)`` gather;
- *the cluster-sum pass* (:meth:`Kernel.cluster_sums`) behind k-means'
  update step: each row added into its cluster's partial sum in row order,
  with no sort and no gathered copy.

The build passes live here, below both :mod:`repro.retrieval` and
:mod:`repro.cluster`, so either imports them without a cycle.

:func:`load` is the one entry: on first use in a process it compiles the
library with the system C compiler into a per-user cache directory — or
finds it already there — and loads it through :mod:`ctypes`, which releases
the GIL for the length of each call. Whatever goes wrong — no compiler, a
compile error, an unwritable cache directory, a library that will not load
— it logs one warning and returns ``None``, and every caller runs its NumPy
path, which is also the reference the compiled one is tested against bit
for bit. Nothing selects between the two but that outcome.

A float32 search is one call per batch (:meth:`Kernel.search`): tables,
scan, rerank and id map all run in C. Its arguments come in two halves. A
layout's — code and norm addresses, stride, length, fused flag — are taken
once, when the layout is built (:func:`layout_args`, held by
:class:`repro.retrieval.adc.ScanLayout` together with the arrays they point
into, so the memory outlives every call). A call marshals only the batch's
own arrays: its tables, ``‖q‖²``, ranges, id map and outputs. Behind an IVF
layer the ranges are the probed cells, and :meth:`Kernel.search_cells` forms
them in the same call from the batch's centroid GEMM.

The artifact is named by a hash of the source, the compiler's identity and
the flags, so an edit, a compiler upgrade or a flag change builds a new one
and a cached build costs a ``stat`` and a ``dlopen``. It is compiled to a
temporary file in the cache directory and moved into place with
:func:`os.replace`, so processes racing the first build all succeed.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "DSQ_DOT", "DSQ_L2", "FLAGS", "KMEANS", "Kernel", "NEAREST", "SOURCE", "build", "cache_dir",
    "find_compiler", "layout_args", "load",
]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("native.c")

#: No ``-ffast-math`` and no contraction into fused multiply-adds: the
#: kernels must round exactly as the NumPy paths do. (``-march=native``
#: measured no faster.)
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

#: Seconds a first build may take before it counts as failed.
COMPILE_TIMEOUT_S = 120

_CODES = {np.dtype(np.uint8): "u8", np.dtype(np.uint16): "u16", np.dtype(np.uint32): "u32"}
_F64, _I64 = np.dtype(np.float64), np.dtype(np.int64)
_P, _I = ctypes.c_void_p, ctypes.c_int64
#: search_<code>: the batch's tables, the layout's :func:`layout_args`, then
#: the batch's ranges, id map, widths and outputs.
_SEARCH_ARGS = [
    _P, _P, _I, _I, _I, _P, _I, _I, _I, _P, _P, _I, _P, _I, _I, _P, _I, _I, _I, _P, _P,
]
#: search_cells_<code>: search_<code>'s arguments with the ranges replaced by
#: the probe's inputs (the batch's centroid GEMM, the layer's ``‖c‖²``, cell
#: offsets and cell count, ``nprobe``, the rows to probe), then one more output.
_CELLS_ARGS = _SEARCH_ARGS[:12] + [_P, _P, _P, _I, _I, _I] + _SEARCH_ARGS[15:] + [_P]
#: select_rows: the GEMM's output, the score form's terms, then the outputs
#: and row state.
_SELECT_ARGS = [_P, _I, _I, _I, _P, _P, _P, _I, _P, _I, _P, _P, _I, _P, _P, _I, _P, _P]
#: decode_<code>: the codes and their element strides, the codebooks, the output.
_DECODE_ARGS = [_P, _I, _I, _I, _I, _P, _I, _I, _P]
#: cluster_sums: the rows, their assignments and chunk, the outputs, the scratch.
_SUMS_ARGS = [_P, _I, _I, _I, _P, _I, _I, _P, _P, _P, _P]

#: :meth:`Kernel.select_rows`' score forms — the NumPy operations each
#: replaces, on a level's ``cross = rows @ book.T``, and the extremum taken:
#: ``cross·(−2) + ‖c‖²`` (argmin), ``cross + ‖c‖²`` with ``−2`` already in
#: the GEMM operand (argmin), ``(cross·2 − ‖x‖²) − ‖c‖²`` (argmax) and
#: ``cross`` (argmax).
NEAREST, KMEANS, DSQ_L2, DSQ_DOT = range(4)


def find_compiler() -> str | None:
    """Path of the system C compiler, or ``None`` when ``PATH`` has none."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, or ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def artifact_name(compiler: str) -> str:
    """The library's file name: a hash of source, compiler and flags.

    The compiler is identified by its resolved path, size and modification
    time — a new compiler version is a new binary — so naming an artifact
    never runs the compiler.
    """
    resolved = os.path.realpath(compiler)
    stat = os.stat(resolved)
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(f"{resolved}\0{stat.st_size}\0{stat.st_mtime_ns}".encode())
    digest.update("\0".join(FLAGS).encode())
    return f"native-{digest.hexdigest()[:20]}.so"


def build(compiler: str, directory: Path) -> Path:
    """The compiled library in ``directory``, compiling it if it is missing.

    Raises ``OSError`` (no such compiler, unwritable directory),
    ``subprocess.CalledProcessError`` (a compile error) or
    ``subprocess.TimeoutExpired``.
    """
    target = Path(directory) / artifact_name(compiler)
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".native-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def layout_args(codes_t, norms, norms64, fused: bool) -> tuple:
    """A layout's half of a ``search_<code>`` call, taken once per layout.

    ``codes_t`` is a sealed ``(columns, n)`` layout, ``norms`` and
    ``norms64`` its float32 and float64 norms. Checked here, once, for what
    the C code reads: the codes' dtype and row stride, the norms' dtypes,
    lengths and contiguity. Addresses need no loaded library, so a layout
    built where the kernel is missing binds all the same.
    """
    n = codes_t.shape[1]
    if not (
        codes_t.ndim == 2 and codes_t.dtype in _CODES and not codes_t.flags.writeable
        and (n == 0 or codes_t.strides[1] == codes_t.itemsize)
        and norms.dtype == np.float32 and norms64.dtype == _F64
        and norms.shape == norms64.shape == (n,)
        and norms.flags.c_contiguous and norms64.flags.c_contiguous
    ):
        raise ValueError("the layout does not match the compiled kernel's")
    return (
        codes_t.ctypes.data, len(codes_t), codes_t.strides[0] // codes_t.itemsize, n,
        norms.ctypes.data, norms64.ctypes.data, int(fused),
    )


class Kernel:
    """The ``ctypes`` binding of one loaded ``native`` library."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lib = ctypes.CDLL(str(path))  # kept: the functions live in it
        self._searches, self._cells, self._decodes = {}, {}, {}
        for code, c in _CODES.items():
            self._searches[code] = self._bind(f"search_{c}", _SEARCH_ARGS)
            self._cells[code] = self._bind(f"search_cells_{c}", _CELLS_ARGS)
            self._decodes[code] = self._bind(f"decode_{c}", _DECODE_ARGS)
        self._select = self._bind("select_rows", _SELECT_ARGS, restype=None)
        self._sums = self._bind("cluster_sums", _SUMS_ARGS)

    def _bind(self, name: str, argtypes: list, restype=_I):
        function = getattr(self._lib, name)
        function.argtypes = argtypes
        function.restype = restype
        return function

    def search(self, lut64, q_sq64, layout, ranges, ids, k_scan, k, rerank):
        """``(ids, distances)``: :func:`repro.retrieval.adc.search_ranges`'
        answer, in one call from the float64 tables on.

        Only the batch's arrays are marshalled; the layout's were bound when
        it was built (:func:`layout_args`). This checks the batch against the
        layout — dtypes, contiguity, ``M``, ``K`` and the id map's length —
        and the C code checks the ranges.
        """
        n_q = _batch(lut64, q_sq64, layout, ids)
        if not (
            ranges.dtype == _I64 and ranges.flags.c_contiguous
            and ranges.ndim in (2, 3) and ranges.shape[-1] == 2
            and (ranges.ndim == 2 or len(ranges) == n_q)
        ):
            raise ValueError("search inputs do not match the bound layout")
        values = np.empty((n_q, k))
        found = np.empty((n_q, k), dtype=np.int64)
        count = self._searches[layout.codes_t.dtype](
            _address(lut64), _address(q_sq64), *lut64.shape, *layout.binding,
            _address(ranges), ranges.shape[-2],
            ranges.shape[-2] * 2 if ranges.ndim == 3 else 0,
            None if ids is None else _address(ids), k_scan, k, int(rerank),
            _address(values), _address(found),
        )
        return _answer(count, found, values, k)

    def search_cells(
        self, lut64, q_sq64, layout, cross, cells, nprobe, need, ids, k_scan, k, rerank
    ):
        """``(ids, distances, probe)``: :meth:`search` over each query's
        probed cells, the coarse probe included in the one call.

        ``cross`` is the batch's ``queries @ centroids.T``, ``cells`` an IVF
        layer's ``(‖c‖², cell offsets)``; the C code ranks each query's cells
        with the operations of :func:`repro.retrieval.ivf.probe_cells`, its
        NumPy reference (see ``native.c``), widening until they hold
        ``need`` rows. ``probe`` is ``(2, n_q)``: each query's cells probed
        and the rows they hold.
        """
        n_q = _batch(lut64, q_sq64, layout, ids)
        c_sq, offsets = cells
        n_cells = len(c_sq)
        if not (
            ids is not None and 1 <= nprobe <= n_cells
            and cross.dtype == _F64 and cross.flags.c_contiguous
            and cross.shape == (n_q, n_cells) and _vector(c_sq, _F64, n_cells)
            and _vector(offsets, _I64, n_cells + 1)
        ):
            raise ValueError("probe inputs do not match the bound layout")
        values = np.empty((n_q, k))
        found = np.empty((n_q, k), dtype=np.int64)
        probe = np.empty((2, n_q), dtype=np.int64)
        count = self._cells[layout.codes_t.dtype](
            _address(lut64), _address(q_sq64), *lut64.shape, *layout.binding,
            _address(cross), _address(c_sq), _address(offsets), n_cells, nprobe, need,
            _address(ids), k_scan, k, int(rerank),
            _address(values), _address(found), _address(probe),
        )
        return (*_answer(count, found, values, k), probe)

    def select_rows(
        self, cross, form, codes, *, row=None, col=None, scores=None, minima=None,
        book=None, target=None, recon=None, first=False, emb=None, x=None,
    ):
        """One level's row-select pass over ``cross``, the ``(n, K)`` output
        of its GEMM, in one call (see ``native.c``): called once per level
        and row block, by :mod:`repro.cluster.kmeans` per row chunk and by
        :meth:`repro.core.dsq.DSQ.encode` per level. (The blocked residual
        encode of :mod:`repro.retrieval.adc` binds its arrays once instead,
        through :meth:`nearest_levels`.)

        ``form`` is one of :data:`NEAREST`, :data:`KMEANS`, :data:`DSQ_L2`,
        :data:`DSQ_DOT`, with ``col`` the ``(K,)`` codeword term and ``row``
        the ``(n,)`` row term it reads. Writes each row's pick to ``codes``
        (an ``(n,)`` int64 view, any stride) — NumPy's first argmin / argmax,
        or the first NaN — and, where given, its score to ``minima``, all its
        scores to ``scores`` (an ``(n, K)`` view with unit column stride),
        and — from ``book``, the level's ``(K, d)`` codebook — ``target −=
        book[code]``, ``recon = 0 + book[code]`` (``first``) or ``recon +=
        book[code]``, and ``x = emb − recon``. This checks what the C code
        would otherwise read or write out of bounds: shapes, dtypes, strides,
        writability.
        """
        n, k_words = cross.shape
        dim = 0 if book is None else book.shape[1]
        state = (target, recon, emb, x)
        if not (
            cross.dtype == _F64 and cross.flags.c_contiguous and k_words >= 1
            and _vector(codes, _I64, n, writable=True, strided=True)
            and (form == DSQ_DOT or _vector(col, _F64, k_words))
            and (form != DSQ_L2 or _vector(row, _F64, n))
            and (minima is None or _vector(minima, _F64, n, writable=True))
            and (scores is None or (
                scores.dtype == _F64 and scores.shape == (n, k_words)
                and scores.strides[1] == 8 and scores.strides[0] % 8 == 0
                and scores.flags.writeable
            ))
            and (book is None or (
                book.dtype == _F64 and book.shape == (k_words, dim) and book.flags.c_contiguous
            ))
            and all(a is None or (
                book is not None and a.dtype == _F64 and a.shape == (n, dim)
                and a.flags.c_contiguous
            ) for a in state)
            and all(a is None or a.flags.writeable for a in (target, recon, x))
            and (x is None or (recon is not None and emb is not None))
        ):
            raise ValueError("select inputs do not match the compiled kernel's")
        if n == 0:
            return
        self._select(
            cross.ctypes.data, n, k_words, form,
            None if row is None else row.ctypes.data, None if col is None else col.ctypes.data,
            None if scores is None else scores.ctypes.data,
            0 if scores is None else scores.strides[0] // 8,
            codes.ctypes.data, codes.strides[0] // 8,
            None if minima is None else minima.ctypes.data,
            None if book is None else book.ctypes.data, dim,
            *(None if a is None else a.ctypes.data for a in (target, recon)), int(first),
            *(None if a is None else a.ctypes.data for a in (emb, x)),
        )

    def nearest_levels(self, scores, target, codes, books, code_sq, recon=None):
        """The :data:`NEAREST` select pass of a row-blocked residual encode,
        with its arrays checked once for the whole encode.

        ``scores`` ``(B, K)`` and ``target`` ``(B, d)`` are one row block's
        scratch: its GEMM output and its residual rows. ``codes`` is the
        ``(n, M)`` output, ``books`` and ``code_sq`` the ``(M, K, d)``
        codebooks and their ``(M, K)`` squared norms, ``recon``, when given,
        the ``(n, d)`` running decode. Returns ``select(lo, hi, j, step)``:
        level ``j``'s pass over rows ``[lo, hi)`` of the encode, whose GEMM
        is in ``scores[: hi - lo]``; ``step`` moves the residual on. A call
        checks only its integers.
        """
        rows, k_words = scores.shape
        (n, m), dim = codes.shape, target.shape[1]
        if not (
            all(a.dtype == _F64 and a.flags.c_contiguous for a in (scores, target, books, code_sq))
            and codes.dtype == _I64 and codes.flags.c_contiguous and k_words >= 1
            and target.shape == (rows, dim) and books.shape == (m, k_words, dim)
            and code_sq.shape == (m, k_words)
            and all(a.flags.writeable for a in (scores, target, codes))
            and (recon is None or (
                recon.dtype == _F64 and recon.shape == (n, dim) and recon.flags.c_contiguous
                and recon.flags.writeable
            ))
        ):
            raise ValueError("select inputs do not match the compiled kernel's")
        call = self._select
        cross, residual, out = scores.ctypes.data, target.ctypes.data, codes.ctypes.data
        book, sq = books.ctypes.data, code_sq.ctypes.data
        decode = None if recon is None else recon.ctypes.data

        def select(lo: int, hi: int, j: int, step: bool) -> None:
            if not (0 <= lo <= hi <= n and hi - lo <= rows and 0 <= j < m):
                raise ValueError("select block outside the bound arrays")
            call(
                cross, hi - lo, k_words, NEAREST, None, sq + 8 * j * k_words, None, 0,
                out + 8 * (lo * m + j), m, None,
                book + 8 * j * k_words * dim if step or decode is not None else None, dim,
                residual if step else None,
                None if decode is None else decode + 8 * lo * dim, int(j == 0),
                None, None,
            )

        select.arrays = (scores, target, codes, books, code_sq, recon)  # outlive every call
        return select

    def decode(self, codes, books):
        """``(n, d)``: each row of ``codes`` decoded through ``books``, in
        one call (see ``native.c``) — ``((0.0 + C_0[c_0]) + C_1[c_1]) + …``
        with no ``(n, M, d)`` gather.

        ``codes`` is ``(n, M)`` in a compact unsigned dtype (uint8 to
        uint32), at any strides (copied first if they are not whole
        elements); ``books`` the contiguous float64 ``(M, K, d)`` codebooks.
        These are :func:`repro.retrieval.adc.reconstruct`'s operations for
        ``d ≥ 2``; at ``d = 1`` NumPy sums the levels pairwise, so there the
        caller keeps NumPy. Raises ``ValueError`` for inputs of the wrong
        shape or dtype and for a code outside ``[0, K)``.
        """
        n, m = codes.shape
        if not codes.flags.aligned:  # strides the C code cannot step in elements
            codes = codes.copy()
        if not (
            codes.dtype in self._decodes and books.dtype == _F64 and books.ndim == 3
            and len(books) == m and books.flags.c_contiguous
        ):
            raise ValueError("decode inputs do not match the compiled kernel's")
        _, k_words, dim = books.shape
        if m == 0:  # no levels: every row is the empty sum
            return np.zeros((n, dim))
        out = np.empty((n, dim))
        status = n and dim and self._decodes[codes.dtype](
            codes.ctypes.data, n, m, *(s // codes.itemsize for s in codes.strides),
            books.ctypes.data, k_words, dim, out.ctypes.data,
        )
        if status == -2:
            raise MemoryError("no scratch for the compiled decode")
        if status:
            raise ValueError("code ids out of codebook range")
        return out

    def cluster_sums(self, points, assignments, num_clusters: int, chunk: int):
        """``(sums, counts)``: every cluster's coordinate sums and sizes, in
        one call (see ``native.c``).

        ``points`` is ``(n, d)`` float64 (copied first unless its rows are
        at an element stride with unit column stride); ``assignments`` the
        ``(n,)`` contiguous int64 cluster of each row. Rows are walked in
        chunks of ``chunk``; within one each row adds into its cluster's
        partial sum (from ``+0.0``) in row order, and the chunk's partials
        then add into ``sums`` — the arithmetic of
        :func:`repro.cluster.kmeans._cluster_sums`' NumPy path for ``d ≥ 2``.
        Raises ``ValueError`` for inputs of the wrong shape or dtype and for
        an assignment outside ``[0, num_clusters)``.
        """
        n, dim = points.shape
        if not (points.flags.aligned and (dim <= 1 or points.strides[1] == 8)):
            points = points.copy()  # rows the C code can step in whole elements
        if not (
            points.dtype == _F64 and _vector(assignments, _I64, n)
            and num_clusters >= 1 and chunk >= 1
        ):
            raise ValueError("cluster-sum inputs do not match the compiled kernel's")
        sums, counts = np.zeros((num_clusters, dim)), np.zeros(num_clusters, dtype=np.int64)
        partial, sizes = np.empty((num_clusters, dim)), np.zeros(num_clusters, dtype=np.int64)
        if n and self._sums(
            points.ctypes.data, n, dim, points.strides[0] // 8, assignments.ctypes.data,
            num_clusters, chunk, sums.ctypes.data, counts.ctypes.data, partial.ctypes.data,
            sizes.ctypes.data,
        ):
            raise ValueError("cluster assignments outside [0, num_clusters)")
        return sums, counts


def _batch(lut64, q_sq64, layout, ids) -> int:
    """A search batch's query count, after checking its arrays against the
    bound layout: dtypes, contiguity, ``M``, ``K`` and the id map's length."""
    n_q, m, k_words = lut64.shape
    cols, n = layout.codes_t.shape
    if not (
        lut64.dtype == _F64 and q_sq64.dtype == _F64
        and lut64.flags.c_contiguous and q_sq64.flags.c_contiguous
        and q_sq64.shape == (n_q,)
        and k_words == layout.num_codewords and m == cols * (2 if layout.fused else 1)
        and (ids is None or (
            ids.dtype == _I64 and ids.flags.c_contiguous and ids.shape == (n,)
        ))
    ):
        raise ValueError("search inputs do not match the bound layout")
    return n_q


def _answer(count: int, found: np.ndarray, values: np.ndarray, k: int) -> tuple:
    """A search call's ``(ids, distances)`` from its return count."""
    if count == -2:
        raise MemoryError("no scratch for the compiled search")
    if count < 0:
        raise ValueError("scan ranges fall outside the layout")
    if count < k:  # some query has fewer than k candidates
        return found[:, :count].copy(), values[:, :count].copy()
    return found, values


def _vector(array, dtype, n: int, writable: bool = False, strided: bool = False) -> bool:
    """Whether ``array`` is an ``(n,)`` array of ``dtype`` the C code may
    walk: contiguous, or (``strided``) at a whole-element stride."""
    return (
        array is not None and array.dtype == dtype and array.shape == (n,)
        and (array.flags.writeable or not writable)
        and (array.flags.c_contiguous or (strided and array.strides[0] % dtype.itemsize == 0))
    )


def _address(array: np.ndarray) -> int:
    """Data pointer of a contiguous, non-empty array.

    Through the buffer protocol where the array is writable — a third of
    the cost of ``array.ctypes.data``, which a read-only array still needs.
    """
    if array.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


_LOCK = threading.Lock()
_LOADED: list = []  # [Kernel | None] once resolved


def load() -> Kernel | None:
    """The process's compiled kernel, built or found on the first call.

    ``None`` — after one logged warning — when it cannot be had; every later
    call returns the same answer without retrying.
    """
    if not _LOADED:
        with _LOCK:
            if not _LOADED:
                _LOADED.append(_resolve())
    return _LOADED[0]


def _resolve() -> Kernel | None:
    compiler = find_compiler()
    if compiler is None:
        log.warning("no C compiler on PATH; the ADC scan and the build passes run on NumPy")
        return None
    try:
        return Kernel(build(compiler, cache_dir()))
    except subprocess.CalledProcessError as exc:
        detail = (exc.stderr or "").strip().splitlines()[-1:] or [f"exit {exc.returncode}"]
        log.warning("compiling %s failed (%s); the kernels run on NumPy", SOURCE.name, detail[0])
    except (OSError, subprocess.TimeoutExpired) as exc:
        log.warning("cannot build or load %s (%s); the kernels run on NumPy", SOURCE.name, exc)
    return None
