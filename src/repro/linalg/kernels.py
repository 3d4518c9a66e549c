"""Shared parallel linear-algebra kernels (the MKL analog).

The paper's dense stages all run on MKL's *single-precision* routines
(``mkl_sparse_s_mm`` / ``sgeqrf`` / ``sgesvd``) with every SPMM threaded.
This module is the Python counterpart those stages dispatch through:

* :func:`spmm` — a threaded row-blocked sparse @ dense product.  Contiguous
  row chunks of the CSR operator are dispatched onto the shared thread pool
  (:func:`repro.utils.parallel.parallel_map`); each chunk calls scipy's
  compiled ``csr_matvecs`` kernel, which releases the GIL, writing into a
  disjoint slice of one preallocated output.  Because every output row
  depends only on that row's stored entries — accumulated in storage order —
  the result is **bit-identical** to ``matrix @ dense`` for every worker
  count.  CSC operators (the ``Aᵀ`` side of Algorithm 3) are parallelized
  over column chunks of the dense block instead, which preserves the same
  per-column accumulation order and hence the same bit-identity.
* :func:`resolve_precision` — the dtype policy mirroring MKL's ``s``/``d``
  routine split: ``"single"`` casts the operator and sketch once and keeps
  the whole pipeline in float32; ``"double"`` is numpy's default.
* :func:`gram` — blocked ``AᵀB`` with float64 accumulation, so the small
  ``d×d`` / ``sketch×sketch`` reductions of the single-precision pipeline
  keep double-precision sums (the one place MKL's ``s`` routines lose the
  most accuracy).
* :func:`orthonormalize` — the one tall-skinny orthonormalizer, for every
  precision and factorizer: CholeskyQR2, i.e. two :func:`cholesky_qr`
  passes (each one float64-accumulated Gram + one GEMM, both BLAS-3), with
  an automatic, counted Householder-QR fallback on ill-conditioned or
  rank-deficient blocks.
* :func:`gram_rescale` — ProNE's re-orthogonalization without the full
  ``n×d`` dense SVD: ``eigh`` of the ``d×d`` Gram matrix recovers the same
  ``U_d Σ_d^{1/2}`` up to column sign at a fraction of the cost and memory;
  :func:`repro.linalg.spectral.rescale_embedding` always takes this route.

Telemetry: each :func:`spmm` call bumps the ``spmm.calls`` / ``spmm.flops``
/ ``spmm.bytes`` counters, sets the ``spmm.gflops`` gauge to the call's
achieved rate and feeds the per-block ``spmm.block_seconds`` histogram;
:func:`spmm_chunked` additionally traces one ``spmm.chunk`` span per
streamed row block (and counts them under ``spmm.chunks``), so out-of-core
propagation shows up block-by-block in the unified trace;
Cholesky-QR fallbacks count under ``linalg.cholesky_qr_fallbacks``
(all no-ops until :func:`repro.telemetry.enable`).
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.errors import FactorizationError
from repro.utils.parallel import chunk_ranges, default_workers, parallel_map

try:  # compiled kernels scipy itself dispatches to; they release the GIL
    from scipy.sparse import _sparsetools as _st

    _CSR_MATVECS = _st.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - very old scipy
    _CSR_MATVECS = None

PRECISIONS = ("single", "double")

# Row count per accumulation block in :func:`gram` (bounds the float64
# upcast of a block to ~64k × d temporaries).
GRAM_BLOCK_ROWS = 65_536

# dtypes the compiled csr_matvecs kernel accepts; anything else goes through
# the generic scipy fallback path.
_BLAS_DTYPES = (np.float32, np.float64, np.complex64, np.complex128)


def resolve_precision(precision: Union[str, np.dtype, None]) -> np.dtype:
    """Map the ``precision`` knob to a numpy dtype.

    ``"single"`` → float32 (the paper's MKL ``s``-routines), ``"double"`` /
    ``None`` → float64 (numpy's default).
    Raw dtypes pass through when they already name one of the two.
    """
    if precision is None or precision == "double":
        return np.dtype(np.float64)
    if precision == "single":
        return np.dtype(np.float32)
    if not isinstance(precision, str):
        dtype = np.dtype(precision)
        if dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            return dtype
    raise FactorizationError(
        f"precision must be 'single' or 'double', got {precision!r}"
    )


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        return default_workers()
    if workers < 1:
        raise FactorizationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def _csr_rows_kernel(operands: tuple, r0: int, r1: int) -> None:
    """``out[r0:r1] = A[r0:r1] @ dense`` without copying the chunk's entries.

    ``operands`` is ``(indptr, indices, data, dense, out, timed)``.
    """
    indptr, indices, data, dense, out, timed = operands
    start = time.perf_counter() if timed else 0.0
    ptr = indptr[r0 : r1 + 1]
    lo, hi = int(ptr[0]), int(ptr[-1])
    segment = out[r0:r1]
    segment[...] = 0
    if _CSR_MATVECS is not None and data.dtype in _BLAS_DTYPES:
        _CSR_MATVECS(
            r1 - r0,
            dense.shape[0],
            dense.shape[1],
            ptr - lo,
            indices[lo:hi],
            data[lo:hi],
            dense.ravel(),
            segment.ravel(),
        )
    else:  # exotic dtype or ancient scipy: build a zero-copy row block
        block = sp.csr_matrix(
            (data[lo:hi], indices[lo:hi], ptr - lo),
            shape=(r1 - r0, dense.shape[0]),
            copy=False,
        )
        segment[...] = block @ dense
    if timed:
        telemetry.histogram("spmm.block_seconds").observe(
            time.perf_counter() - start
        )


def _csc_cols_kernel(operands: tuple, c0: int, c1: int) -> None:
    """``out[:, c0:c1] = A @ dense[:, c0:c1]`` (per-column order preserved).

    ``operands`` is ``(matrix, dense, out, timed)``.
    """
    matrix, dense, out, timed = operands
    start = time.perf_counter() if timed else 0.0
    out[:, c0:c1] = matrix @ np.ascontiguousarray(dense[:, c0:c1])
    if timed:
        telemetry.histogram("spmm.block_seconds").observe(
            time.perf_counter() - start
        )


def spmm(
    matrix,
    dense: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    workers: Optional[int] = 1,
) -> np.ndarray:
    """Threaded sparse–dense product ``matrix @ dense`` into ``out``.

    Parameters
    ----------
    matrix:
        Sparse CSR/CSC matrix (other sparse formats are converted to CSR;
        dense operands fall through to one BLAS call).
    dense:
        ``(k, c)`` dense block (1-D vectors are treated as one column).
    out:
        Optional preallocated C-contiguous output of the product's shape and
        dtype; allocated when omitted.  Reusing ``out`` across calls is what
        keeps the Chebyshev recurrence allocation-free.
    workers:
        Thread count; ``None`` resolves to
        :func:`repro.utils.parallel.default_workers`.  The result is
        **bit-identical for every value** — CSR operators are split into
        contiguous row blocks (each output row's accumulation order is
        unchanged), CSC operators into dense column blocks (each output
        column is computed by the same compiled loop as the serial product).
    """
    workers = _resolve_workers(workers)
    squeeze = False
    dense = np.asarray(dense)
    if dense.ndim == 1:
        dense = dense.reshape(-1, 1)
        squeeze = True
    if dense.ndim != 2:
        raise FactorizationError(f"dense block must be 1-D or 2-D, got {dense.ndim}-D")
    if matrix.shape[1] != dense.shape[0]:
        raise FactorizationError(
            f"shape mismatch: {matrix.shape} @ {dense.shape}"
        )
    result_dtype = np.result_type(matrix.dtype, dense.dtype)
    rows, cols = matrix.shape[0], dense.shape[1]
    if out is None:
        out = np.empty((rows, cols), dtype=result_dtype)
    else:
        if out.shape != (rows, cols):
            raise FactorizationError(
                f"out has shape {out.shape}, expected {(rows, cols)}"
            )
        if out.dtype != result_dtype:
            raise FactorizationError(
                f"out has dtype {out.dtype}, expected {result_dtype}"
            )
        if not out.flags.c_contiguous:
            raise FactorizationError("out must be C-contiguous")

    if not sp.issparse(matrix):  # dense @ dense: one BLAS call, already threaded
        np.matmul(np.asarray(matrix), dense, out=out)
        return out[:, 0] if squeeze else out

    timed = telemetry.is_enabled()
    start = time.perf_counter() if timed else 0.0

    csc = isinstance(matrix, (sp.csc_matrix, getattr(sp, "csc_array", ()))) or (
        getattr(matrix, "format", None) == "csc"
    )
    if not csc and getattr(matrix, "format", None) != "csr":
        matrix = matrix.tocsr()
    dense = np.ascontiguousarray(dense, dtype=result_dtype)
    if matrix.dtype != result_dtype:
        matrix = matrix.astype(result_dtype)

    if csc:
        # Parallelize over dense columns: each output column is produced by
        # the same compiled per-column loop as the serial csc product.
        operands = (matrix, dense, out, timed)
        tasks = chunk_ranges(cols, workers)
        if len(tasks) == 1:
            _csc_cols_kernel(operands, *tasks[0])
        else:
            parallel_map(
                _csc_cols_kernel, tasks, context=operands, workers=workers
            )
    else:
        operands = (matrix.indptr, matrix.indices, matrix.data, dense, out, timed)
        tasks = chunk_ranges(rows, workers)
        if not tasks:  # zero-row matrix
            pass
        elif len(tasks) == 1:
            _csr_rows_kernel(operands, *tasks[0])
        else:
            parallel_map(
                _csr_rows_kernel, tasks, context=operands, workers=workers
            )

    if timed:
        elapsed = max(time.perf_counter() - start, 1e-12)
        nnz = int(matrix.nnz)
        flops = 2.0 * nnz * cols
        moved = (
            matrix.data.nbytes
            + matrix.indices.nbytes
            + matrix.indptr.nbytes
            + dense.nbytes
            + out.nbytes
        )
        telemetry.counter("spmm.calls").inc()
        telemetry.counter("spmm.flops").inc(flops)
        telemetry.counter("spmm.bytes").inc(moved)
        telemetry.gauge("spmm.gflops").set(flops / elapsed / 1e9)
    return out[:, 0] if squeeze else out


# Default bound on the resident workspace of :func:`spmm_chunked` (64 MiB —
# small enough to coexist with memmapped operands, large enough that block
# dispatch overhead is negligible).
SPMM_WORKSPACE_BYTES = 64 * 1024 * 1024


def spmm_chunked(
    matrix,
    dense: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    workspace_bytes: int = SPMM_WORKSPACE_BYTES,
    block_rows: Optional[int] = None,
    workers: Optional[int] = 1,
) -> np.ndarray:
    """Row-block streaming ``matrix @ dense`` through a bounded workspace.

    The out-of-core SPMM: ``dense`` and ``out`` may be ``numpy.memmap``
    arrays (and the CSR arrays themselves may be disk-backed).  Output rows
    are produced in contiguous blocks sized so one block of the result fits
    in ``workspace_bytes`` of resident memory; each block is computed by
    :func:`spmm` (threaded, bit-identical per row) into the reused in-RAM
    workspace and then written to ``out`` in one sequential assignment, so
    dirty pages hit a memmapped ``out`` in stream order.

    Because a row block's entries are accumulated by exactly the same
    compiled loop as the full product, the result is **bit-identical** to
    ``spmm(matrix, dense)`` for every ``block_rows``/``workers``
    combination.

    Parameters
    ----------
    workspace_bytes:
        Resident-workspace bound used to derive the block height (default
        :data:`SPMM_WORKSPACE_BYTES`).
    block_rows:
        Explicit block height; overrides ``workspace_bytes`` when given.
    """
    workers = _resolve_workers(workers)
    dense = np.asarray(dense)
    squeeze = False
    if dense.ndim == 1:
        dense = dense.reshape(-1, 1)
        squeeze = True
    if dense.ndim != 2:
        raise FactorizationError(f"dense block must be 1-D or 2-D, got {dense.ndim}-D")
    if not sp.issparse(matrix):
        raise FactorizationError("spmm_chunked expects a sparse matrix operand")
    if matrix.shape[1] != dense.shape[0]:
        raise FactorizationError(f"shape mismatch: {matrix.shape} @ {dense.shape}")
    if getattr(matrix, "format", None) != "csr":
        matrix = matrix.tocsr()
    result_dtype = np.result_type(matrix.dtype, dense.dtype)
    rows, cols = matrix.shape[0], dense.shape[1]
    if out is None:
        out = np.empty((rows, cols), dtype=result_dtype)
    else:
        if out.shape != (rows, cols):
            raise FactorizationError(
                f"out has shape {out.shape}, expected {(rows, cols)}"
            )
        if out.dtype != result_dtype:
            raise FactorizationError(
                f"out has dtype {out.dtype}, expected {result_dtype}"
            )
    if block_rows is None:
        if workspace_bytes < 1:
            raise FactorizationError(
                f"workspace_bytes must be >= 1, got {workspace_bytes}"
            )
        row_bytes = max(1, cols * result_dtype.itemsize)
        block_rows = max(1, workspace_bytes // row_bytes)
    if block_rows < 1:
        raise FactorizationError(f"block_rows must be >= 1, got {block_rows}")
    block_rows = min(block_rows, max(rows, 1))
    if dense.dtype != result_dtype:
        # One cast up front instead of one per block (spmm would otherwise
        # re-cast the full dense operand inside every block call).
        dense = np.ascontiguousarray(dense, dtype=result_dtype)
    workspace = np.empty((block_rows, cols), dtype=result_dtype)
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    release = _written_page_releaser(out)
    num_chunks = (rows + block_rows - 1) // block_rows
    for chunk, r0 in enumerate(range(0, rows, block_rows)):
        r1 = min(rows, r0 + block_rows)
        with telemetry.span(
            "spmm.chunk", chunk=chunk, rows=r1 - r0, of=num_chunks
        ):
            ptr = np.asarray(indptr[r0 : r1 + 1])
            lo, hi = int(ptr[0]), int(ptr[-1])
            # Zero-copy CSR window over the block's rows.
            block = sp.csr_matrix(
                (data[lo:hi], indices[lo:hi], ptr - lo),
                shape=(r1 - r0, matrix.shape[1]),
                copy=False,
            )
            view = workspace[: r1 - r0]
            spmm(block, dense, out=view, workers=workers)
            out[r0:r1] = view
            if release is not None:
                release(r1)
        telemetry.counter("spmm.chunks").inc()
    return out[:, 0] if squeeze else out


def _written_page_releaser(out: np.ndarray):
    """Incremental ``MADV_DONTNEED`` over a memmapped output's written rows.

    Keeps a streaming write to a memmapped ``out`` from accumulating in the
    resident set: once a row block is written, its fully-covered pages are
    dropped from the process (the dirty pages live on in the page cache for
    a *shared* mapping, so the data is unchanged — only residency drops).
    Returns ``None`` — and the caller skips releasing — unless ``out`` is a
    shared-mapping ``np.memmap`` starting at file offset 0; mode ``"c"``
    (``MAP_PRIVATE``) must never be released or dirty pages would be lost.
    """
    if not isinstance(out, np.memmap):
        return None
    if getattr(out, "mode", None) not in ("r+", "w+"):
        return None
    if getattr(out, "offset", 0) != 0 or not out.flags["C_CONTIGUOUS"]:
        return None
    raw = getattr(out, "_mmap", None)
    if raw is None or not hasattr(raw, "madvise"):
        return None
    import mmap as mmap_mod

    page = mmap_mod.PAGESIZE
    row_bytes = out.shape[1] * out.itemsize if out.ndim == 2 else out.itemsize
    state = {"released": 0}

    def release(upto_row: int) -> None:
        end = (upto_row * row_bytes) // page * page
        if end > state["released"]:
            try:
                raw.madvise(mmap_mod.MADV_DONTNEED, state["released"],
                            end - state["released"])
            except (ValueError, OSError):  # pragma: no cover
                return
            state["released"] = end

    return release


def gram(
    a: np.ndarray,
    b: Optional[np.ndarray] = None,
    *,
    block_rows: int = GRAM_BLOCK_ROWS,
) -> np.ndarray:
    """``aᵀ b`` (``aᵀ a`` when ``b`` is omitted) with float64 accumulation.

    The tall dimension is reduced in row blocks upcast to float64, so a
    float32 pipeline keeps double-precision sums exactly where MKL's
    ``s``-routines are weakest — the small ``d×d`` / ``sketch×sketch``
    reductions — without ever materializing a float64 copy of the ``n×d``
    operand.  Each row block is upcast once per operand (``aᵀa`` upcasts
    ``a``'s block once, not twice) and released before the next block is
    upcast, so the float64 transient never exceeds one block per operand.
    """
    other = a if b is None else b
    if a.shape[0] != other.shape[0]:
        raise FactorizationError(f"gram shape mismatch: {a.shape} vs {other.shape}")
    if a.dtype == np.float64 and other.dtype == np.float64:
        return a.T @ other
    out = np.zeros((a.shape[1], other.shape[1]), dtype=np.float64)
    total = a.shape[0]
    chunks = max(1, -(-total // block_rows))
    for r0, r1 in chunk_ranges(total, chunks):
        left = a[r0:r1].astype(np.float64)
        right = left if b is None else b[r0:r1].astype(np.float64)
        out += left.T @ right
        # Free this block's upcasts before the next block's are made.
        del left, right
    return out


def _float_block(block: np.ndarray) -> np.ndarray:
    """``block`` as a floating array; other dtypes upcast to float64 (as
    ``np.linalg.qr`` does), so integer input never yields an integer basis."""
    block = np.asarray(block)
    return block if block.dtype.kind == "f" else block.astype(np.float64)


def cholesky_qr(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``range(block)`` via one Cholesky-QR pass.

    Computes ``G = blockᵀ block`` (float64 accumulation), factors
    ``G = L Lᵀ`` and returns ``Q = block L⁻ᵀ`` — two BLAS-3 calls instead of
    a Householder QR, the standard fast path for tall-skinny blocks.
    Cholesky-QR squares the condition number, so ill-conditioned or
    rank-deficient Gram matrices (non-finite entries, failed factorization,
    or condition beyond the working precision's safe range) fall back to
    ``np.linalg.qr``; fallbacks count under the
    ``linalg.cholesky_qr_fallbacks`` telemetry counter.  Non-floating input
    is upcast to float64.
    """
    block = _float_block(block)
    if block.ndim != 2:
        raise FactorizationError(f"cholesky_qr expects a 2-D block, got {block.ndim}-D")
    g = gram(block)
    eps = float(np.finfo(block.dtype).eps)
    try:
        if not np.all(np.isfinite(g)):
            raise np.linalg.LinAlgError("non-finite Gram matrix")
        lower = np.linalg.cholesky(g)
        diag = np.abs(np.diagonal(lower))
        # diag ratio ~ sqrt(cond(G)); beyond ~1/sqrt(eps) the solve is junk.
        if diag.min() <= np.sqrt(eps) * diag.max():
            raise np.linalg.LinAlgError("ill-conditioned Gram matrix")
    except np.linalg.LinAlgError:
        telemetry.counter("linalg.cholesky_qr_fallbacks").inc()
        q, _ = np.linalg.qr(block)
        return q
    # Q = B L^{-T}: invert the small k×k triangle once, one big GEMM after.
    identity = np.eye(lower.shape[0], dtype=np.float64)
    from scipy.linalg import solve_triangular

    inv_lower = solve_triangular(lower, identity, lower=True)
    return block @ inv_lower.T.astype(block.dtype, copy=False)


def orthonormalize(block: np.ndarray) -> np.ndarray:
    """Orthonormalize ``block`` — the sgeqrf/sorgqr pair of Algorithm 3.

    CholeskyQR2: two :func:`cholesky_qr` passes.  The first pass leaves an
    orthogonality error of order ``eps·cond(block)²``; the second, on an
    almost-orthonormal input, brings it down to Householder's level while
    both passes stay BLAS-3.  Blocks too ill-conditioned for the first pass
    take :func:`cholesky_qr`'s counted Householder fallback.  One path for
    every precision and factorizer.
    """
    return cholesky_qr(cholesky_qr(block))


def gram_rescale(
    matrix: np.ndarray, dimension: Optional[int] = None
) -> np.ndarray:
    """``U_d Σ_d^{1/2}`` of ``matrix`` via ``eigh`` of the ``d×d`` Gram matrix.

    ProNE's re-orthogonalization without the full ``n×d`` dense SVD:
    ``MᵀM = V Σ² Vᵀ`` gives the right singular vectors and values, and
    ``U = M V Σ⁻¹`` recovers the left ones — one small ``eigh`` plus one
    GEMM, equal to the SVD-based rescale up to column sign.  The output
    keeps ``matrix``'s floating dtype (other dtypes upcast to float64); the
    Gram matrix itself is accumulated in float64 via :func:`gram`.
    """
    matrix = _float_block(matrix)
    if dimension is None:
        dimension = matrix.shape[1]
    if dimension < 1 or dimension > matrix.shape[1]:
        raise FactorizationError(
            f"dimension {dimension} invalid for matrix with {matrix.shape[1]} columns"
        )
    g = gram(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(g)
    order = np.argsort(eigenvalues)[::-1][:dimension]
    values = np.maximum(eigenvalues[order], 0.0)
    vectors = eigenvectors[:, order]
    sigma = np.sqrt(values)
    tiny = np.finfo(np.float64).tiny
    inv_sigma = np.where(sigma > tiny, 1.0 / np.maximum(sigma, tiny), 0.0)
    # Fold V Σ⁻¹ Σ^{1/2} = V Σ^{-1/2} into one small d×d factor, one GEMM.
    factor = vectors * (inv_sigma * np.sqrt(sigma))[None, :]
    return matrix @ factor.astype(matrix.dtype, copy=False)
