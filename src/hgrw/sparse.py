"""Adjacency matrices: canonical boolean scipy CSR.

Every relation matrix, composed subgraph and rewired subgraph is a
``scipy.sparse.csr_matrix`` with ``bool`` data in canonical form: column
indices strictly increasing within each row (so no duplicates) and every
stored value True. A product of two such matrices is the boolean product,
each entry an OR over ANDs. Weighted products go through the operator that
``row_normalize`` returns.

``bool_spgemm`` takes one of two routes for a boolean product ``a @ b`` of a
rows x inner and an inner x cols matrix. Let W be the multiply-add steps of
the sparse product, the sum over a's entries of the row length of b. When
W >= rows * cols (on average the sparse product reaches every output cell at
least once), inner <= min(rows, cols) (the dense operands hold at most
twice the result's cells) and rows * inner * cols <= DENSE_WORK_RATIO * W
(the BLAS work grows as n^3, W as n^2), it takes the dense route: one
float32 BLAS product of the dense operands, compared with 0. Every term is 0
or 1, so the sum is positive exactly when some term is 1, whatever the
thread count or summation order. Otherwise it takes scipy's sparse product.
A dense result becomes the same canonical CSR that the sparse route ends in
(``dense_bool_csr``), so no caller can tell which route ran.

DENSE_WORK_RATIO is the measured break-even: composing (r0, r0) on
one-relation synth graphs at degree about sqrt(n) (one BLAS thread, best of
3, each route forced), dense won up to n = 2,300 (rows * inner * cols =
2,158 W), the two tied within noise from 2,400 to 2,700 (2,261-2,549 W) and
sparse won from 3,000 (2,821 W) on.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

DENSE_WORK_RATIO = 2500


def bool_csr(rows, cols, shape: tuple[int, int]) -> sp.csr_matrix:
    """The canonical matrix holding an entry at each (row, col) coordinate;
    repeated coordinates collapse into one entry."""
    m = sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=shape)
    m.sum_duplicates()
    return m


def row_normalize(a: sp.csr_matrix) -> sp.csr_matrix:
    """The random-walk operator of ``a``: each row's entries scaled to sum to
    one, rows without entries left all-zero."""
    counts = np.diff(a.indptr)
    inv = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
    return sp.csr_matrix((np.repeat(inv, counts), a.indices, a.indptr), shape=a.shape)


def check_csr(a: sp.csr_matrix, label: str = "csr") -> list[str]:
    """Human-readable violations of the canonical form (empty when canonical).

    The constructor accepts decreasing offsets, out-of-range columns and
    unsorted rows, and the arrays can be reassigned afterwards, so each is
    checked here; a row is read under Python slice rules, broken offsets
    included."""
    off, cols = a.indptr, a.indices
    nnz, bad = cols.shape[0], []
    if off.shape[0] != a.shape[0] + 1:
        return [f"{label}: row_offsets length {off.shape[0]} != n_rows+1"]
    if off[0] != 0 or off[-1] != nnz:
        bad.append(f"{label}: row_offsets must start at 0 and end at nnz")
    if np.any(np.diff(off) < 0):
        bad.append(f"{label}: row_offsets decrease")
    if nnz and (cols.min() < 0 or cols.max() >= a.shape[1]):
        bad.append(f"{label}: column index out of range")
    ends = np.clip(np.where(off < 0, off + nnz, off), 0, nnz)
    lo, hi = ends[:-1], ends[1:]
    # falls[p]: how many entries q < p are not below entry q + 1
    falls = np.concatenate([[0], np.cumsum(np.diff(cols) <= 0)])
    multi = np.flatnonzero(hi - lo > 1)
    unsorted = multi[falls[hi[multi] - 1] > falls[lo[multi]]]
    if unsorted.size:
        bad.append(f"{label}: row {int(unsorted[0])} columns not strictly increasing")
    if a.data.dtype != bool or not a.data.all():
        bad.append(f"{label}: stored values must all be True")
    return bad


def _product_steps(a: sp.csr_matrix | np.ndarray, b: sp.csr_matrix) -> int:
    """W, the multiply-add steps of the sparse product ``a @ b``; ``a`` is a
    matrix or a dense bool array."""
    lengths = np.diff(b.indptr)
    if isinstance(a, np.ndarray):
        return int(np.count_nonzero(a, axis=0) @ lengths)
    return int(lengths[a.indices].sum())


def _takes_dense_route(a: sp.csr_matrix | np.ndarray, b: sp.csr_matrix) -> bool:
    """The route rule of ``bool_spgemm``."""
    (rows, inner), cols = a.shape, b.shape[1]
    if inner > min(rows, cols):
        return False
    steps = _product_steps(a, b)
    return steps >= rows * cols and rows * inner * cols <= DENSE_WORK_RATIO * steps


def bool_spgemm(a: sp.csr_matrix | np.ndarray, b: sp.csr_matrix) -> sp.csr_matrix | np.ndarray:
    """The boolean product ``a @ b``: a dense bool array on the dense route,
    a scipy CSR otherwise (``a`` may be the dense result of an earlier
    product). See the module docstring for the rule."""
    if _takes_dense_route(a, b):
        lhs = a if isinstance(a, np.ndarray) else a.toarray()
        return (lhs.astype(np.float32) @ b.toarray().astype(np.float32)) > 0
    if isinstance(a, np.ndarray):
        a = dense_bool_csr(a)
    return a @ b


def dense_bool_csr(d: np.ndarray) -> sp.csr_matrix:
    """The canonical matrix of a dense bool array, in one pass over it."""
    rows, cols = d.shape
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(d, axis=1), out=indptr[1:])
    indices = np.flatnonzero(d)
    np.remainder(indices, cols, out=indices)
    return sp.csr_matrix((np.ones(indices.shape[0], dtype=bool), indices, indptr), shape=d.shape)
