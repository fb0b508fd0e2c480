"""Adjacency matrices: canonical boolean scipy CSR.

Every relation matrix, composed subgraph and rewired subgraph is a
``scipy.sparse.csr_matrix`` with ``bool`` data in canonical form: column
indices strictly increasing within each row (so no duplicates) and every
stored value True. A product of two such matrices is the boolean product,
each entry an OR over ANDs. Weighted products go through the operator that
``row_normalize`` returns.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


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

