"""Compressed sparse row matrices and the small kernel set built on them.

Matrices are immutable, structure-only (every stored entry is a one) and
always kept in canonical form: row offsets non-decreasing, column indices
strictly increasing within each row, no duplicate entries. Weighted products
go through the scipy operator that ``row_normalize`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class CsrMatrix:
    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> "CsrMatrix":
        """Build a canonical matrix from coordinate data; duplicate
        coordinates collapse into one entry."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        m = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=shape)
        m.sum_duplicates()
        m.sort_indices()
        return cls(shape[0], shape[1], m.indptr.astype(np.int64), m.indices.astype(np.int64))

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CsrMatrix":
        return cls(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def to_scipy(self) -> sp.csr_matrix:
        shape = (self.n_rows, self.n_cols)
        return sp.csr_matrix((np.ones(self.nnz), self.col_indices, self.row_offsets), shape=shape)

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def coo_rows(self) -> np.ndarray:
        """Row index of every stored entry, aligned with ``col_indices``."""
        counts = np.diff(self.row_offsets)
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), counts)

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix.from_coo(self.col_indices, self.coo_rows(), (self.n_cols, self.n_rows))

    def check(self, label: str = "csr") -> list[str]:
        """Return human-readable invariant violations (empty when canonical)."""
        bad: list[str] = []
        off = self.row_offsets
        if off.shape[0] != self.n_rows + 1:
            bad.append(f"{label}: row_offsets length {off.shape[0]} != n_rows+1")
            return bad
        if off[0] != 0 or off[-1] != self.nnz:
            bad.append(f"{label}: row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(off) < 0):
            bad.append(f"{label}: row_offsets decrease")
        if self.nnz and (self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols):
            bad.append(f"{label}: column index out of range")
        # row i is col_indices[off[i]:off[i + 1]] under Python slice rules,
        # broken offsets included
        ends = np.clip(np.where(off < 0, off + self.nnz, off), 0, self.nnz)
        lo, hi = ends[:-1], ends[1:]
        # falls[p]: how many entries q < p are not below entry q + 1
        falls = np.concatenate([[0], np.cumsum(np.diff(self.col_indices) <= 0)])
        multi = np.flatnonzero(hi - lo > 1)
        unsorted = multi[falls[hi[multi] - 1] > falls[lo[multi]]]
        if unsorted.size:
            bad.append(f"{label}: row {int(unsorted[0])} columns not strictly increasing")
        return bad


def row_normalize(a: CsrMatrix) -> sp.csr_matrix:
    """The random-walk operator of ``a``: each row's entries scaled to sum to
    one, rows without entries left all-zero."""
    counts = np.diff(a.row_offsets)
    inv = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
    data = np.repeat(inv, counts)
    return sp.csr_matrix((data, a.col_indices, a.row_offsets), shape=(a.n_rows, a.n_cols))


def bool_spgemm(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Boolean sparse-sparse product: entry (i,j) set iff some k links i to j."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"spgemm shape mismatch: {a.n_rows}x{a.n_cols} @ {b.n_rows}x{b.n_cols}")
    m = a.to_scipy() @ b.to_scipy()
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    return CsrMatrix(a.n_rows, b.n_cols, m.indptr.astype(np.int64), m.indices.astype(np.int64))


def drop_diagonal(a: CsrMatrix) -> CsrMatrix:
    rows = a.coo_rows()
    keep = rows != a.col_indices
    return CsrMatrix.from_coo(rows[keep], a.col_indices[keep], (a.n_rows, a.n_cols))


def symmetrize_union(a: CsrMatrix) -> CsrMatrix:
    """Boolean union of a square matrix with its transpose."""
    if a.n_rows != a.n_cols:
        raise ValueError("symmetrize requires a square matrix")
    rows = a.coo_rows()
    all_rows = np.concatenate([rows, a.col_indices])
    all_cols = np.concatenate([a.col_indices, rows])
    return CsrMatrix.from_coo(all_rows, all_cols, (a.n_rows, a.n_cols))
