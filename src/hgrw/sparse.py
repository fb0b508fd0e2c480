"""Compressed sparse row matrices and the small kernel set built on them.

Matrices are immutable and always kept in canonical form: row offsets
non-decreasing, column indices strictly increasing within each row, no
duplicate entries. ``values is None`` marks a boolean (structure-only)
matrix; otherwise ``values`` holds one float64 per stored entry.
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
    values: np.ndarray | None = None

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    @property
    def is_boolean(self) -> bool:
        return self.values is None

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        shape: tuple[int, int],
        values: np.ndarray | None = None,
    ) -> "CsrMatrix":
        """Build a canonical matrix from coordinate data.

        Duplicate coordinates collapse: boolean entries are merged, weighted
        entries are summed.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.ones(rows.shape[0]) if values is None else np.asarray(values, dtype=np.float64)
        m = sp.csr_matrix((data, (rows, cols)), shape=shape)
        m.sum_duplicates()
        m.sort_indices()
        out_values = None if values is None else m.data.astype(np.float64)
        return cls(shape[0], shape[1], m.indptr.astype(np.int64), m.indices.astype(np.int64), out_values)

    @classmethod
    def from_dense(cls, arr: np.ndarray, boolean: bool = False) -> "CsrMatrix":
        arr = np.asarray(arr)
        rows, cols = np.nonzero(arr)
        values = None if boolean else arr[rows, cols].astype(np.float64)
        return cls.from_coo(rows, cols, arr.shape, values)

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, None)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CsrMatrix":
        return cls(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), None)

    def to_scipy(self) -> sp.csr_matrix:
        data = np.ones(self.nnz) if self.values is None else self.values
        return sp.csr_matrix((data, self.col_indices, self.row_offsets), shape=(self.n_rows, self.n_cols))

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def coo_rows(self) -> np.ndarray:
        """Row index of every stored entry, aligned with ``col_indices``."""
        counts = np.diff(self.row_offsets)
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), counts)

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix.from_coo(
            self.col_indices,
            self.coo_rows(),
            (self.n_cols, self.n_rows),
            self.values,
        )

    def row_cols(self, i: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[i] : self.row_offsets[i + 1]]

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
        if self.values is not None and self.values.shape[0] != self.nnz:
            bad.append(f"{label}: values length {self.values.shape[0]} != nnz")
        return bad

    def same_structure(self, other: "CsrMatrix") -> bool:
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
        )


def row_normalize(a: CsrMatrix) -> CsrMatrix:
    """Scale each row to sum to one; rows with zero sum stay all-zero."""
    counts = np.diff(a.row_offsets)
    if a.values is None:
        sums = counts.astype(np.float64)
        data = np.ones(a.nnz)
    else:
        sums = np.asarray(a.to_scipy().sum(axis=1)).ravel()
        data = a.values.copy()
    inv = np.where(sums > 0, 1.0 / np.where(sums > 0, sums, 1.0), 0.0)
    data *= np.repeat(inv, counts)
    return CsrMatrix(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, data)


def spmm(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``a @ x`` in float64."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if a.n_cols != x.shape[0]:
        raise ValueError(f"spmm shape mismatch: {a.n_rows}x{a.n_cols} @ {x.shape}")
    return np.asarray(a.to_scipy() @ x)


def bool_spgemm(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Boolean sparse-sparse product: entry (i,j) set iff some k links i to j."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"spgemm shape mismatch: {a.n_rows}x{a.n_cols} @ {b.n_rows}x{b.n_cols}")
    m = a.to_scipy() @ b.to_scipy()
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    return CsrMatrix(a.n_rows, b.n_cols, m.indptr.astype(np.int64), m.indices.astype(np.int64), None)


def drop_diagonal(a: CsrMatrix) -> CsrMatrix:
    rows = a.coo_rows()
    keep = rows != a.col_indices
    values = None if a.values is None else a.values[keep]
    return CsrMatrix.from_coo(rows[keep], a.col_indices[keep], (a.n_rows, a.n_cols), values)


def symmetrize_union(a: CsrMatrix) -> CsrMatrix:
    """Boolean union of a square matrix with its transpose."""
    if a.n_rows != a.n_cols:
        raise ValueError("symmetrize requires a square matrix")
    rows = a.coo_rows()
    all_rows = np.concatenate([rows, a.col_indices])
    all_cols = np.concatenate([a.col_indices, rows])
    return CsrMatrix.from_coo(all_rows, all_cols, (a.n_rows, a.n_cols), None)
