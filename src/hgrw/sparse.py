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
