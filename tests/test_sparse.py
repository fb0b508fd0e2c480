import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw.sparse import CsrMatrix, bool_spgemm, drop_diagonal, row_normalize, symmetrize_union

from oracles import csr_first_unsorted_row, dense_bool_product, dense_matmul


def random_csr(rng: np.random.Generator, n_rows: int, n_cols: int, density: float = 0.2):
    dense = (rng.random((n_rows, n_cols)) < density).astype(float)
    return CsrMatrix.from_coo(*np.nonzero(dense), dense.shape), dense


class TestCsrMatrix:
    def test_from_coo_canonicalizes(self):
        m = CsrMatrix.from_coo([1, 0, 1, 1], [2, 0, 0, 2], (2, 3))
        assert m.check() == []
        assert m.nnz == 3  # duplicate (1,2) collapsed
        assert m.row_cols(1).tolist() == [0, 2]

    def test_transpose_round_trip(self):
        rng = np.random.default_rng(3)
        m, dense = random_csr(rng, 7, 5)
        assert np.array_equal(m.transpose().to_dense(), (dense > 0).T)

    def test_check_flags_bad_offsets(self):
        m = CsrMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]))
        assert any("row_offsets" in msg for msg in m.check())


    def test_check_allows_decrease_across_row_boundary(self):
        m = CsrMatrix(3, 4, np.array([0, 2, 2, 4]), np.array([1, 3, 0, 2]))
        assert m.check() == []

    def test_check_reports_repeat_after_empty_rows(self):
        m = CsrMatrix(5, 4, np.array([0, 1, 1, 1, 3, 4]), np.array([2, 1, 1, 0]))
        assert m.check(label="r") == ["r: row 3 columns not strictly increasing"]

    def test_check_reports_unsorted_last_row(self):
        m = CsrMatrix(2, 4, np.array([0, 2, 5]), np.array([0, 3, 1, 3, 2]))
        assert m.check() == ["csr: row 1 columns not strictly increasing"]

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_check_finds_first_unsorted_row_of_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, nnz = int(rng.integers(0, 8)), int(rng.integers(0, 12))
        cols = rng.integers(0, 5, size=nnz)
        if rng.random() < 0.5:  # valid offsets
            inner = np.sort(rng.integers(0, nnz + 1, size=max(n_rows - 1, 0)))
            offsets = np.concatenate([[0], inner, [nnz]]) if n_rows else np.array([0])
        else:  # broken offsets are read with slice rules
            offsets = rng.integers(-nnz - 2, nnz + 3, size=n_rows + 1)
        m = CsrMatrix(n_rows, 5, offsets.astype(np.int64), cols.astype(np.int64))
        row = csr_first_unsorted_row(m.row_offsets, m.col_indices)
        flagged = [msg for msg in m.check() if "strictly increasing" in msg]
        assert flagged == ([] if row is None else [f"csr: row {row} columns not strictly increasing"])


class TestRowNormalize:
    def test_uniform_row(self):
        m = CsrMatrix.from_coo([0] * 4, [0, 1, 2, 3], (1, 4))
        out = row_normalize(m)
        assert np.allclose(out.data, 0.25)

    def test_empty_row_stays_empty(self):
        m = CsrMatrix.from_coo([0, 0], [0, 1], (3, 2))
        out = row_normalize(m)
        assert out.indptr[1] == out.indptr[2] == out.indptr[3]

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one_or_zero(self, seed):
        rng = np.random.default_rng(seed)
        m, _ = random_csr(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        sums = row_normalize(m).sum(axis=1)
        for s in np.asarray(sums).ravel():
            assert abs(s - 1.0) < 1e-12 or s == 0.0

    def test_normalized_times_ones_is_binary(self):
        rng = np.random.default_rng(9)
        m, _ = random_csr(rng, 10, 10, density=0.3)
        out = row_normalize(m) @ np.ones(10)
        assert np.all((np.abs(out - 1.0) < 1e-12) | (out == 0.0))


class TestSpmm:
    """Products with the walk operator that row_normalize returns."""

    def test_identity(self):
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(row_normalize(CsrMatrix.identity(4)) @ x, x)

    def test_zero_matrix(self):
        x = np.ones((4, 2))
        assert np.array_equal(row_normalize(CsrMatrix.empty(3, 4)) @ x, np.zeros((3, 2)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        m, dense = random_csr(rng, 8, 8, density=12 / 64)
        deg = dense.sum(axis=1, keepdims=True)
        walk = np.divide(dense, deg, out=np.zeros_like(dense), where=deg > 0)
        x = rng.standard_normal((8, 5))
        assert np.allclose(row_normalize(m) @ x, dense_matmul(walk, x), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            row_normalize(CsrMatrix.empty(2, 3)) @ np.ones((4, 1))


class TestBoolSpgemm:
    def test_identity(self):
        rng = np.random.default_rng(5)
        m, dense = random_csr(rng, 6, 6)
        out = bool_spgemm(m, CsrMatrix.identity(6))
        assert np.array_equal(out.to_dense() > 0, dense > 0)

    def test_two_step_path(self):
        # p0 -> a0 and a0 -> p1 compose to the single pair (p0, p1)
        a = CsrMatrix.from_coo([0], [0], (2, 1))
        b = CsrMatrix.from_coo([0], [1], (1, 2))
        out = bool_spgemm(a, b)
        assert out.to_dense().tolist() == [[0, 1], [0, 0]]

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        a, da = random_csr(rng, 10, 10)
        b, db = random_csr(rng, 10, 10)
        out = bool_spgemm(a, b)
        assert np.array_equal(out.to_dense() > 0, dense_bool_product(da > 0, db > 0))
        assert out.check() == []

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bool_spgemm(CsrMatrix.empty(2, 3), CsrMatrix.empty(4, 2))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_associative_on_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        mats = [random_csr(rng, n, n)[0] for _ in range(3)]
        left = bool_spgemm(bool_spgemm(mats[0], mats[1]), mats[2])
        right = bool_spgemm(mats[0], bool_spgemm(mats[1], mats[2]))
        assert left.same_structure(right)


class TestHelpers:
    def test_drop_diagonal(self):
        m = CsrMatrix.from_coo([0, 1, 1], [0, 1, 0], (2, 2))
        out = drop_diagonal(m)
        assert out.to_dense().tolist() == [[0, 0], [1, 0]]

    def test_symmetrize_union(self):
        m = CsrMatrix.from_coo([0], [1], (3, 3))
        out = symmetrize_union(m)
        dense = out.to_dense()
        assert dense[0, 1] == 1 and dense[1, 0] == 1
