"""Realignment, Schmidt coefficients and strength measures."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import random_orthogonal

from seidelkit import (
    Bipartition,
    SeidelOperator,
    is_local,
    realignment,
    realignment_rank,
    scan_csv,
    schmidt_coefficients,
    seidel_matrix,
    strength_scan,
    vec_row,
)
from seidelkit.errors import BadBipartition, InvalidOrder, NotSquare, NotUnitary

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
CNOT_BLOCK = SeidelOperator((2,), 2).matrix()
ORACLE_MAX_ORDER = 100  # the scan is checked against the SVD path up to here
CSV_MAX_ORDER = 200  # the benchmark's scan size


def coefficient_matrix_by_basis_expansion(u, m, n):
    """Independent oracle: expand u over the product basis E_i (x) E_j.

    c[(a,b),(c,d)] = <E_ab (x) E_cd, u> with the Hilbert-Schmidt inner
    product; rows and columns ordered lexicographically.
    """
    c = np.zeros((m * m, n * n))
    for a in range(m):
        for b in range(m):
            e1 = np.zeros((m, m))
            e1[a, b] = 1.0
            for i in range(n):
                for j in range(n):
                    e2 = np.zeros((n, n))
                    e2[i, j] = 1.0
                    c[a * m + b, i * n + j] = float(np.trace(np.kron(e1, e2).T @ u))
    return c


class TestVecRow:
    def test_row_major(self):
        assert np.array_equal(vec_row(np.array([[1.0, 2.0], [3.0, 4.0]])), [1, 2, 3, 4])

    def test_identity(self):
        assert np.array_equal(vec_row(np.eye(2)), [1, 0, 0, 1])

    def test_all_ones(self):
        assert np.array_equal(vec_row(np.ones((2, 2))), [1, 1, 1, 1])

    def test_not_square(self):
        with pytest.raises(NotSquare):
            vec_row(np.ones((2, 3)))


class TestRealignment:
    def test_shape(self):
        r = realignment(seidel_matrix(6), Bipartition(2, 3))
        assert r.shape == (4, 9)

    def test_block_layout(self):
        u = np.arange(16.0).reshape(4, 4)
        r = realignment(u, Bipartition(2, 2))
        assert np.array_equal(r[0], vec_row(u[:2, :2]))
        assert np.array_equal(r[1], vec_row(u[:2, 2:]))
        assert np.array_equal(r[2], vec_row(u[2:, :2]))
        assert np.array_equal(r[3], vec_row(u[2:, 2:]))

    def test_matches_basis_expansion(self, rng):
        for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            u = rng.normal(size=(m * n, m * n))
            oracle = coefficient_matrix_by_basis_expansion(u, m, n)
            assert np.max(np.abs(realignment(u, Bipartition(m, n)) - oracle)) < 1e-12

    def test_tensor_product_rank_one(self):
        u = np.kron(PAULI_X, PAULI_X)
        assert realignment_rank(u, Bipartition(2, 2)) == 1

    def test_seidel_order4_rank_two(self):
        assert realignment_rank(seidel_matrix(4), Bipartition(2, 2)) == 2

    def test_cnot_rank_two(self):
        assert realignment_rank(CNOT_BLOCK, Bipartition(2, 2)) == 2

    def test_the_zero_matrix_has_rank_zero(self):
        assert realignment_rank(np.zeros((4, 4)), Bipartition(2, 2)) == 0

    def test_bad_bipartition(self):
        with pytest.raises(BadBipartition):
            realignment(seidel_matrix(6), Bipartition(2, 2))
        with pytest.raises(BadBipartition):
            Bipartition(1, 6)


class TestIsLocal:
    def test_tensor_with_identity(self):
        assert is_local(np.kron(PAULI_X, np.eye(2)), Bipartition(2, 2))

    def test_random_product_unitaries(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            u = np.kron(random_orthogonal(rng, m), random_orthogonal(rng, n))
            assert is_local(u, Bipartition(m, n))

    @pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 12])
    def test_composite_switching_operators_are_global(self, n):
        for m in range(2, n // 2 + 1):
            if n % m == 0:
                assert not is_local(seidel_matrix(n), Bipartition(m, n // m))

    def test_block_operator_is_global(self):
        u = SeidelOperator((3,), 3).matrix()
        assert not is_local(u, Bipartition(2, 3))
        assert not is_local(u, Bipartition(3, 2))

    # a NaN fails every comparison, and an entry past 1 would overflow u.T @ u
    @pytest.mark.parametrize("u", [np.ones((4, 4)), np.full((4, 4), np.nan),
                                   np.full((4, 4), 1.5e308)])
    @pytest.mark.parametrize("f", [is_local, schmidt_coefficients])
    def test_not_unitary(self, u, f):
        with pytest.raises(NotUnitary):
            f(u, Bipartition(2, 2))


class TestSchmidtCoefficients:
    def test_local_operator_single_coefficient(self):
        profile = schmidt_coefficients(np.kron(PAULI_X, np.eye(2)), Bipartition(2, 2))
        assert abs(profile.coefficients[0] - 2.0) < 1e-12
        assert np.all(profile.coefficients[1:] < 1e-12)

    def test_cnot(self):
        profile = schmidt_coefficients(CNOT_BLOCK, Bipartition(2, 2))
        assert np.allclose(profile.coefficients[:2], [np.sqrt(2)] * 2, atol=1e-12)
        assert abs(profile.k_sch - 1.0) < 1e-12
        assert abs(profile.k_wz - 0.5) < 1e-12

    def test_order4(self):
        profile = schmidt_coefficients(seidel_matrix(4), Bipartition(2, 2))
        assert np.allclose(profile.coefficients[:2], [np.sqrt(2)] * 2, atol=1e-12)
        assert abs(profile.k_sch - 1.0) < 1e-12

    def test_order6_values(self):
        # squared coefficients over (2, 3) are {4, 2}, hence
        # k_sch = log2(3) - 2/3 and k_wz = 1 - 20/36
        profile = schmidt_coefficients(seidel_matrix(6), Bipartition(2, 3))
        assert np.allclose(np.sort(profile.coefficients**2)[-2:], [2.0, 4.0], atol=1e-12)
        assert abs(profile.k_sch - (np.log2(3.0) - 2.0 / 3.0)) < 1e-12
        assert abs(profile.k_wz - 4.0 / 9.0) < 1e-12
        assert 0.0 < profile.k_wz < 0.5

    def test_sum_rule(self, rng):
        for n, (m, k) in [(6, (2, 3)), (8, (2, 4)), (9, (3, 3)), (12, (3, 4))]:
            profile = schmidt_coefficients(seidel_matrix(n), Bipartition(m, k))
            assert abs(np.sum(profile.coefficients**2) - m * k) < 1e-9
        u = random_orthogonal(rng, 6)
        profile = schmidt_coefficients(u, Bipartition(2, 3))
        assert abs(np.sum(profile.coefficients**2) - 6.0) < 1e-9

    def test_bipartition_symmetry(self):
        for n, m in [(6, 2), (8, 2), (12, 3)]:
            a = schmidt_coefficients(seidel_matrix(n), Bipartition(m, n // m))
            b = schmidt_coefficients(seidel_matrix(n), Bipartition(n // m, m))
            k = min(len(a.coefficients), len(b.coefficients))
            assert np.allclose(a.coefficients[:k], b.coefficients[:k], atol=1e-9)
            assert np.all(a.coefficients[k:] < 1e-9) and np.all(b.coefficients[k:] < 1e-9)

    def test_strength_bounds(self, rng):
        for _ in range(10):
            u = random_orthogonal(rng, 8)
            profile = schmidt_coefficients(u, Bipartition(2, 4))
            assert 0.0 <= profile.k_sch <= np.log2(4.0) + 1e-12
            assert 0.0 <= profile.k_wz < 1.0

    def test_zero_strength_iff_local(self, rng):
        operators = [
            (np.kron(random_orthogonal(rng, 2), random_orthogonal(rng, 3)), Bipartition(2, 3)),
            (seidel_matrix(6), Bipartition(2, 3)),
            (CNOT_BLOCK, Bipartition(2, 2)),
        ]
        for u, bip in operators:
            profile = schmidt_coefficients(u, bip)
            assert (profile.k_sch < 1e-9) == is_local(u, bip)


class TestStrengthScan:
    def test_minimal_scan(self):
        rows = strength_scan(4)
        assert len(rows) == 1
        row = rows[0]
        assert (row.order, row.m, row.n, row.kind) == (4, 2, 2, "single")
        assert abs(row.k_sch - 1.0) < 1e-12
        assert abs(row.k_wz - 0.5) < 1e-12

    def test_order_12_factorizations(self):
        rows = [r for r in strength_scan(12) if r.order == 12]
        assert [(r.m, r.n) for r in rows] == [(2, 6), (3, 4), (4, 3), (6, 2)]

    def test_include_blocks(self):
        rows = strength_scan(6, include_blocks=True)
        kinds = {(r.order, r.kind) for r in rows}
        assert (4, "block") in kinds and (4, "single") in kinds
        assert (5, "single") not in kinds  # prime orders are skipped

    def test_rejects_small_order(self):
        with pytest.raises(InvalidOrder):
            strength_scan(3)

    def test_csv_format(self):
        text = scan_csv(strength_scan(4))
        lines = text.splitlines()
        assert lines[0] == "order,m,n,kind,k_sch,k_wz"
        assert lines[1] == "4,2,2,single,1.000000000000,0.500000000000"
        assert text.endswith("\n")

    def test_max_strength_at_order_four(self):
        rows = strength_scan(30)
        top = max(rows, key=lambda r: r.k_sch)
        assert top.order == 4
        assert abs(top.k_sch - 1.0) < 1e-12

    def test_even_family_strictly_decreasing(self):
        values = []
        for k in range(2, 16):
            profile = schmidt_coefficients(seidel_matrix(2 * k), Bipartition(2, k))
            values.append(profile.k_sch)
        assert all(a > b for a, b in zip(values, values[1:]))


def strengths_decimal(m, n):
    """(k_sch, k_wz) of U_mn at 40 digits, from the squared Schmidt
    coefficients s^2 = (mn +- sqrt((mn)^2 - 16(m-1)(n-1))) / 2."""
    with localcontext() as ctx:
        ctx.prec = 40
        mn = Decimal(m * n)
        root = (mn * mn - 16 * (m - 1) * (n - 1)).sqrt()
        p = [(mn + root) / (2 * mn), (mn - root) / (2 * mn)]
        k_sch = -sum(x * x.ln() for x in p) / Decimal(2).ln()
        k_wz = 1 - sum(x * x for x in p)
    return k_sch, k_wz


class TestClosedFormScan:
    def test_matches_svd_oracle(self):
        rows = strength_scan(ORACLE_MAX_ORDER, include_blocks=True)
        expected = {
            (o, m, kind)
            for o in range(4, ORACLE_MAX_ORDER + 1)
            for m in range(2, o)
            if o % m == 0
            for kind in ("block", "single")
        }
        assert {(r.order, r.m, r.kind) for r in rows} == expected
        assert len(rows) == len(expected)
        dense = {}
        for row in rows:
            if (row.order, row.kind) not in dense:
                dense[row.order, row.kind] = (
                    seidel_matrix(row.order)
                    if row.kind == "single"
                    else SeidelOperator((2,), row.order - 2).matrix()
                )
            profile = schmidt_coefficients(dense[row.order, row.kind], Bipartition(row.m, row.n))
            assert abs(row.k_sch - profile.k_sch) <= 1e-12
            assert abs(row.k_wz - profile.k_wz) <= 1e-12

    def test_linear_strength_formula(self):
        for row in strength_scan(CSV_MAX_ORDER, include_blocks=True):
            assert row.k_wz == 8 * (row.m - 1) * (row.n - 1) / (row.m * row.n) ** 2

    def test_block_rows_equal_single_rows(self):
        rows = strength_scan(CSV_MAX_ORDER, include_blocks=True)
        block = {(r.order, r.m): (r.k_sch, r.k_wz) for r in rows if r.kind == "block"}
        single = {(r.order, r.m): (r.k_sch, r.k_wz) for r in rows if r.kind == "single"}
        assert block == single

    def test_two_by_k_decay_formula(self):
        # over (2, k): p+ p- = (k - 1) / k^2, so p+ = (k - 1) / k and p- = 1 / k
        rows = [r for r in strength_scan(CSV_MAX_ORDER) if r.m == 2]
        assert [r.n for r in rows] == list(range(2, CSV_MAX_ORDER // 2 + 1))
        for r in rows:
            k = r.n
            assert abs(r.k_sch - (np.log2(k) - (k - 1) / k * np.log2(k - 1))) < 1e-14
            assert abs(r.k_wz - 2 * (k - 1) / k**2) < 1e-15
        assert all(a.k_sch > b.k_sch and a.k_wz > b.k_wz for a, b in zip(rows, rows[1:]))

    def test_csv_correctly_rounded(self):
        rows = strength_scan(CSV_MAX_ORDER, include_blocks=True)
        lines = ["order,m,n,kind,k_sch,k_wz"]
        for r in rows:
            k_sch, k_wz = strengths_decimal(r.m, r.n)
            lines.append(f"{r.order},{r.m},{r.n},{r.kind},{k_sch:.12f},{k_wz:.12f}")
        got = scan_csv(rows).splitlines()
        assert len(got) == len(lines) == 1399
        assert [row for row, want in zip(got, lines) if row != want] == []
