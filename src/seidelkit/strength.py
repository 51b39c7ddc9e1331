"""Realignment, operator Schmidt coefficients and entangling strength.

For an operator on an m x n bipartite system, realignment slices it into
m^2 blocks of size n x n and stacks their row-major flattenings. In the
standard product basis {E_i (x) E_j} the coefficient matrix of the operator
equals its realignment, so the operator Schmidt coefficients are the
singular values of the realigned matrix, with sum of squares m*n for a
unitary. Realignment rank one characterizes tensor-product (local)
operators; every switching operator of composite order has rank >= 2 and is
therefore global.

Two strengths are derived from the normalized squared coefficients
p_i = s_i^2 / (mn): the Shannon entropy H({p_i}) in bits, and the linear
variant 1 - sum_i p_i^2. Both vanish exactly on local operators. U_mn and
U_2 (+) I_{mn-2} realign to rank two, both with k_wz = 8(m-1)(n-1) / (mn)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBipartition, InvalidOrder, NotUnitary
from .graph import NUMERIC_TOL, _square


@dataclass(frozen=True)
class Bipartition:
    """Factor sizes (m, n) of an order m*n bipartite system; both >= 2."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise BadBipartition(f"both factors must be >= 2, got ({self.m}, {self.n})")

    def check_order(self, order: int) -> None:
        if self.m * self.n != order:
            raise BadBipartition(f"{self.m} * {self.n} != operator order {order}")


@dataclass(frozen=True, eq=False)
class SchmidtProfile:
    """Descending operator Schmidt coefficients for one bipartition."""

    bipartition: Bipartition
    coefficients: np.ndarray

    @property
    def k_sch(self) -> float:
        """Shannon entropy (bits) of the normalized squared coefficients."""
        mn = self.bipartition.m * self.bipartition.n
        p = np.square(self.coefficients) / mn
        p = p[p > 0.0]
        return float(-np.sum(p * np.log2(p)))

    @property
    def k_wz(self) -> float:
        """Linear strength 1 - sum s_i^4 / (mn)^2; in [0, 1)."""
        mn = self.bipartition.m * self.bipartition.n
        return float(1.0 - np.sum(self.coefficients**4) / (mn * mn))


def vec_row(a: np.ndarray) -> np.ndarray:
    """Row-major flattening (a_11, a_12, ..., a_nn) of a square matrix."""
    return _square(a).reshape(-1)


def realignment(u: np.ndarray, bip: Bipartition) -> np.ndarray:
    """Stack vec_row of every n x n block of u into an m^2 x n^2 matrix.

    Rows are ordered lexicographically by block index (i, j).
    """
    u = _square(u)
    bip.check_order(u.shape[0])
    m, n = bip.m, bip.n
    # (i, j, block rows, block cols) -> (i, j, n*n)
    blocks = u.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    return blocks.reshape(m * m, n * n)


def _require_unitary(u: np.ndarray) -> np.ndarray:
    u = _square(u)
    gap = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    if gap > NUMERIC_TOL:
        raise NotUnitary(f"operator deviates from unitarity by {gap}")
    return u


def realignment_rank(u: np.ndarray, bip: Bipartition, tol: float = NUMERIC_TOL) -> int:
    """Number of singular values above tol * s_max of the realigned matrix."""
    sv = np.linalg.svd(realignment(u, bip), compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def is_local(u: np.ndarray, bip: Bipartition, tol: float = NUMERIC_TOL) -> bool:
    """True iff a unitary factors as u1 (x) u2 over the bipartition.

    Equivalent to realignment rank one.
    """
    u = _require_unitary(u)
    return realignment_rank(u, bip, tol) == 1


def schmidt_coefficients(u: np.ndarray, bip: Bipartition) -> SchmidtProfile:
    """Operator Schmidt coefficients of a unitary, descending."""
    u = _require_unitary(u)
    sv = np.linalg.svd(realignment(u, bip), compute_uv=False)
    return SchmidtProfile(bipartition=bip, coefficients=sv)


@dataclass(frozen=True)
class ScanRow:
    order: int
    m: int
    n: int
    kind: str
    k_sch: float
    k_wz: float


def _switching_strengths(m: int, n: int) -> tuple[float, float]:
    """(k_sch, k_wz) of the scanned operators; p- = (1 - r) / 2 = k_wz / (1 + r)."""
    k_wz = 8 * (m - 1) * (n - 1) / (m * n) ** 2
    r = math.sqrt(1.0 - 2.0 * k_wz)
    p_plus, p_minus = (1.0 + r) / 2.0, k_wz / (1.0 + r)
    return -(p_plus * math.log2(p_plus) + p_minus * math.log2(p_minus)), k_wz


def strength_scan(max_order: int, include_blocks: bool = False) -> list[ScanRow]:
    """Strength table over all composite orders 4..max_order.

    One row per ordered factorization (m, n) of each composite order for the
    plain operator U_o; include_blocks adds the two-block family
    U_2 (+) I_{o-2}, which has the strengths of U_o. Rows are sorted by
    (order, m, kind).
    """
    if max_order < 4:
        raise InvalidOrder(f"scan needs max_order >= 4, got {max_order}")
    return [
        ScanRow(order, m, order // m, kind, *_switching_strengths(m, order // m))
        for order in range(4, max_order + 1)
        for m in range(2, order // 2 + 1)
        if order % m == 0
        for kind in (("block", "single") if include_blocks else ("single",))
    ]


def scan_csv(rows: list[ScanRow]) -> str:
    """Deterministic CSV rendering: header plus fixed 12-decimal reals."""
    lines = ["order,m,n,kind,k_sch,k_wz"]
    for r in rows:
        lines.append(f"{r.order},{r.m},{r.n},{r.kind},{r.k_sch:.12f},{r.k_wz:.12f}")
    return "\n".join(lines) + "\n"
