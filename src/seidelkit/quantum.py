"""Density matrices from graph Laplacians.

A graph with symmetric weights and positive trace yields the quantum state
rho = L / tr(L) (or Q / tr(Q)): trace one, symmetric, positive semidefinite.
Both Laplacians are diagonally dominant under the absolute-value degree
convention, so graph-derived states are PSD even with negative edge weights;
the PSD check still guards direct matrix construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGraph, NotPSD, NotSymmetric, ZeroTrace
from .graph import EXACT_TOL, NUMERIC_TOL, WeightedDigraph, _eigvalsh, _frozen, _square
from .graph import _down, _exactly_symmetric, _scaled, _tolerance
from .starlike import SpectralKind, spectral_matrix


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state: real symmetric, trace one, PSD.

    `matrix` is a read-only view of a read-only copy of the input, which
    numpy refuses to make writable again, so the spectrum solved once for
    the PSD check stays valid for `eigenvalues`. Symmetry allows
    |m_ij - m_ji| <= EXACT_TOL, the trace |tr - 1| <= EXACT_TOL and the least
    eigenvalue -NUMERIC_TOL; a non-finite entry fails the symmetry check,
    before any eigensolver runs.
    """

    matrix: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = _frozen(np.array(_square(self.matrix)))
        object.__setattr__(self, "matrix", m)
        s, top, x = _down(len(m) + 1, m)  # for m - m.T and the trace
        if not np.isfinite(top) or not (_exactly_symmetric(m) or
                np.max(np.abs(x - x.T), initial=0.0) <= _scaled(EXACT_TOL, -s)):
            raise NotSymmetric(f"density matrix must be symmetric within {EXACT_TOL:g}")
        self._solve(s=s)

    @classmethod
    def _of_symmetric(cls, m: np.ndarray, solve) -> "DensityMatrix":
        """State of a new, exactly symmetric matrix, taken over without a copy;
        the trace check still runs, then the PSD check on solve(), which
        returns the spectrum of m."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "matrix", _frozen(m))
        rho._solve(solve)
        return rho

    def _solve(self, solve=None, s: int = 0) -> None:
        m = self.matrix
        trace = float(_scaled(_scaled(m.diagonal(), -s).sum(), s))
        if not -EXACT_TOL <= trace - 1.0 <= EXACT_TOL:
            raise ZeroTrace(f"trace must be 1, got {trace}")
        spectrum = np.linalg.eigvalsh(m) if solve is None else solve()
        if not float(spectrum[0]) >= -NUMERIC_TOL:
            raise NotPSD(f"density matrix has an eigenvalue below {-NUMERIC_TOL:g}")
        object.__setattr__(self, "_spectrum", spectrum)

    def __reduce__(self):
        # numpy unpickles and deep-copies an array as a new writable one, so
        # a copy is rebuilt, frozen and checked as any state is
        return type(self), (self.matrix,)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum with tiny negatives clamped to zero."""
        return np.maximum(self._spectrum, 0.0)


def density_from_graph(g: WeightedDigraph, kind: SpectralKind) -> DensityMatrix:
    """Trace-normalized Laplacian or signless Laplacian of a graph.

    Raises ZeroTrace for an edgeless loopless graph, AsymmetricWeights when
    the Laplacian is undefined, InvalidGraph when the degrees sum past the
    float range, and NotPSD if normalization produced an indefinite matrix.
    The Laplacian exists only for symmetric weights and is then exactly
    symmetric, so the state M / tr M is a new array with no symmetry check.
    Its spectrum is spectrum(M) / tr M, where spectrum(M) is the one
    recorded with g by `spectral_matrix`: solved here only if no
    `cospectral` or earlier state of g and kind solved it and none was
    handed over (see `spectral_matrix`). The trace and PSD checks of
    `DensityMatrix` run as for any state.
    """
    m = spectral_matrix(g, kind)
    s, _, d = _down(g.order * (g.order + 1), m.diagonal(), top=g._top)  # n of (n + 1) max |w|
    trace = float(_scaled(d.sum(), s))
    if not np.isfinite(trace):  # every degree is finite: `spectral_matrix` checked
        raise InvalidGraph("the degrees of the graph sum past the float range")
    if trace <= 0.0:
        raise ZeroTrace("graph has no edges or loops, so the trace is zero")
    return DensityMatrix._of_symmetric(m / trace, lambda: _eigvalsh(m) / trace)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -sum_i lambda_i log2(lambda_i), with 0 log 0 = 0."""
    lam = rho.eigenvalues()
    lam = lam[lam > 0.0]
    s = float(-np.add.reduce(lam * np.log2(lam)))
    return s if s > 0.0 else 0.0


def is_pure(rho: DensityMatrix, tol: float = NUMERIC_TOL) -> bool:
    """True when the numerical rank (eigenvalues above tol >= 0) is one."""
    return int(np.count_nonzero(rho.eigenvalues() > _tolerance(tol))) == 1
