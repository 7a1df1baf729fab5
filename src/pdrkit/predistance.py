"""Orthogonal polynomials for the spectral measure seen from one vertex.

The measure places the vertex's local multiplicities on its local
eigenvalues. Gram-Schmidt over the monomials (two passes, to clean up
rounding) yields a monic orthogonal family, which is then rescaled so that
the squared norm of each polynomial equals the squared Perron entry times
its value at the spectral radius. That scaling forces positive values at
the spectral radius, and makes the constant polynomial equal the squared
Perron entry and the degree-one polynomial equal
(squared Perron entry * spectral radius / vertex degree) * x.

The three-term recurrence coefficients are extracted afterwards as Fourier
coefficients of x * p_i against p_{i-1}, p_i, p_{i+1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .graph_core import Graph
from .spectral import LocalSpectrum, NumericalError

# Relative squared-norm floor below which the support points are treated as
# numerically coincident.
_RANK_FLOOR = 1e-20


class IllConditionedMeasureError(NumericalError):
    """Support points too close together for a stable orthogonal basis."""


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial; monomial coefficients in ascending degree order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Evaluate at a scalar or array via Horner."""
        return npoly.polyval(x, self.coeffs)


@dataclass(frozen=True, eq=False)
class PredistanceSystem:
    """The orthogonal polynomial family of one vertex with its recurrence.

    ``spectrum`` is the local spectrum the family is orthogonal for.
    ``polys[i]`` has degree i, for i up to the vertex's local degree.
    ``recurrence[i]`` holds the Fourier coefficients (previous, same, next)
    of x * polys[i] against polys[i-1], polys[i], polys[i+1], with zeros at
    the two ends. ``values_at_radius[i]`` is polys[i] evaluated at the
    spectral radius; all are positive.
    """

    spectrum: LocalSpectrum
    polys: tuple[Polynomial, ...]
    recurrence: tuple[tuple[float, float, float], ...]
    values_at_radius: tuple[float, ...]

    def level_triples(self) -> tuple[tuple[float, float, float], ...]:
        """Recurrence coefficients regrouped per level as (down, stay, up).

        Level i collects the coefficient of polys[i] in x * polys[i-1]
        (down), in x * polys[i] (stay), and in x * polys[i+1] (up). At a
        vertex where the graph is pseudo-distance-regular these are the
        local intersection numbers.
        """
        k = len(self.polys)
        out = []
        for i in range(k):
            down = self.recurrence[i - 1][2] if i > 0 else 0.0
            stay = self.recurrence[i][1]
            up = self.recurrence[i + 1][0] if i < k - 1 else 0.0
            out.append((down, stay, up))
        return tuple(out)


def local_inner_product(ls: LocalSpectrum, f: Polynomial, g: Polynomial) -> float:
    """Scalar product sum_i m_u(lambda_i) f(lambda_i) g(lambda_i).

    Runs over the full distinct-eigenvalue list; zero-multiplicity terms
    contribute nothing.
    """
    x = ls.eigenvalues
    return float(np.dot(ls.local_mults, f(x) * g(x)))


def build_predistance(ls: LocalSpectrum, lambda0: float, alpha_u: float) -> PredistanceSystem:
    """Construct the vertex's orthogonal polynomial family and recurrence.

    ``lambda0`` is the spectral radius and ``alpha_u`` the vertex's Perron
    entry. Raises :class:`IllConditionedMeasureError` on numerical rank loss
    before the local degree is reached.
    """
    support = np.asarray(ls.values, dtype=float)
    weights = np.asarray(ls.support_weights, dtype=float)
    k = len(support)
    if k == 0:
        raise ValueError("empty local spectrum")
    if np.any(np.diff(support) >= 0):
        raise ValueError("support values must be strictly decreasing")
    if np.any(weights <= 0):
        raise ValueError("support weights must be positive")
    if abs(support[0] - lambda0) > 1e-9 * max(1.0, abs(lambda0)):
        raise ValueError("spectral radius must be the largest support value")

    vander = np.vander(support, k, increasing=True)  # column j holds support**j
    coeff = np.zeros((k, k))
    vals = np.zeros((k, k))
    norms2 = np.zeros(k)
    for i in range(k):
        c = np.zeros(k)
        c[i] = 1.0
        v = vander[:, i].copy()
        for _ in range(2):  # re-orthogonalize to clean up rounding
            for j in range(i):
                proj = float(np.dot(weights * vals[j], v) / norms2[j])
                v -= proj * vals[j]
                c -= proj * coeff[j]
        nq2 = float(np.dot(weights, v * v))
        ref = float(np.dot(weights, vander[:, i] ** 2))
        if nq2 <= _RANK_FLOOR * max(1.0, ref):
            raise IllConditionedMeasureError(
                f"rank loss at degree {i}: support points of vertex {ls.vertex} are numerically coincident"
            )
        coeff[i], vals[i], norms2[i] = c, v, nq2

    # Rescale the monic family: the factor alpha_u^2 q(lambda0) / ||q||^2
    # enforces ||p||^2 = alpha_u^2 p(lambda0) with p(lambda0) > 0.
    pvals = np.zeros((k, k))
    pnorm2 = np.zeros(k)
    polys = []
    for i in range(k):
        scale = alpha_u**2 * vals[i, 0] / norms2[i]
        polys.append(Polynomial(tuple(scale * coeff[i, : i + 1])))
        pvals[i] = scale * vals[i]
        pnorm2[i] = scale**2 * norms2[i]

    recurrence = []
    for i in range(k):
        xp = support * pvals[i]
        prev = float(np.dot(weights * xp, pvals[i - 1]) / pnorm2[i - 1]) if i > 0 else 0.0
        same = float(np.dot(weights * xp, pvals[i]) / pnorm2[i])
        nxt = float(np.dot(weights * xp, pvals[i + 1]) / pnorm2[i + 1]) if i < k - 1 else 0.0
        recurrence.append((prev, same, nxt))

    return PredistanceSystem(
        spectrum=ls,
        polys=tuple(polys),
        recurrence=tuple(recurrence),
        values_at_radius=tuple(float(pvals[i, 0]) for i in range(k)),
    )


def apply_poly_column(g: Graph, p: Polynomial, u: int) -> np.ndarray:
    """The u-th column of p(adjacency), via Horner on matrix-vector products.

    Never forms p(adjacency) densely.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")
    A = g.adjacency_matrix()
    col = np.zeros(g.n)
    col[u] = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        col = A @ col
        col[u] += c
    return col
