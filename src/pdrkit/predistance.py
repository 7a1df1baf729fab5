"""Orthogonal polynomials for the spectral measure seen from one vertex.

The measure places the vertex's local multiplicities on its local
eigenvalues. Lanczos on diag(support), started from the square roots of the
weights, yields the family's values on the support and its three-term
recurrence at once; the columns p_i(A)e_u and the monomial coefficients are
derived by running the recurrence. Each p_i is scaled so that ||p_i||^2 is
the squared Perron entry times p_i(spectral radius) > 0, which makes p_0 the
squared Perron entry and p_1 = (p_0 * spectral radius / vertex degree) * x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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

    ``spectrum`` is the local spectrum the family is orthogonal for; there
    is one polynomial per degree up to the vertex's local degree.
    ``support_values[i, j]`` is p_i at the j-th support value.
    ``recurrence[i]`` holds the Fourier coefficients (previous, same, next)
    of x * p_i against p_{i-1}, p_i, p_{i+1}, with zeros at the two ends.
    ``values_at_radius[i]`` is p_i evaluated at the spectral radius; all are
    positive.
    """

    spectrum: LocalSpectrum
    support_values: np.ndarray
    recurrence: tuple[tuple[float, float, float], ...]
    values_at_radius: tuple[float, ...]

    @cached_property
    def polys(self) -> tuple[Polynomial, ...]:
        """Monomial coefficients, a reporting expansion; ``polys[i]`` has degree i.

        It loses accuracy as the local degree grows (at vertex 0 of path:40,
        local degree 39, coefficients reach 3e5 and Horner on them misses
        :meth:`columns` by 2.7e-5); ``recurrence`` is the exact description.
        """
        coeffs = self._run(np.arange(len(self.recurrence)) == 0, lambda c: np.roll(c, 1))
        return tuple(Polynomial(c[: i + 1]) for i, c in enumerate(coeffs))

    def columns(self, g: Graph) -> Iterator[np.ndarray]:
        """p_0(A)e_u, p_1(A)e_u, ... for the vertex u, one matvec per degree."""
        A = g.adjacency_matrix()
        return self._run(np.arange(g.n) == self.spectrum.vertex, lambda v: A @ v)

    def _run(self, unit: np.ndarray, times_x) -> Iterator[np.ndarray]:
        """Yield p_0(x) unit, p_1(x) unit, ... by the recurrence, where ``times_x`` applies x."""
        before, cur = 0.0 * unit, self.values_at_radius[0] * unit
        yield cur
        for prev, same, nxt in self.recurrence[:-1]:
            before, cur = cur, (times_x(cur) - same * cur - prev * before) / nxt
            yield cur

    def level_triples(self) -> tuple[tuple[float, float, float], ...]:
        """Recurrence coefficients regrouped per level as (down, stay, up).

        Level i collects the coefficient of p_i in x * p_{i-1} (down), in
        x * p_i (stay), and in x * p_{i+1} (up). At a vertex where the graph
        is pseudo-distance-regular these are the local intersection numbers.
        """
        prev, same, nxt = zip(*self.recurrence)
        return tuple(zip((0.0, *nxt[:-1]), same, (*prev[1:], 0.0)))


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

    # Lanczos on diag(support), reorthogonalized twice: row i of q is
    # sqrt(weights) times the i-th orthonormal polynomial on the support, and
    # off is the Jacobi matrix's off-diagonal.
    q = np.zeros((k, k))
    q[0] = np.sqrt(weights / weights.sum())
    off = np.zeros(k - 1)
    for i in range(k - 1):
        v = support * q[i]
        ref = float(v @ v)
        for _ in range(2):
            v -= q[: i + 1].T @ (q[: i + 1] @ v)
        off[i] = np.sqrt(v @ v)
        if off[i] ** 2 <= _RANK_FLOOR * max(1.0, ref):
            raise IllConditionedMeasureError(
                f"rank loss at degree {i + 1}: support points of vertex {ls.vertex} are numerically coincident"
            )
        q[i + 1] = v / off[i]
    same = (q**2 @ support).tolist()

    # p_i = s_i phat_i with s_i = alpha_u^2 phat_i(lambda0) enforces
    # ||p_i||^2 = alpha_u^2 p_i(lambda0) with p_i(lambda0) > 0.
    phat = q / np.sqrt(weights)
    s = alpha_u**2 * phat[:, 0]
    vals = s[:, None] * phat
    vals.setflags(write=False)
    ratio = s[1:] / s[:-1]
    prev, nxt = [0.0, *(off * ratio).tolist()], [*(off / ratio).tolist(), 0.0]
    return PredistanceSystem(
        spectrum=ls,
        support_values=vals,
        recurrence=tuple(zip(prev, same, nxt)),
        values_at_radius=tuple(vals[:, 0].tolist()),
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
