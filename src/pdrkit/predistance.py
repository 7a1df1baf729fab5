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
        coeffs = self._run(np.arange(len(self.recurrence)) == 0, lambda c: np.roll(c, 1, axis=0))
        return tuple(Polynomial(c[: i + 1]) for i, c in enumerate(coeffs))

    def columns(self, g: Graph) -> Iterator[np.ndarray]:
        """p_0(A)e_u, p_1(A)e_u, ... for the vertex u, one matvec per degree."""
        A = g.adjacency_matrix()
        return self._run(np.arange(g.n) == self.spectrum.vertex, lambda v: A @ v)

    def _run(self, unit: np.ndarray, times_x) -> Iterator[np.ndarray]:
        """Yield p_0(x) unit, p_1(x) unit, ... by the recurrence, where ``times_x`` applies x."""
        prev, same, nxt = np.array(self.recurrence).T[:, None, :]
        runs = _run_recurrence(unit[:, None], np.array(self.values_at_radius[:1]), prev, same, nxt, times_x)
        return (col[:, 0] for col in runs)

    def level_triples(self) -> tuple[tuple[float, float, float], ...]:
        """Recurrence coefficients regrouped per level as (down, stay, up).

        Level i collects the coefficient of p_i in x * p_{i-1} (down), in
        x * p_i (stay), and in x * p_{i+1} (up). At a vertex where the graph
        is pseudo-distance-regular these are the local intersection numbers.
        """
        return tuple(map(tuple, _PredistanceBlock.of_system(self).level_triples()[0].tolist()))


def local_inner_product(ls: LocalSpectrum, f: Polynomial, g: Polynomial) -> float:
    """Scalar product sum_i m_u(lambda_i) f(lambda_i) g(lambda_i).

    Runs over the full distinct-eigenvalue list; zero-multiplicity terms
    contribute nothing.
    """
    x = ls.eigenvalues
    return float(np.dot(ls.local_mults, f(x) * g(x)))


def _run_recurrence(
    unit: np.ndarray,
    p0: np.ndarray,
    prev: np.ndarray,
    same: np.ndarray,
    nxt: np.ndarray,
    times_x,
) -> Iterator[np.ndarray]:
    """Yield p_0(x) unit, p_1(x) unit, ... for a block of families at once.

    Column b of ``unit`` runs family b: p_0 is the constant ``p0[b]`` and
    row b of the (B, k) coefficient arrays holds its recurrence, padded
    with zeros past its own degree. ``times_x`` applies x to a whole block.
    A column whose recurrence has ended (next coefficient zero) stays zero.
    """
    before, cur = 0.0 * unit, p0 * unit
    yield cur
    for i in range(prev.shape[1] - 1):
        step = times_x(cur) - same[:, i] * cur - prev[:, i] * before
        before, cur = cur, np.divide(step, nxt[:, i], out=np.zeros_like(step), where=nxt[:, i] != 0)
        yield cur


@dataclass(frozen=True, eq=False)
class _PredistanceBlock:
    """The predistance families of a block of vertices, padded to the largest.

    Row b belongs to ``vertices[b]``: its support and weights fill the first
    ``sizes[b]`` slots of ``support`` and ``weights``, ``vals[b, i, j]`` is
    p_i at the j-th support value, and ``prev``, ``same``, ``nxt`` hold the
    recurrence coefficients of :attr:`PredistanceSystem.recurrence`. Every
    padded entry is zero. ``errors[b]`` is the error that
    :func:`build_predistance` raises for row b, or None.
    """

    vertices: np.ndarray
    support: np.ndarray
    weights: np.ndarray
    sizes: np.ndarray
    vals: np.ndarray
    prev: np.ndarray
    same: np.ndarray
    nxt: np.ndarray
    errors: list[Exception | None]

    @classmethod
    def of_system(cls, system: PredistanceSystem) -> "_PredistanceBlock":
        """The one-row block of a built system."""
        ls = system.spectrum
        prev, same, nxt = np.array(system.recurrence).T[:, None, :]
        return cls(
            vertices=np.array([ls.vertex]),
            support=ls.values[None],
            weights=ls.support_weights[None],
            sizes=np.array([len(ls.values)]),
            vals=system.support_values[None],
            prev=prev,
            same=same,
            nxt=nxt,
            errors=[None],
        )

    def level_triples(self) -> np.ndarray:
        """(B, k, 3) array whose row b is :meth:`PredistanceSystem.level_triples` of row b, zero-padded."""
        out = np.zeros((*self.same.shape, 3))
        out[:, 1:, 0], out[:, :, 1], out[:, :-1, 2] = self.nxt[:, :-1], self.same, self.prev[:, 1:]
        return out


def _predistance_block(
    vertices: np.ndarray,
    support: np.ndarray,
    weights: np.ndarray,
    sizes: np.ndarray,
    lambda0: float | np.ndarray,
    alphas: np.ndarray,
) -> _PredistanceBlock:
    """Build the predistance families of a block of vertices at once.

    Row b of the (B, k) arrays ``support`` and ``weights`` holds the
    measure of ``vertices[b]`` in its first ``sizes[b]`` slots; ``lambda0``
    holds the spectral radius of each row's graph, or one for all, and
    ``alphas`` their Perron entries. Lanczos runs on every row together, one
    degree at a time; a row that fails validation or loses rank stops there
    and records the error that :func:`build_predistance` raises for it.
    """
    B, k = support.shape
    valid = np.arange(k) < sizes[:, None]
    problems = [
        (sizes == 0, "empty local spectrum"),
        (
            ((support[:, 1:] >= support[:, :-1]) & valid[:, 1:]).any(axis=1),
            "support values must be strictly decreasing",
        ),
        (((weights <= 0) & valid).any(axis=1), "support weights must be positive"),
        (
            (sizes > 0) & (np.abs(support[:, 0] - lambda0) > 1e-9 * np.maximum(1.0, np.abs(lambda0))),
            "spectral radius must be the largest support value",
        ),
    ]
    errors: list[Exception | None] = [None] * B
    live = np.ones(B, dtype=bool)
    for bad, message in reversed(problems):
        if bad.any():
            live &= ~bad
            for b in np.flatnonzero(bad):
                errors[b] = ValueError(message)
    support = np.where(valid & live[:, None], support, 0.0)
    weights = np.where(valid & live[:, None], weights, 0.0)

    # Lanczos on diag(support), reorthogonalized twice: q[b, i] is
    # sqrt(weights) times the i-th orthonormal polynomial of row b on its
    # support, and off[b, i] its Jacobi matrix's off-diagonal.
    q = np.zeros((B, k, k))
    total = weights.sum(axis=1, keepdims=True)
    q[:, 0] = np.sqrt(np.divide(weights, total, out=np.zeros_like(weights), where=total > 0))
    off = np.zeros((B, k))
    for i in range(k - 1):
        live &= i < sizes - 1
        if not live.any():
            break
        v = support * q[:, i]
        ref = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
        for _ in range(2):
            basis = q[:, : i + 1]
            v -= (basis.transpose(0, 2, 1) @ (basis @ v[:, :, None]))[:, :, 0]
        norm = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        lost = live & (norm**2 <= _RANK_FLOOR * np.maximum(1.0, ref))
        if lost.any():
            live &= ~lost
            for b in np.flatnonzero(lost):
                errors[b] = IllConditionedMeasureError(
                    f"rank loss at degree {i + 1}: support points of vertex {vertices[b]} are numerically coincident"
                )
        off[:, i] = np.where(live, norm, 0.0)
        q[:, i + 1] = np.divide(v, norm[:, None], out=np.zeros_like(v), where=live[:, None])
    same = (np.square(q) @ support[:, :, None])[:, :, 0]

    # p_i = s_i phat_i with s_i = alpha_u^2 phat_i(lambda0) enforces
    # ||p_i||^2 = alpha_u^2 p_i(lambda0) with p_i(lambda0) > 0. The values
    # overwrite q: padded columns of q are zero already.
    root = np.sqrt(weights)[:, None, :]
    phat = np.divide(q, root, out=q, where=root > 0)
    s = alphas[:, None] ** 2 * phat[:, :, 0]
    vals = np.multiply(phat, s[:, :, None], out=phat)
    vals.setflags(write=False)
    step = off[:, :-1] > 0
    ratio = np.divide(s[:, 1:], s[:, :-1], out=np.ones_like(s[:, 1:]), where=step)
    prev, nxt = np.zeros((B, k)), np.zeros((B, k))
    prev[:, 1:] = off[:, :-1] * ratio
    nxt[:, :-1] = np.where(step, off[:, :-1] / ratio, 0.0)
    return _PredistanceBlock(vertices, support, weights, sizes, vals, prev, same, nxt, errors)


def build_predistance(ls: LocalSpectrum, lambda0: float, alpha_u: float) -> PredistanceSystem:
    """Construct the vertex's orthogonal polynomial family and recurrence.

    ``lambda0`` is the spectral radius and ``alpha_u`` the vertex's Perron
    entry. Raises :class:`IllConditionedMeasureError` on numerical rank loss
    before the local degree is reached. The one-row case of
    :func:`_predistance_block`.
    """
    k = len(ls.values)
    support, weights = np.zeros((2, 1, max(k, 1)))
    support[0, :k], weights[0, :k] = ls.values, ls.support_weights
    block = _predistance_block(np.array([ls.vertex]), support, weights, np.array([k]), lambda0, np.array([alpha_u]))
    (error,) = block.errors
    if error is not None:
        raise error
    vals = block.vals[0]
    return PredistanceSystem(
        spectrum=ls,
        support_values=vals,
        recurrence=tuple(zip(block.prev[0].tolist(), block.same[0].tolist(), block.nxt[0].tolist())),
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
