"""Orthogonal polynomials for the spectral measure seen from one vertex.

The measure places the vertex's local multiplicities on its local
eigenvalues. Lanczos on diag(support), started from the square roots of the
weights, yields the family's values on the support and its three-term
recurrence at once; the columns p_i(A)e_u are derived by running the
recurrence. Each p_i is scaled so that ||p_i||^2 is the squared Perron entry
times p_i(spectral radius) > 0, which makes p_0 the squared Perron entry and
p_1 = (p_0 * spectral radius / vertex degree) * x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph_core import Graph
from .spectral import LocalSpectrum, NumericalError, _row_chunks

# Relative squared-norm floor below which the support points are treated as
# numerically coincident.
_RANK_FLOOR = 1e-20


class IllConditionedMeasureError(NumericalError):
    """Support points too close together for a stable orthogonal basis."""


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

    def columns(self, g: Graph) -> Iterator[np.ndarray]:
        """p_0(A)e_u, p_1(A)e_u, ... for the vertex u, one matvec per degree."""
        A = g.adjacency_matrix()
        return self._run(np.arange(g.n) == self.spectrum.vertex, lambda v: A @ v)

    def _run(self, unit: np.ndarray, times_x) -> Iterator[np.ndarray]:
        """Yield p_0(x) unit, p_1(x) unit, ... by the recurrence, where ``times_x`` applies x."""
        prev, same, nxt = np.array(self.recurrence).T
        return _run_recurrence(unit, self.values_at_radius[0], prev, same, nxt, times_x)


def _run_recurrence(
    unit: np.ndarray,
    p0: float | np.ndarray,
    prev: np.ndarray,
    same: np.ndarray,
    nxt: np.ndarray,
    times_x,
) -> Iterator[np.ndarray]:
    """Yield p_0(x) unit, p_1(x) unit, ... for a block of families at once.

    p_0 is the constant ``p0``, and the coefficient arrays lead with the
    degree: ``prev[i]``, ``same[i]`` and ``nxt[i]`` are those of degree i,
    zero past a family's own degree. ``p0`` and each coefficient of one
    degree broadcast against ``unit``, so that every family runs on its own
    columns. ``times_x`` applies x to a whole block. A column whose
    recurrence has ended (next coefficient zero) stays zero.
    """
    going = nxt != 0
    before, cur = 0.0 * unit, p0 * unit
    yield cur
    for i in range(len(prev) - 1):
        step = times_x(cur)
        step -= same[i] * cur
        step -= prev[i] * before
        before, cur = cur, np.divide(step, nxt[i], out=np.zeros(step.shape), where=going[i])
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

    def level_triples(self) -> np.ndarray:
        """Recurrence coefficients regrouped per level as a zero-padded (B, k, 3) array.

        Level i of row b collects the coefficient of p_i in x * p_{i-1}
        (down), in x * p_i (stay), and in x * p_{i+1} (up). At a vertex where
        the graph is pseudo-distance-regular these are the local intersection
        numbers.
        """
        out = np.zeros((*self.same.shape, 3))
        out[:, 1:, 0], out[:, :, 1], out[:, :-1, 2] = self.nxt[:, :-1], self.same, self.prev[:, 1:]
        return out


def _predistance_block(
    vertices: np.ndarray,
    support: np.ndarray,
    weights: np.ndarray,
    sizes: np.ndarray,
    alphas: np.ndarray,
) -> _PredistanceBlock:
    """Build the predistance families of a block of vertices at once.

    Row b of the (B, k) arrays ``support`` and ``weights`` holds the
    measure of ``vertices[b]`` in its first ``sizes[b]`` slots, zeros
    after: nonempty, positive and strictly decreasing from the spectral
    radius, as the local measures of a decomposition are. ``alphas`` holds
    the rows' Perron entries. Lanczos runs on every row together, one
    degree at a time; a row that loses rank ends its family there and
    records its :class:`IllConditionedMeasureError`.
    """
    B, k = support.shape

    # Lanczos on diag(support), reorthogonalized twice: q[b, i] is
    # sqrt(weights) times the i-th orthonormal polynomial of row b on its
    # support, and off[b, i] its Jacobi matrix's off-diagonal. Every row
    # takes every step; a row's steps past its last degree, sizes[b] - 1,
    # or past a rank loss, work on rounding noise (a zero vector stays zero)
    # and are zeroed once the loop is done.
    q = np.zeros((B, k, k))
    q[:, 0] = np.sqrt(weights / weights.sum(axis=1, keepdims=True))
    norms = np.zeros((k - 1, B))
    for i in range(k - 1):
        v = support * q[:, i]
        row, column = v[:, None, :], v[:, :, None]
        basis = q[:, : i + 1]
        for _ in range(2):
            np.subtract(row, (basis @ column).transpose(0, 2, 1) @ basis, out=row)
        norm = np.matmul(row, column, out=norms[i, :, None, None])
        np.sqrt(norm, out=norm)
        np.divide(v, norm[:, 0], out=q[:, i + 1], where=norm[:, 0] > 0)
    # Each degree's recurrence coefficient same_i = <x q_i, q_i>, and the
    # squared norm of x q_i, a chunk of rows at a time.
    same, refs = np.zeros((2, B, k))
    for rows in _row_chunks(B, k * k):
        square = np.square(q[rows])
        same[rows] = (square @ support[rows, :, None])[:, :, 0]
        refs[rows] = (square @ np.square(support[rows])[:, :, None])[:, :, 0]
        del square
    # A row loses rank at the first step short of its last degree whose
    # residual is negligible against the vector it started from, x q_i.
    step = np.arange(k - 1)[:, None]
    last = sizes - 1
    lost = (norms**2 <= _RANK_FLOOR * np.maximum(1.0, refs[:, :-1].T)) & (step < last)
    end = np.minimum(np.where(lost, step, k).min(axis=0, initial=k), last)  # each row's last degree
    past = np.arange(k) > end[:, None]
    q[past] = 0.0
    same[past] = 0.0
    off = np.where(step.T < end[:, None], norms.T, 0.0)
    errors: list[Exception | None] = [None] * B
    short = end < last
    if short.any():
        for b in short.nonzero()[0].tolist():
            errors[b] = IllConditionedMeasureError(
                f"rank loss at degree {end[b] + 1}: support points of vertex {vertices[b]} are numerically coincident"
            )

    # p_i = s_i phat_i with s_i = alpha_u^2 phat_i(lambda0) enforces
    # ||p_i||^2 = alpha_u^2 p_i(lambda0) with p_i(lambda0) > 0. The values
    # overwrite q: padded columns of q are zero already. Where the family
    # has ended, off is zero, and so are prev and next.
    root = np.sqrt(weights)[:, None, :]
    phat = np.divide(q, root, out=q, where=root > 0)
    s = alphas[:, None] ** 2 * phat[:, :, 0]
    vals = np.multiply(phat, s[:, :, None], out=phat)
    vals.setflags(write=False)
    ratio = np.divide(s[:, 1:], s[:, :-1], out=np.ones((B, k - 1)), where=off > 0)
    prev, nxt = np.zeros((2, B, k))
    prev[:, 1:] = off * ratio
    nxt[:, :-1] = off / ratio
    return _PredistanceBlock(vertices, support, weights, sizes, vals, prev, same, nxt, errors)


def build_predistance(ls: LocalSpectrum, lambda0: float, alpha_u: float) -> PredistanceSystem:
    """Construct the vertex's orthogonal polynomial family and recurrence.

    ``lambda0`` is the spectral radius and ``alpha_u`` the vertex's Perron
    entry. Raises ValueError on a local spectrum that is empty, not
    strictly decreasing, not positive or not led by ``lambda0``, or on an
    ``alpha_u`` that is not a finite number > 0, and
    :class:`IllConditionedMeasureError` on numerical rank loss before the
    local degree is reached. The one-row case of :func:`_predistance_block`.
    """
    support, weights = np.array([ls.values, ls.support_weights], dtype=float)[:, None]
    if not support.size:
        raise ValueError("empty local spectrum")
    if (support[0, 1:] >= support[0, :-1]).any():
        raise ValueError("support values must be strictly decreasing")
    if (weights <= 0).any():
        raise ValueError("support weights must be positive")
    if abs(support[0, 0] - lambda0) > 1e-9 * max(1.0, abs(lambda0)):
        raise ValueError("spectral radius must be the largest support value")
    if not 0 < alpha_u < np.inf:  # false for nan too
        raise ValueError(f"Perron entry must be a finite number > 0, got {alpha_u}")
    sizes, alphas = np.array([support.shape[1]]), np.array([alpha_u])
    block = _predistance_block(np.array([ls.vertex]), support, weights, sizes, alphas)
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

