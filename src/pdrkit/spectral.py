"""Dense symmetric eigendecomposition of the adjacency matrix, spectral
idempotents, the Perron vector, and per-vertex local spectra.

Eigenvalues are grouped into distinct values by gap detection; a gap too
close to the grouping threshold is an error rather than a silent choice,
because the number of distinct eigenvalues feeds every downstream object.
The Perron vector is normalized to squared norm n, which makes the top
idempotent equal the outer product of the Perron vector divided by n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, distances_from

DEFAULT_WALK_CAP = 12


class NumericalError(RuntimeError):
    """Numerical failure that invalidates the decomposition or anything downstream."""


class GroupingAmbiguityError(NumericalError):
    """An eigenvalue gap sits too close to the grouping threshold to decide."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric thresholds used across the library.

    Thresholds that compare quantities growing with the spectral radius are
    scaled by :meth:`scaled`: ``eps_group``, ``eps_pdr`` and ``eps_alpha``
    by max(1, spectral radius), ``eps_walk`` by max(1, spectral radius ** l)
    for walks of length l. A few checks use ``eps_pdr`` or ``eps_alpha``
    unscaled, which is stricter; each says why where it does. ``eps_orth``
    is relative; ``eps_mult`` and ``eps_num`` are never scaled by the
    spectral radius. Defaults suit integer adjacency matrices at desk
    scale, where the true gaps exceed them by several orders.
    """

    eps_group: float = 1e-8  # eigenvalue grouping
    eps_mult: float = 1e-8   # clamp for local multiplicities
    eps_num: float = 1e-7    # matrix identity checks
    eps_pdr: float = 1e-7    # pseudo-intersection spread
    eps_walk: float = 1e-6   # walk-count residuals
    eps_orth: float = 1e-8   # orthogonality / recurrence residuals
    eps_alpha: float = 1e-9  # Perron-entry comparisons

    def scaled(self, name: str, lam0: float, power: int = 1) -> float:
        """Field ``name`` scaled to the spectral radius: eps * max(1, lam0 ** power)."""
        return getattr(self, name) * max(1.0, lam0**power)


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (decreasing), multiplicities, idempotents, Perron vector.

    ``idempotents[i]`` is the symmetric orthogonal projector onto the
    eigenspace of ``eigenvalues[i]``; ``perron`` is entrywise positive with
    squared norm n.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    idempotents: np.ndarray
    perron: np.ndarray

    @property
    def n(self) -> int:
        return self.perron.shape[0]

    @property
    def d(self) -> int:
        """Number of distinct eigenvalues minus one."""
        return len(self.eigenvalues) - 1

    @property
    def spectral_radius(self) -> float:
        return float(self.eigenvalues[0])

    def local_multiplicity_matrix(self) -> np.ndarray:
        """(n, d+1) matrix whose row u holds the raw u-local multiplicities."""
        return np.einsum("kuu->uk", self.idempotents)


@dataclass(frozen=True, eq=False)
class LocalSpectrum:
    """The spectrum of the graph as seen from one vertex.

    ``local_mults`` is aligned with ``eigenvalues`` (the full distinct list)
    and has entries below the clamp threshold set to exactly zero;
    ``values`` keeps only eigenvalues with nonzero clamped multiplicity.
    ``local_degree`` is len(values) - 1 and bounds the vertex eccentricity
    from above.
    """

    vertex: int
    eigenvalues: np.ndarray
    local_mults: np.ndarray
    values: np.ndarray
    local_degree: int

    @property
    def support_weights(self) -> np.ndarray:
        """Local multiplicities restricted to ``values``."""
        return self.local_mults[self.local_mults > 0]


def _group_eigenvalues(evals_desc: np.ndarray, eps: float) -> list[list[int]]:
    """Partition a decreasing eigenvalue list into groups separated by gaps > eps.

    Any gap within a factor 10 of eps is ambiguous and raises; so does a
    group whose accumulated spread exceeds eps.
    """
    groups: list[list[int]] = [[0]]
    for i in range(1, len(evals_desc)):
        gap = float(evals_desc[i - 1] - evals_desc[i])
        if eps / 10 < gap < eps * 10:
            raise GroupingAmbiguityError(
                f"eigenvalue gap {gap:.3e} is within a factor 10 of the grouping threshold {eps:.3e}"
            )
        if gap > eps:
            groups.append([i])
        else:
            groups[-1].append(i)
    for grp in groups:
        spread = float(evals_desc[grp[0]] - evals_desc[grp[-1]])
        if spread > eps:
            raise GroupingAmbiguityError(
                f"within-group spread {spread:.3e} exceeds the grouping threshold {eps:.3e}"
            )
    return groups


def decompose(g: Graph, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of the adjacency matrix of a connected graph.

    Groups numerically equal eigenvalues, assembles one symmetric idempotent
    per group from eigenvector outer products, and returns the Perron vector
    scaled positive with squared norm n.
    """
    distances_from(g, 0)  # raises ConnectivityError on disconnected input
    A = g.adjacency_matrix()
    try:
        evals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    evals = evals[::-1]
    vecs = vecs[:, ::-1]
    eps = tol.scaled("eps_group", float(evals[0]))
    groups = _group_eigenvalues(evals, eps)
    eigenvalues = np.array([float(np.mean(evals[grp])) for grp in groups])
    eigenvalues[np.abs(eigenvalues) < eps] = 0.0  # same clamp idea as local multiplicities
    multiplicities = np.array([len(grp) for grp in groups], dtype=np.int64)
    if multiplicities[0] != 1:
        raise NumericalError(
            f"largest eigenvalue grouped with multiplicity {multiplicities[0]}; "
            "connected graphs have a simple spectral radius"
        )
    idempotents = np.empty((len(groups), g.n, g.n))
    for k, grp in enumerate(groups):
        V = vecs[:, grp]
        E = V @ V.T
        idempotents[k] = (E + E.T) / 2  # kill asymmetric rounding
    perron = vecs[:, 0] * np.sqrt(g.n)
    if perron[0] < 0:
        perron = -perron
    if not np.all(perron > 0):
        raise NumericalError("Perron vector is not entrywise positive")
    for arr in (eigenvalues, multiplicities, idempotents, perron):
        arr.setflags(write=False)
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        idempotents=idempotents,
        perron=perron,
    )


def _clamped_local_mults(
    dec: SpectralDecomposition, vertices: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, list[NumericalError | None]]:
    """Local multiplicities of a block of vertices, one read-only row each.

    Row b holds the (u, u) entries of the idempotents for u = vertices[b],
    with entries below ``eps_mult`` in magnitude set to exactly zero.
    ``errors[b]`` is the error for a row left with a negative entry, else None.
    """
    mults = dec.idempotents[:, vertices, vertices].T.copy()
    mults[np.abs(mults) < tol.eps_mult] = 0.0
    mults.setflags(write=False)
    errors = [
        NumericalError(f"negative local multiplicity beyond clamp at vertex {u}") if bad else None
        for u, bad in zip(vertices.tolist(), (mults < 0).any(axis=1).tolist())
    ]
    return mults, errors


def _local_spectrum(dec: SpectralDecomposition, u: int, mults: np.ndarray) -> LocalSpectrum:
    values = dec.eigenvalues[mults > 0]
    return LocalSpectrum(
        vertex=u, eigenvalues=dec.eigenvalues, local_mults=mults, values=values, local_degree=len(values) - 1
    )


def local_spectrum(dec: SpectralDecomposition, u: int, tol: ToleranceConfig = DEFAULT_TOL) -> LocalSpectrum:
    """Local multiplicities of vertex u, clamped, with their support.

    The raw multiplicity of eigenvalue i is the (u, u) entry of idempotent
    i; entries below ``eps_mult`` in magnitude become exactly zero.
    """
    if not 0 <= u < dec.n:
        raise ValueError(f"vertex {u} out of range")
    (mults,), (error,) = _clamped_local_mults(dec, np.array([u]), tol)
    if error is not None:
        raise error
    return _local_spectrum(dec, u, mults)


def crossed_multiplicity(dec: SpectralDecomposition, u: int, v: int, i: int) -> float:
    """The (u, v) entry of idempotent i; symmetric in u and v."""
    if not (0 <= u < dec.n and 0 <= v < dec.n):
        raise ValueError("vertex out of range")
    if not 0 <= i <= dec.d:
        raise ValueError(f"eigenvalue index {i} out of range")
    return float(dec.idempotents[i, u, v])


def walk_count(
    dec: SpectralDecomposition,
    u: int,
    v: int,
    length: int,
    cap: int = DEFAULT_WALK_CAP,
) -> float:
    """Number of u-v walks of the given length, from the spectral side.

    Computes sum_i (E_i)_{uv} lambda_i^length. Lengths beyond ``cap``
    (default 12) are refused to bound floating error growth; use the exact
    integer oracle for anything longer.
    """
    if length < 0:
        raise ValueError("walk length must be non-negative")
    if length > cap:
        raise ValueError(f"walk length {length} exceeds the cap {cap}")
    if not (0 <= u < dec.n and 0 <= v < dec.n):
        raise ValueError("vertex out of range")
    return float(np.dot(dec.idempotents[:, u, v], dec.eigenvalues**length))


def adjacency_powers(g: Graph, max_power: int) -> list[np.ndarray]:
    """Exact integer matrices A^0..A^max_power in 64-bit arithmetic.

    Raises :class:`OverflowError` before any product could exceed the int64
    range, so entries are always exact.
    """
    if max_power < 0:
        raise ValueError("max_power must be non-negative")
    powers = [np.eye(g.n, dtype=np.int64)]
    A = g.adjacency.astype(np.int64)
    limit = (2**63 - 1) // max(1, g.n)
    for k in range(max_power):
        prev = powers[-1]
        if int(prev.max()) > limit:
            raise OverflowError(f"64-bit walk counts would overflow at power {k + 1}")
        powers.append(prev @ A)
    return powers


def integer_walk_count(g: Graph, u: int, v: int, length: int) -> int:
    """Exact number of u-v walks of the given length, by integer matrix powering."""
    return int(adjacency_powers(g, length)[length][u, v])
