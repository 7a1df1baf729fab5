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

# Reductions over many rows, from the decomposition's groups to the vertex
# pass, take the rows in the chunks of _row_chunks, which keep each
# temporary within this many float64 entries (a row whose own temporary
# exceeds it is a chunk alone); every n <= 6 graph fits one chunk.
_BLOCK_ENTRIES = 2**13


class NumericalError(RuntimeError):
    """Numerical failure that invalidates the decomposition or anything downstream."""


class GroupingAmbiguityError(NumericalError):
    """An eigenvalue gap sits too close to the grouping threshold to decide."""


def _row_chunks(R: int, per_row: int) -> list[slice]:
    """Consecutive slices of max(1, _BLOCK_ENTRIES // per_row) of R rows, whose
    largest temporary holds ``per_row`` float64 entries a row."""
    size = max(1, _BLOCK_ENTRIES // per_row)
    return [slice(lo, min(R, lo + size)) for lo in range(0, R, size)]


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

    def scaled(self, name: str, lam0, power: int = 1):
        """Field ``name`` scaled to the spectral radius: eps * max(1, lam0 ** power), elementwise on an array."""
        return getattr(self, name) * np.maximum(1.0, lam0**power)


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
    and has entries below the clamp threshold set to exactly zero, except
    the spectral radius's; ``values`` keeps only eigenvalues with nonzero
    clamped multiplicity, so it starts at the spectral radius and strictly
    decreases. :func:`build_predistance` checks that of a caller-built one.
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
        return self.local_mults[self.local_mults != 0]


@dataclass(frozen=True, eq=False)
class _SpectralStack:
    """The decompositions of B graphs of one order n, padded to the most groups.

    Graph b has ``sizes[b]`` distinct eigenvalues; its rows of
    ``eigenvalues``, ``multiplicities`` and ``idempotents`` hold them first
    and zeros after. ``errors[b]`` is the error :func:`decompose` raises
    for graph b, or None; the arrays of such a graph are not meaningful.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    idempotents: np.ndarray
    perron: np.ndarray
    sizes: np.ndarray
    errors: list[NumericalError | None]

    @classmethod
    def of(cls, dec: SpectralDecomposition) -> "_SpectralStack":
        """The one-graph stack of a decomposition, refused with ValueError
        where it breaks the contract that every local measure relies on."""
        if (np.diff(dec.eigenvalues) >= 0).any():
            raise ValueError("eigenvalues must be strictly decreasing")
        if (np.diagonal(dec.idempotents[0]) <= 0).any():
            raise ValueError("the spectral radius must have positive local multiplicity at every vertex")
        return cls(
            eigenvalues=dec.eigenvalues[None],
            multiplicities=dec.multiplicities[None],
            idempotents=dec.idempotents[None],
            perron=dec.perron[None],
            sizes=np.array([len(dec.eigenvalues)]),
            errors=[None],
        )

    def take(self, graphs: np.ndarray) -> "_SpectralStack":
        """The stack of the given graphs, in that order."""
        return _SpectralStack(
            eigenvalues=self.eigenvalues[graphs],
            multiplicities=self.multiplicities[graphs],
            idempotents=self.idempotents[graphs],
            perron=self.perron[graphs],
            sizes=self.sizes[graphs],
            errors=[self.errors[b] for b in graphs.tolist()],
        )

    def decomposition(self, b: int) -> SpectralDecomposition:
        """Graph b's decomposition; raises its error if it has one."""
        if self.errors[b] is not None:
            raise self.errors[b]
        k = int(self.sizes[b])
        arrays = self.eigenvalues[b, :k], self.multiplicities[b, :k], self.idempotents[b, :k], self.perron[b]
        for arr in arrays:
            arr.setflags(write=False)
        return SpectralDecomposition(*arrays)

    def local_multiplicities(self) -> np.ndarray:
        """(B, n, k) raw local multiplicities: entry (b, u, i) is (u, u) of graph b's idempotent i."""
        return self.idempotents.diagonal(0, 2, 3).transpose(0, 2, 1)


def _group_stack(evals: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, list[GroupingAmbiguityError | None]]:
    """Group every row of a (B, n) stack of decreasing eigenvalue lists.

    Row b splits where a gap exceeds ``eps[b]``. The result's (2, G) bounds
    hold the first and the last member of each of the stack's G groups, in
    order, as indices into the flattened stack. ``errors[b]`` is set when a
    gap of row b lies within a factor 10 of ``eps[b]`` (the first such gap
    is named) or, failing that, when a group's accumulated spread exceeds
    ``eps[b]`` (the first such group is named).
    """
    B, n = evals.shape
    gaps = evals[:, :-1] - evals[:, 1:]
    e = eps[:, None]
    split = gaps > e
    # A group starts after each split and ends before it: its spread is the
    # difference of its first and last members.
    ends = np.ones((2, B, n), dtype=bool)
    ends[0, :, 1:] = split
    ends[1, :, :-1] = split
    bounds = ends.reshape(2, B * n).nonzero()[1].reshape(2, -1)
    top, bottom = evals.take(bounds)
    spread = top - bottom
    owner = bounds[0] // n
    wide = spread > eps[owner]
    ambiguous = (e / 10 < gaps) & (gaps < e * 10)
    errors: list[GroupingAmbiguityError | None] = [None] * B
    if wide.any() or ambiguous.any():
        for i in wide.nonzero()[0][::-1].tolist():  # the first wide group of a row is set last
            errors[owner[i]] = GroupingAmbiguityError(
                f"within-group spread {float(spread[i]):.3e} exceeds the grouping threshold {float(eps[owner[i]]):.3e}"
            )
        for b in ambiguous.any(axis=1).nonzero()[0].tolist():
            errors[b] = GroupingAmbiguityError(
                f"eigenvalue gap {float(gaps[b, np.argmax(ambiguous[b])]):.3e} "
                f"is within a factor 10 of the grouping threshold {float(eps[b]):.3e}"
            )
    return bounds, errors


def _decompose_stack(adjacency: np.ndarray, tol: ToleranceConfig) -> _SpectralStack:
    """:func:`decompose` on a (B, n, n) stack of 0/1 adjacency matrices at once.

    One stacked eigensolver call, grouping with the ambiguity rule of
    :func:`_group_stack`, and one idempotent per group; a graph whose
    decomposition fails keeps its error in ``errors`` and leaves the others
    alone. Connectivity is the caller's to check.
    """
    B, n, _ = adjacency.shape
    errors: list[NumericalError | None] = [None] * B
    try:
        evals, vecs = np.linalg.eigh(adjacency)
    except np.linalg.LinAlgError:
        # Find the graphs that fail, and solve the others alone.
        evals, vecs = np.zeros((B, n)), np.zeros((B, n, n))
        for b in range(B):
            try:
                evals[b], vecs[b] = np.linalg.eigh(adjacency[b])
            except np.linalg.LinAlgError as exc:
                errors[b] = NumericalError(f"eigensolver did not converge: {exc}")
    evals = evals[:, ::-1]
    eps = tol.scaled("eps_group", evals[:, 0])
    (first, last), group_errors = _group_stack(evals, eps)
    counts = last - first + 1
    sizes = np.bincount(first // n, minlength=B)
    k = int(sizes.max())
    present = np.arange(k) < sizes[:, None]  # (graph, group) pairs, in the order of the groups

    # Every group's mean and idempotent from the rows of its eigenvectors,
    # padded to the widest group with a zero row: the products' inner
    # dimension is the largest group size. A group's eigenvector rows,
    # product and symmetrized product count as 4 n^2 entries, which keeps a
    # chunk's temporaries small beside the result.
    rows = np.zeros((B * n + 1, n))
    rows[:-1] = vecs.transpose(0, 2, 1)[:, ::-1].reshape(B * n, n)
    members = first[:, None] + np.arange(int(counts.max()))
    members[members > last[:, None]] = B * n
    eigenvalues = np.zeros((B, k))
    eigenvalues[present] = np.add.reduceat(evals.ravel(), first) / counts  # each group summed in order
    eigenvalues[np.abs(eigenvalues) < eps[:, None]] = 0.0  # same clamp idea as local multiplicities
    multiplicities = np.zeros((B, k), dtype=np.int64)
    multiplicities[present] = counts
    idempotents = np.zeros((B * k, n, n))
    place = present.ravel().nonzero()[0]
    for chunk in _row_chunks(len(first), 4 * n * n):
        V = rows[members[chunk]]
        E = V.transpose(0, 2, 1) @ V
        del V
        E += E.transpose(0, 2, 1)  # kill asymmetric rounding
        E /= 2
        idempotents[place[chunk]] = E
    perron = vecs[:, :, -1] * np.copysign(np.sqrt(n), vecs[:, :1, -1])
    # A failed eigensolver comes first, then an ambiguous grouping, then a
    # multiple spectral radius or a Perron vector that is not positive.
    errors = [e or g for e, g in zip(errors, group_errors)]
    top = multiplicities[:, 0]
    bad = (top != 1) | ~(perron > 0).all(axis=1)
    if bad.any():
        for b in bad.nonzero()[0].tolist():
            found = (
                f"largest eigenvalue grouped with multiplicity {top[b]}; connected graphs have a simple spectral radius"
                if top[b] != 1
                else "Perron vector is not entrywise positive"
            )
            errors[b] = errors[b] or NumericalError(found)
    return _SpectralStack(eigenvalues, multiplicities, idempotents.reshape(B, k, n, n), perron, sizes, errors)


def decompose(g: Graph, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of the adjacency matrix of a connected graph.

    Groups numerically equal eigenvalues, assembles one symmetric idempotent
    per group from eigenvector outer products, and returns the Perron vector
    scaled positive with squared norm n. The one-graph case of
    :func:`_decompose_stack`.
    """
    distances_from(g, 0)  # raises ConnectivityError on disconnected input
    return _decompose_stack(g.adjacency_matrix()[None], tol).decomposition(0)


def _local_measures(
    spectra: _SpectralStack, graphs: np.ndarray, vertices: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[NumericalError | None]]:
    """(mults, support, weights, sizes, errors), read-only: the local measures of (graph, vertex) rows.

    Row r of ``mults`` holds the (u, u) entries of graph ``graphs[r]``'s
    idempotents for u = vertices[r], padded as the stack is, with entries
    below ``eps_mult`` in magnitude set to exactly zero, except the
    spectral radius's, alpha_u^2 / n > 0. Its ``sizes[r]`` positive entries
    and their eigenvalues, in decreasing order, lead ``weights[r]`` and
    ``support[r]``, zeros after. ``errors[r]`` is the error for a row left
    with a negative entry, else None.
    """
    mults = spectra.idempotents[graphs, :, vertices, vertices]
    rest = mults[:, 1:]  # the spectral radius keeps its weight, however small
    rest[np.abs(rest) < tol.eps_mult] = 0.0
    present = mults > 0
    sizes = present.sum(axis=1)
    width = max(1, int(sizes.max()))
    order = (~present).argsort(axis=1, kind="stable")[:, :width]
    kept = np.arange(width) < sizes[:, None]
    support = np.where(kept, spectra.eigenvalues[graphs[:, None], order], 0.0)
    weights = np.where(kept, mults[np.arange(len(vertices))[:, None], order], 0.0)
    for a in (mults, support, weights):
        a.setflags(write=False)
    errors: list[NumericalError | None] = [None] * len(vertices)
    negative = mults < 0
    if negative.any():
        for r in negative.any(axis=1).nonzero()[0].tolist():
            errors[r] = NumericalError(f"negative local multiplicity beyond clamp at vertex {vertices[r]}")
    return mults, support, weights, sizes, errors


def local_spectrum(dec: SpectralDecomposition, u: int, tol: ToleranceConfig = DEFAULT_TOL) -> LocalSpectrum:
    """Local multiplicities of vertex u, clamped, with their support.

    The raw multiplicity of eigenvalue i is the (u, u) entry of idempotent
    i; entries below ``eps_mult`` in magnitude become exactly zero, except
    the spectral radius's. The one-row case of :func:`_local_measures`.
    """
    if not 0 <= u < dec.n:
        raise ValueError(f"vertex {u} out of range")
    measures = _local_measures(_SpectralStack.of(dec), np.array([0]), np.array([u]), tol)
    (mults,), (support,), _, (size,), (error,) = measures
    if error is not None:
        raise error
    return LocalSpectrum(u, dec.eigenvalues, mults, support[:size], int(size) - 1)


def adjacency_powers(g: Graph, max_power: int) -> list[np.ndarray]:
    """Exact integer matrices A^0..A^max_power in 64-bit arithmetic.

    Raises :class:`OverflowError` before any product could exceed the int64
    range, so entries are always exact. The one-graph case of
    :func:`_power_stack`.
    """
    return list(_power_stack(g.adjacency[None], max_power)[:, 0])


def _power_stack(adjacency: np.ndarray, max_power: int) -> np.ndarray:
    """:func:`adjacency_powers` of a nonempty (B, n, n) stack of 0/1 matrices,
    as one (max_power + 1, B, n, n) array: entry k is the stack of k-th powers.

    An entry of A^(k+1) is at most n times the largest entry of A^k, and an
    entry of A^k is at most n^k: the largest entry is checked before each
    product only when n^max_power passes the bound that keeps the next
    product exact.
    """
    if max_power < 0:
        raise ValueError("max_power must be non-negative")
    B, n, _ = adjacency.shape
    A = adjacency.astype(np.int64)
    powers = np.zeros((max_power + 1, B, n, n), dtype=np.int64)
    powers[0].reshape(B, n * n)[:, :: n + 1] = 1
    limit = (2**63 - 1) // max(1, n)
    guarded = n**max_power > limit
    for k in range(max_power):
        if guarded and int(powers[k].max()) > limit:
            raise OverflowError(f"64-bit walk counts would overflow at power {k + 1}")
        np.matmul(powers[k], A, out=powers[k + 1])
    return powers
