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

# _decompose_stack assembles idempotents in blocks of at most this many
# float64 entries, so that its temporaries stay small beside the result.
_STACK_BLOCK_ENTRIES = 2**11


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
        """The one-graph stack of a decomposition."""
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
        return np.einsum("bkuu->buk", self.idempotents)


def _group_stack(evals: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, list[GroupingAmbiguityError | None]]:
    """Group every row of a (B, n) stack of decreasing eigenvalue lists.

    Row b splits where a gap exceeds ``eps[b]``; entry (b, i) of the result
    is the group of eigenvalue i. ``errors[b]`` is set when a gap of row b
    lies within a factor 10 of ``eps[b]`` (the first such gap is named) or,
    failing that, when a group's accumulated spread exceeds ``eps[b]`` (the
    first such group is named).
    """
    B, n = evals.shape
    gaps = evals[:, :-1] - evals[:, 1:]
    e = eps[:, None]
    split = gaps > e
    groups = np.zeros((B, n), dtype=np.int64)
    np.cumsum(split, axis=1, out=groups[:, 1:])
    # Each group's first and last members, in order: the spread is their difference.
    first, last = np.ones((2, B, n), dtype=bool)
    first[:, 1:], last[:, :-1] = split, split
    spread = evals[first] - evals[last]
    owner = np.nonzero(first)[0]
    wide = spread > eps[owner]
    ambiguous = (e / 10 < gaps) & (gaps < e * 10)
    errors: list[GroupingAmbiguityError | None] = [None] * B
    for i in np.flatnonzero(wide)[::-1].tolist():  # the first wide group of a row is set last
        errors[owner[i]] = GroupingAmbiguityError(
            f"within-group spread {float(spread[i]):.3e} exceeds the grouping threshold {float(eps[owner[i]]):.3e}"
        )
    for b in np.flatnonzero(ambiguous.any(axis=1)).tolist():
        errors[b] = GroupingAmbiguityError(
            f"eigenvalue gap {float(gaps[b, np.argmax(ambiguous[b])]):.3e} "
            f"is within a factor 10 of the grouping threshold {float(eps[b]):.3e}"
        )
    return groups, errors


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
    vecs = vecs[:, :, ::-1]
    eps = tol.scaled("eps_group", evals[:, 0])
    groups, group_errors = _group_stack(evals, eps)
    sizes = groups[:, -1] + 1
    k = int(sizes.max())

    # Group g of graph b spans eigenvalues starts[b, g] .. starts[b, g] + counts[b, g] - 1.
    flat = (groups + k * np.arange(B)[:, None]).ravel()
    counts = np.bincount(flat, minlength=B * k).reshape(B, k)
    present = counts > 0
    starts = np.zeros((B, k), dtype=np.int64)
    starts[present] = np.flatnonzero(np.diff(flat, prepend=-1)) % n

    # Groups of one size are handled together, a block at a time: one
    # stacked mean and one stacked product per block.
    eigenvalues = np.zeros((B, k))
    idempotents = np.zeros((B, k, n, n))
    graph, group = np.nonzero(present)
    size = counts[graph, group]
    block = max(1, _STACK_BLOCK_ENTRIES // n**2)
    for m in np.flatnonzero(np.bincount(size)).tolist():  # the group sizes present, in order
        pick = np.flatnonzero(size == m)
        for lo in range(0, len(pick), block):
            b, g = graph[pick[lo : lo + block]], group[pick[lo : lo + block]]
            members = starts[b, g][:, None] + np.arange(m)
            eigenvalues[b, g] = np.mean(evals[b[:, None], members], axis=1)
            V = vecs[b[:, None, None], np.arange(n)[:, None], members[:, None, :]]
            E = V @ V.transpose(0, 2, 1)
            del V
            symmetric = E + E.transpose(0, 2, 1)  # kill asymmetric rounding
            del E
            symmetric /= 2
            idempotents[b, g] = symmetric
    eigenvalues[np.abs(eigenvalues) < eps[:, None]] = 0.0  # same clamp idea as local multiplicities
    perron = vecs[:, :, 0] * np.sqrt(n)
    perron[perron[:, 0] < 0] *= -1
    found: list[NumericalError | None] = [None] * B
    for b in np.flatnonzero((counts[:, 0] != 1) | ~(perron > 0).all(axis=1)).tolist():
        found[b] = NumericalError(
            f"largest eigenvalue grouped with multiplicity {counts[b, 0]}; "
            "connected graphs have a simple spectral radius"
        ) if counts[b, 0] != 1 else NumericalError("Perron vector is not entrywise positive")
    # A failed eigensolver comes first, then an ambiguous grouping.
    errors = [e or g or f for e, g, f in zip(errors, group_errors, found)]
    return _SpectralStack(eigenvalues, counts, idempotents, perron, sizes, errors)


def decompose(g: Graph, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of the adjacency matrix of a connected graph.

    Groups numerically equal eigenvalues, assembles one symmetric idempotent
    per group from eigenvector outer products, and returns the Perron vector
    scaled positive with squared norm n. The one-graph case of
    :func:`_decompose_stack`.
    """
    distances_from(g, 0)  # raises ConnectivityError on disconnected input
    return _decompose_stack(g.adjacency_matrix()[None], tol).decomposition(0)


def _clamped_local_mults(
    spectra: _SpectralStack, graphs: np.ndarray, vertices: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, list[NumericalError | None]]:
    """Local multiplicities of a block of (graph, vertex) rows, one read-only row each.

    Row r holds the (u, u) entries of graph ``graphs[r]``'s idempotents for
    u = vertices[r], padded with zeros as the stack is, with entries below
    ``eps_mult`` in magnitude set to exactly zero. ``errors[r]`` is the
    error for a row left with a negative entry, else None.
    """
    mults = spectra.idempotents[graphs, :, vertices, vertices]
    mults[np.abs(mults) < tol.eps_mult] = 0.0
    mults.setflags(write=False)
    errors: list[NumericalError | None] = [None] * len(vertices)
    for r in np.flatnonzero((mults < 0).any(axis=1)).tolist():
        errors[r] = NumericalError(f"negative local multiplicity beyond clamp at vertex {vertices[r]}")
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
    (mults,), (error,) = _clamped_local_mults(_SpectralStack.of(dec), np.zeros(1, dtype=np.int64), np.array([u]), tol)
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
    range, so entries are always exact. The one-graph case of
    :func:`_power_stack`.
    """
    return [p[0] for p in _power_stack(g.adjacency[None], max_power)]


def _power_stack(adjacency: np.ndarray, max_power: int) -> list[np.ndarray]:
    """:func:`adjacency_powers` of a nonempty (B, n, n) stack of 0/1 matrices: entry k is the stack of k-th powers."""
    if max_power < 0:
        raise ValueError("max_power must be non-negative")
    B, n, _ = adjacency.shape
    powers = [np.repeat(np.eye(n, dtype=np.int64)[None], B, axis=0)]
    A = adjacency.astype(np.int64)
    limit = (2**63 - 1) // max(1, n)
    for k in range(max_power):
        prev = powers[-1]
        if int(prev.max()) > limit:
            raise OverflowError(f"64-bit walk counts would overflow at power {k + 1}")
        powers.append(prev @ A)
    return powers


def integer_walk_count(g: Graph, u: int, v: int, length: int) -> int:
    """Exact number of u-v walks of the given length, by integer matrix powering."""
    return int(adjacency_powers(g, length)[length][u, v])
