"""Pseudo-regular partitions, pseudo-distance-regularity around a vertex by
two independent characterizations, adjacent-pair walk identities, and the
classification of a graph as distance-regular, distance-biregular, or
neither.

The partition-based check (weighted neighbor averages constant on each
cell) is the verdict of record; the polynomial characterization (the
orthogonal-polynomial columns reproducing the weighted distance columns) is
a mandatory cross-check. The two must agree on every input; disagreement
raises :class:`InternalCheckError` instead of arbitrating. Classification
verdicts are re-verified against exact integer counting oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, groupby
from typing import Sequence

import numpy as np

from .graph_core import (
    Graph,
    _cache_distances,
    _distance_stack,
    _graph6_adjacency,
    _graph6_codes,
    _graph6_strings,
    _require_short_graph6,
    distances_from,
)
from .spectral import (
    DEFAULT_TOL,
    LocalSpectrum,
    SpectralDecomposition,
    ToleranceConfig,
    _SpectralStack,
    _decompose_stack,
    _local_measures,
    _power_stack,
    _row_chunks,
    adjacency_powers,
    decompose,
)
from .predistance import (
    _PredistanceBlock,
    _predistance_block,
    _run_recurrence,
)

VERDICT_DISTANCE_REGULAR = "distance_regular"
VERDICT_DISTANCE_BIREGULAR = "distance_biregular"
VERDICT_NOT_PDR = "not_pdr"

WALK_REGULAR = "walk_regular"
WALK_BIREGULAR = "walk_biregular"
WALK_NEITHER = "neither"


class InternalCheckError(RuntimeError):
    """Two characterizations that must agree disagreed: a bug, not bad input."""


@dataclass(frozen=True, eq=False)
class QuotientMatrix:
    """Weighted quotient of the adjacency over a pseudo-regular partition.

    ``entries[i, j]`` is the common value, over vertices u in cell i, of the
    Perron-weighted neighbor count into cell j (sum of neighbor Perron
    entries in cell j divided by the Perron entry of u). For a distance
    partition the matrix is tridiagonal and each row sums to the spectral
    radius. ``levels`` holds the triples of :meth:`tridiagonal`, read from
    ``entries`` when not given, or None when the matrix is not tridiagonal.
    """

    entries: np.ndarray
    levels: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self):
        if self.levels is None:
            (levels,), (banded,) = _band_levels(self.entries[None])
            if banded:
                object.__setattr__(self, "levels", tuple(map(tuple, levels.tolist())))

    def tridiagonal(self) -> tuple[tuple[float, float, float], ...]:
        """Per-level triples (down, stay, up) of a distance partition.

        Level i reads (entries[i, i-1], entries[i, i], entries[i, i+1]) with
        zeros at the ends. Raises if any off-band entry is nonzero.
        """
        if self.levels is None:
            raise ValueError("quotient matrix is not tridiagonal")
        return self.levels


def _band_levels(means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-level (down, stay, up) of a (P, m, m) stack of quotients, as a (P, m, 3)
    array with zeros at the ends, and whether each quotient is tridiagonal."""
    P, m = means.shape[:2]
    levels = np.zeros((P, m, 3))
    flat = means.reshape(P, m * m)  # entry (i, j) at i * m + j: the band is three strides of m + 1
    levels[:, 1:, 0], levels[:, :, 1], levels[:, :-1, 2] = flat[:, m :: m + 1], flat[:, :: m + 1], flat[:, 1 :: m + 1]
    level = np.arange(m)
    off_band = np.abs(level[:, None] - level) > 1
    return levels, ~(means[:, off_band] != 0).any(axis=1)


@dataclass(frozen=True)
class PartitionWitness:
    """Two vertices of one cell whose weighted counts into a target cell differ."""

    cell: int
    target: int
    vertex_a: int
    vertex_b: int
    value_a: float
    value_b: float

    @property
    def gap(self) -> float:
        return abs(self.value_a - self.value_b)


@dataclass(frozen=True, eq=False)
class PdrVertexReport:
    """Outcome of the pseudo-distance-regularity test around one vertex."""

    vertex: int
    is_pdr: bool
    via_partition: bool
    via_polynomials: bool
    extremal: bool
    eccentricity: int
    spectrum: LocalSpectrum
    quotient: QuotientMatrix | None
    witness: PartitionWitness | None

    @property
    def local_degree(self) -> int:
        return self.spectrum.local_degree


@dataclass(frozen=True)
class IntersectionArray:
    """Level-to-level counts {b_0..b_{D-1}; c_1..c_D} plus the stay counts a_0..a_D."""

    b: tuple[int, ...]
    c: tuple[int, ...]
    a: tuple[int, ...]
    part: int | None = None


@dataclass(frozen=True, eq=False)
class Classification:
    """Whole-graph verdict with supporting data.

    ``intersection_arrays`` holds one array for a distance-regular graph and
    two part-indexed arrays for a distance-biregular one. ``alpha_levels``
    lists the constant Perron value(s): one for regular graphs, one per part
    for biregular ones. ``witness`` names the first vertex that fails the
    pseudo-distance-regularity test when the verdict is not_pdr.
    """

    verdict: str
    intersection_arrays: tuple[IntersectionArray, ...] | None
    alpha_levels: tuple[float, ...] | None
    witness: int | None
    walk_regularity: str


@dataclass(frozen=True)
class Violation:
    """One failed invariant, tagged by the check that caught it."""

    check: str
    detail: str


@dataclass(frozen=True, eq=False)
class GraphCheckResult:
    """Summary of the full per-graph invariant suite."""

    graph6: str
    verdict: str | None
    all_pdr: bool
    violations: tuple[Violation, ...]


def _cell_spread(values: np.ndarray, labels: np.ndarray, cells: int | None = None) -> np.ndarray:
    """Max minus min of ``values`` along axis 0 over each cell of a label row.

    Row c of the result belongs to cell c, of ``cells`` (default: one past
    the largest label); an empty cell reads zero. One segment reduction
    over the vertices sorted by cell.
    """
    order = labels.argsort(kind="stable")
    ordered = labels[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1])).nonzero()[0]
    block = values[order]
    present = np.maximum.reduceat(block, starts)
    present -= np.minimum.reduceat(block, starts)
    del block
    spread = np.zeros((int(ordered[-1]) + 1 if cells is None else cells, *values.shape[1:]))
    spread[ordered[starts]] = present
    return spread


@dataclass(frozen=True, eq=False)
class _PartitionRows:
    """:func:`pseudo_regular_check` on a block of label rows, as arrays.

    ``passing[r]`` tells whether row r is pseudo-regular. Passing row
    ``passed[p]`` has quotient entry (i, j) in ``means[p, i, j]``, for i, j
    below its ``cells``; failing row ``failing[f]`` has its first wide pair
    in ``cell[f]`` and ``target[f]``, the weighted counts of its vertices
    into that target in ``column[f]``, and the cell's vertices marked in
    ``inside[f]``: its witness is read from them on request. Objects are
    made only on request; ``means`` is read-only, so that the quotients
    they hold can be views of it.
    """

    passing: np.ndarray
    cells: np.ndarray
    passed: np.ndarray
    means: np.ndarray
    failing: np.ndarray
    cell: np.ndarray
    target: np.ndarray
    column: np.ndarray
    inside: np.ndarray

    def __post_init__(self):
        self.means.setflags(write=False)

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_band_levels` of every passing row, read in one operation on first use."""
        return _band_levels(self.means)

    def quotients(self, rows: np.ndarray) -> list[QuotientMatrix]:
        """The quotients of the given passing rows, each array read once for all of them."""
        p = np.searchsorted(self.passed, rows)
        levels, banded = self.levels
        return [
            QuotientMatrix(entries=self.means[i, :k, :k], levels=tuple(map(tuple, triples[:k])) if ok else None)
            for i, k, ok, triples in zip(p.tolist(), self.cells[rows].tolist(), banded[p].tolist(), levels[p].tolist())
        ]

    def witnesses(self, rows: np.ndarray) -> list[PartitionWitness]:
        """The witnesses of the given failing rows, each array read once for all of them:
        the extreme vertices of the first wide pair's cell, lowest id on ties."""
        f = np.searchsorted(self.failing, rows)
        col, inside = self.column[f], self.inside[f]
        lo = np.where(inside, col, np.inf).argmin(axis=1)
        hi = np.where(inside, col, -np.inf).argmax(axis=1)
        first, last = np.minimum(lo, hi), np.maximum(lo, hi)
        pick = np.arange(len(f))
        fields = (self.cell[f], self.target[f], first, last, col[pick, first], col[pick, last])
        return [PartitionWitness(*w) for w in zip(*(a.tolist() for a in fields))]


def _partition_rows(adjacency: np.ndarray, alpha: np.ndarray, labels: np.ndarray, eps: np.ndarray) -> _PartitionRows:
    """:func:`pseudo_regular_check` on every row of a (R, n) block of label rows.

    The rows come in G runs of V = R / G, one run per graph: row r is a
    partition of the graph with boolean adjacency ``adjacency[r // V]`` and
    Perron vector ``alpha[r // V]``, checked at threshold ``eps[r]``. Every
    row is taken with the block's m cells, the most of any row, so that
    the chunks' arrays join as they are. The rows are checked a chunk of
    :func:`_row_chunks` at a time; a row's largest temporaries, its flows
    and cell indicators, hold n * m entries.
    """
    R, n = labels.shape
    V = R // len(adjacency)
    cells = labels.max(axis=1) + 1
    m = int(cells.max())
    parts = []
    for rows in _row_chunks(R, V, n * m):
        runs = slice(rows.start // V, (rows.stop - 1) // V + 1)
        parts.append(_partition_chunk(adjacency[runs], alpha[runs], labels[rows], eps[rows], m))
    passing, means, cell, target, column, inside = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return _PartitionRows(
        passing=passing,
        cells=cells,
        passed=passing.nonzero()[0],
        means=means,
        failing=(~passing).nonzero()[0],
        cell=cell,
        target=target,
        column=column,
        inside=inside,
    )


def _partition_chunk(
    adjacency: np.ndarray, alpha: np.ndarray, labels: np.ndarray, eps: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_partition_rows` on one chunk of rows, with m cells a row.

    Returns whether each row passes, the (P, m, m) means of the P passing
    rows, and the first wide pair, its column and its cell of each failing
    row, as :class:`_PartitionRows` holds them. The flows of all rows come
    from one stacked matrix product, with each graph's matrix shared by its
    run, their cell sums from one more product with the same cell
    indicators, and their spreads from one segment reduction over (row,
    cell).
    """
    R, n = labels.shape
    G = len(adjacency)
    cells = (labels[:, :, None] == np.arange(m)).astype(float).reshape(G, R // G, n, m)
    flows = (adjacency * alpha[:, None, :])[:, None] @ cells
    flows /= alpha[:, None, :, None]
    flows = flows.reshape(R, n, m)
    cells = cells.reshape(R, n, m)
    key = (labels + m * np.arange(R)[:, None]).ravel()  # (row, cell) as one label
    means = cells.transpose(0, 2, 1) @ flows  # (row, cell, target), each cell's members added in id order
    del cells
    means /= np.maximum(np.bincount(key, minlength=R * m), 1).reshape(R, m, 1)
    spread = _cell_spread(flows.reshape(R * n, m), key, R * m)
    wide = spread.reshape(R, m * m) > eps[:, None]
    del spread
    passing = ~wide.any(axis=1)

    # The first wide (cell, target) pair of each failing row, scanning cells
    # in order.
    rows = (~passing).nonzero()[0]
    cell, target = np.divmod(wide[rows].argmax(axis=1), m)
    return passing, means[passing], cell, target, flows[rows, :, target], labels[rows] == cell[:, None]


def pseudo_regular_check(
    g: Graph,
    dec: SpectralDecomposition,
    labels: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[QuotientMatrix | None, PartitionWitness | None]:
    """Test whether a partition is pseudo-regular under the Perron weights.

    ``labels[v]`` is the cell of vertex v, 0..m-1, with no cell empty; the
    distance partition around u is ``distances_from(g, u)``. For every
    vertex u of cell i and every cell j, computes the weighted neighbor
    count into j. Returns the quotient matrix when the spread over each cell
    stays within tolerance, otherwise a witness for the first (cell, target)
    pair that disagrees, scanning cells in order and picking the
    extreme-valued vertices (lowest id on ties).
    """
    labels = np.asarray(labels)
    if labels.shape != (g.n,) or not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0:
        raise ValueError("malformed partition: labels must be one non-negative integer per vertex")
    if not np.bincount(labels).all():
        raise ValueError("malformed partition: empty cell")
    eps = np.array([tol.scaled("eps_pdr", dec.spectral_radius)])
    part = _partition_rows(g.adjacency[None], dec.perron[None], labels[None, :], eps)
    row = np.zeros(1, dtype=np.int64)
    if part.passing[0]:
        return part.quotients(row)[0], None
    return None, part.witnesses(row)[0]


@dataclass(frozen=True, eq=False)
class _VertexRows:
    """Both characterizations at a block of (graph, vertex) rows, as arrays.

    Row r is vertex ``vertices[r]`` of graph ``graphs[r]`` of a stack.
    ``mults``, ``support`` and ``sizes`` are the rows' local measures, as
    :func:`~pdrkit.spectral._local_measures` builds them. ``errors[r]`` is
    the row's numerical error, or None, as :func:`_vertex_block` decides it.
    ``violations[r]`` lists the row's violations in the order
    :func:`verify_graph` reports them (empty outside it).
    """

    graphs: np.ndarray
    vertices: np.ndarray
    mults: np.ndarray
    support: np.ndarray
    sizes: np.ndarray
    ecc: np.ndarray
    extremal: np.ndarray
    via_polynomials: np.ndarray
    partition: _PartitionRows
    errors: list[Exception | None]
    violations: dict[int, list[Violation]]

    def reports(
        self, rows: slice, dec: SpectralDecomposition, violations: list[Violation] | None
    ) -> list[PdrVertexReport] | None:
        """The reports of a slice of rows, all of one graph with decomposition ``dec``.

        Without ``violations`` this is :func:`is_pdr_around` at each row in
        turn: the first row in order with a numerical error or a
        disagreement raises it. With ``violations`` each row's violations
        are appended in order, up to the first row with a numerical error,
        which ends them with a ``numerical`` violation; a graph with an
        error or a disagreement gets None.
        """
        at = np.arange(*rows.indices(len(self.vertices)))
        passing = self.partition.passing[rows]
        quotients = iter(self.partition.quotients(at[passing]))
        witnesses = iter(self.partition.witnesses(at[~passing]))
        # Each array's Python values are read once for all the rows.
        columns = (at, passing, self.vertices[rows], self.via_polynomials[rows], self.extremal[rows], self.ecc[rows])
        fields = zip(*(c.tolist() for c in (*columns, self.sizes[rows])))
        reports: list[PdrVertexReport] = []
        agree = True
        for (r, via_partition, u, via_polynomials, extremal, ecc, size), mults, support in zip(
            fields, self.mults[rows, : len(dec.eigenvalues)], self.support[rows]
        ):
            error = self.errors[r]
            if error is not None:
                if violations is None:
                    raise error
                violations.append(Violation("numerical", str(error)))
                return None
            if violations is not None:
                violations += self.violations.get(r, [])
            quotient = next(quotients) if via_partition else None
            witness = None if via_partition else next(witnesses)
            if via_partition != via_polynomials:
                if violations is None:
                    raise InternalCheckError(_disagreement(u, via_partition))
                agree = False
                continue
            reports.append(
                PdrVertexReport(
                    vertex=u,
                    is_pdr=via_partition,
                    via_partition=via_partition,
                    via_polynomials=via_partition,
                    extremal=extremal,
                    eccentricity=ecc,
                    spectrum=LocalSpectrum(u, dec.eigenvalues, mults, support[:size], size - 1),
                    quotient=quotient,
                    witness=witness,
                )
            )
        return reports if agree else None


def _disagreement(u: int, via_partition: bool) -> str:
    return f"characterizations disagree at vertex {u}: partition={via_partition} polynomials={not via_partition}"


def is_pdr_around(
    g: Graph,
    dec: SpectralDecomposition,
    u: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PdrVertexReport:
    """Decide pseudo-distance-regularity around u by both characterizations.

    (a) The distance partition around u must be pseudo-regular; (b) u must
    be extremal (eccentricity equal to local degree) and each column
    p_i(A)e_u, run from the recurrence, must reproduce the weighted distance
    column for every level. The two verdicts must agree or
    :class:`InternalCheckError` is raised. The one-vertex case of the vertex
    pass that :func:`classify` runs.
    """
    distances_from(g, u)  # validates u and connectivity
    (report,) = _vertex_pass(g, dec, tol, vertices=np.array([u]))
    return report


# verify_graphs checks max(1, _STACK_ENTRIES // n^3) graphs of order n as
# one stack: that bounds its padded idempotents, the largest per-graph
# arrays, to this many float64 entries.
_STACK_ENTRIES = 2**16


def _stack_size(n: int) -> int:
    """How many graphs of order n :func:`verify_graphs` checks at once."""
    return max(1, _STACK_ENTRIES // n**3)


def _vertex_pass(
    g: Graph,
    dec: SpectralDecomposition,
    tol: ToleranceConfig,
    violations: list[Violation] | None = None,
    vertices: np.ndarray | None = None,
) -> list[PdrVertexReport] | None:
    """Both characterizations at every vertex of one graph, or at the given ``vertices``.

    The reports of :meth:`_VertexRows.reports`: without ``violations`` as
    :func:`is_pdr_around` gives them, with ``violations`` as
    :func:`verify_graph` needs them.
    """
    vertices = np.arange(g.n) if vertices is None else vertices
    spectra = _SpectralStack.of(dec)
    rows = _vertex_block(g.adjacency[None], g.distances[None], spectra, vertices, tol, violations is not None)
    return rows.reports(slice(None), dec, violations)


def _vertex_block(
    adjacency: np.ndarray,
    distances: np.ndarray,
    spectra: _SpectralStack,
    vertices: np.ndarray,
    tol: ToleranceConfig,
    verify: bool = False,
) -> _VertexRows:
    """Both characterizations at every listed vertex of every graph of a stack.

    The stack holds B connected graphs of one order n: their boolean
    adjacency matrices, hop distances and decompositions. Row r is vertex
    ``vertices[r % V]`` of graph r // V, for V = len(vertices). The loops
    over degree, Lanczos and the recurrence on unit columns, run once over
    all rows; the partition check and the predistance contract run in row
    chunks. A row's error is that of its local multiplicities, else that of
    its predistance family, which counts at every row with ``verify`` and
    otherwise only at an extremal row, the only kind at which
    :func:`is_pdr_around` needs the family. With ``verify`` every row also
    gets its predistance contract checked and its violations listed: the
    two characterizations must agree, and where both hold the quotient
    must pass the sum rule and match the recurrence.
    """
    alpha = spectra.perron
    graphs, column = np.divmod(np.arange(len(adjacency) * len(vertices)), len(vertices))
    vertices = vertices[column]
    lam0 = spectra.eigenvalues[graphs, 0]
    alpha_u = alpha[graphs, vertices]
    mults, support, weights, sizes, local_errors = _local_measures(spectra, graphs, vertices, tol)
    block = _predistance_block(vertices, support, weights, sizes, alpha_u)

    dist = distances[graphs, vertices]
    ecc = dist.max(axis=1)
    eps = tol.scaled("eps_pdr", lam0)
    extremal = ecc == block.sizes - 1
    # The polynomial check runs at extremal rows with a family; the others
    # run from a zero constant, as zero columns, so that all rows stay one
    # rectangle.
    ran = extremal & np.array([e is None for e in block.errors])
    via_polynomials = ran
    if ran.any():
        p0 = block.vals[:, 0, 0] * ran
        gap = _polynomial_gap(adjacency, alpha, dist, vertices, p0, block.prev, block.same, block.nxt)
        via_polynomials = ran & (gap <= eps)

    violations: dict[int, list[Violation]] = {}
    if verify:
        degree = adjacency[graphs, vertices].sum(axis=1)
        violations = _contract_violations(block, lam0, alpha_u**2, degree, tol.eps_orth)
        recurrence_levels = block.level_triples() if via_polynomials.any() else None
    errors = [
        local or (family if verify or at_extremal else None)
        for local, family, at_extremal in zip(local_errors, block.errors, extremal.tolist())
    ]
    # The families' values are done with: the partition check runs without them.
    del block
    part = _partition_rows(adjacency, alpha, dist, eps)
    if verify:
        disagree = part.passing != via_polynomials
        if disagree.any():
            for r in disagree.nonzero()[0].tolist():
                disagreement = _disagreement(int(vertices[r]), bool(part.passing[r]))
                violations.setdefault(r, []).append(Violation("equivalence", disagreement))
        # Both characterizations hold: the quotient's level triples must sum to
        # the spectral radius and match the recurrence read per level.
        pdr = (part.passing & via_polynomials).nonzero()[0]
        if len(pdr):
            triples = part.levels[0][np.searchsorted(part.passed, pdr)]  # zero past each row's cells
            levels = np.arange(triples.shape[1]) < part.cells[pdr, None]
            # Bare eps_pdr, stricter than the scaled spread threshold; kept
            # unscaled so that this gate is not loosened.
            sum_res = np.where(levels, np.abs(triples.sum(axis=2) - lam0[pdr, None]), 0.0).max(axis=1)
            # A row with a polynomial verdict is extremal, so its cells are
            # its support size, and both triple arrays are zero past it.
            width = min(triples.shape[1], recurrence_levels.shape[1])
            four_res = np.abs(triples[:, :width] - recurrence_levels[pdr, :width]).max(axis=(1, 2))
            bad_sum, bad_four = sum_res > tol.eps_pdr, four_res > eps[pdr]
            if (bad_sum | bad_four).any():
                for i, r in enumerate(pdr.tolist()):
                    u, found = vertices[r], []
                    if bad_sum[i]:
                        found.append(Violation("sum_rule", f"vertex {u}: residual {sum_res[i]:.3e}"))
                    if bad_four[i]:
                        detail = f"vertex {u}: quotient vs recurrence residual {four_res[i]:.3e}"
                        found.append(Violation("fourier_match", detail))
                    if found:
                        violations.setdefault(r, []).extend(found)

    return _VertexRows(
        graphs=graphs,
        vertices=vertices,
        mults=mults,
        support=support,
        sizes=sizes,
        ecc=ecc,
        extremal=extremal,
        via_polynomials=via_polynomials,
        partition=part,
        errors=errors,
        violations=violations,
    )


def _polynomial_gap(
    adjacency: np.ndarray,
    alpha: np.ndarray,
    dist: np.ndarray,
    vertices: np.ndarray,
    p0: np.ndarray,
    prev: np.ndarray,
    same: np.ndarray,
    nxt: np.ndarray,
) -> np.ndarray:
    """Largest entry gap, over every level, between the column p_i(A)e_u and
    the Perron-weighted distance column of u at level i, for each row.

    As in :func:`_partition_rows`, the rows come in one run per graph: row
    r is vertex u = vertices[r] of the graph with adjacency
    ``adjacency[r // V]`` and Perron vector ``alpha[r // V]``, with distance
    row ``dist[r]``. The recurrence runs on all unit columns at once, one
    matrix product per graph and degree. At an extremal vertex the degrees
    0..local degree are the levels 0..eccentricity; past them a column and
    its target are both zero.
    """
    R, n = dist.shape
    G = len(adjacency)
    V = R // G
    # Row r is column r % V of its graph's (n, V) block: one product per
    # graph and degree runs the recurrence on all its unit columns.
    A = adjacency.astype(float)
    at = vertices.reshape(G, V)
    unit = np.arange(n)[:, None] == at[:, None, :]
    weighted = alpha[:, :, None] * alpha[np.arange(G)[:, None], at][:, None, :]
    dist = dist.reshape(G, V, n).transpose(0, 2, 1)
    prev, same, nxt = (c.T.reshape(-1, G, 1, V) for c in (prev, same, nxt))
    gap = np.zeros((G, n, V))
    for level, cols in enumerate(_run_recurrence(unit, p0.reshape(G, 1, V), prev, same, nxt, lambda cols: A @ cols)):
        np.maximum(gap, np.abs(cols - np.where(dist == level, weighted, 0.0)), out=gap)
    return gap.max(axis=1).ravel()


def _contract_violations(
    block: _PredistanceBlock,
    lam0: np.ndarray,
    alpha2: np.ndarray,
    degree: np.ndarray,
    eps: float,
) -> dict[int, list[Violation]]:
    """Orthogonality, normalization, closed forms, and recurrence residuals
    of every row of a predistance block, whose rows have spectral radius
    ``lam0``, squared Perron entry ``alpha2`` and degree ``degree``; row r's
    violations in that order, for the rows that have any. The (rows, k, k)
    products run in the row chunks of :func:`_row_chunks`, k * k entries a
    row."""
    vals, weights, support = block.vals, block.weights, block.support
    R, k, _ = vals.shape
    worst_orth = np.empty(R)
    norms2, res, ref = np.empty((3, R, k))
    for rows in _row_chunks(R, 1, k * k):
        v, w = vals[rows], weights[rows]
        # Chunk-sized temporaries are reused in place to bound the peak memory.
        gram = (v * w[:, None, :]) @ v.transpose(0, 2, 1)
        norms2[rows] = gram.diagonal(0, 1, 2)
        gram.reshape(-1, k * k)[:, :: k + 1] = 0.0
        scale = norms2[rows, :, None] * norms2[rows, None, :]
        np.maximum(np.sqrt(scale, out=scale), 1e-300, out=scale)
        worst_orth[rows] = np.divide(np.abs(gram, out=gram), scale, out=gram).max(axis=(1, 2))
        del gram, scale

        # x p_i = prev_i p_{i-1} + same_i p_i + next_i p_{i+1} on the support,
        # with the zero end coefficients dropping p_{-1} and p_{k}. The last
        # row is the Golub-Welsch closure: the Krylov space ends at local
        # degree + 1.
        xp = v * support[rows, None, :]
        combo = block.same[rows, :, None] * v
        combo[:, 1:] += block.prev[rows, 1:, None] * v[:, :-1]
        combo[:, :-1] += block.nxt[rows, :-1, None] * v[:, 1:]
        res[rows] = np.sqrt(np.square(np.subtract(xp, combo, out=combo), out=combo) @ w[:, :, None])[:, :, 0]
        ref[rows] = np.sqrt(np.square(xp, out=xp) @ w[:, :, None])[:, :, 0]
        del xp, combo
    bad = res > eps * np.maximum(1.0, ref)

    lam0_vals = vals[:, :, 0]
    norm_res = (np.abs(norms2 - alpha2[:, None] * lam0_vals) / np.maximum(1.0, np.abs(norms2))).max(axis=1)
    valid = np.arange(k) < block.sizes[:, None]
    norm_bad = (norm_res > eps) | ((lam0_vals <= 0) & valid).any(axis=1)

    # p_0 is constant and p_1 = (p_0 / next_0) (x - same_0).
    p0 = lam0_vals[:, 0]
    ok = np.abs(p0 - alpha2) <= eps * np.maximum(1.0, alpha2)
    linear = block.sizes > 1
    expected = np.divide(alpha2 * lam0, degree, out=np.zeros(R), where=linear & (degree > 0))
    lead = np.divide(p0, block.nxt[:, 0], out=np.zeros(R), where=linear & (block.nxt[:, 0] != 0))
    bound = eps * np.maximum(1.0, expected)
    ok &= ~linear | ((np.abs(lead * block.same[:, 0]) <= bound) & (np.abs(lead - expected) <= bound))

    out: dict[int, list[Violation]] = {}
    orth_bad, recurrence_bad = worst_orth > eps, bad.any(axis=1)
    if not (orth_bad | norm_bad | ~ok | recurrence_bad).any():
        return out
    vertex = block.vertices.tolist()

    def add(b: int, check: str, detail: str) -> None:
        out.setdefault(b, []).append(Violation(check, f"vertex {vertex[b]}{detail}"))

    for b in orth_bad.nonzero()[0].tolist():
        add(b, "pd_orthogonality", f": relative residual {worst_orth[b]:.3e}")
    for b in norm_bad.nonzero()[0].tolist():
        add(b, "pd_normalization", f": residual {norm_res[b]:.3e}")
    for b in (~ok).nonzero()[0].tolist():
        add(b, "pd_closed_forms", ": constant or degree-one polynomial off")
    for b in recurrence_bad.nonzero()[0].tolist():
        i = int(np.argmax(bad[b]))
        add(b, "pd_recurrence", f", index {i}: residual {res[b, i]:.3e}")
    return out


def _closed_walk_table(eigenvalues: np.ndarray, mults: np.ndarray, max_length: int) -> np.ndarray:
    """Spectral closed-walk counts: entry (..., u, L) is sum_i m_u(lambda_i) lambda_i^L, L <= max_length.

    ``eigenvalues`` is (..., k) and ``mults`` the matching (..., n, k) local multiplicities.
    """
    return mults @ eigenvalues[..., :, None] ** np.arange(max_length + 1)


def walk_formula_check(
    g: Graph,
    dec: SpectralDecomposition,
    u: int | np.ndarray,
    v: int | np.ndarray,
    length: int,
    powers: list[np.ndarray] | np.ndarray | None = None,
    *,
    table: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the adjacent-pair walk-count formulas at u and v.

    For adjacent u, v around both of which the graph is pseudo-distance-
    regular (the caller ensures this), the number of walks of the given
    length between them equals
    (perron[v]/perron[u]) / lambda0 * sum_i m_u(lambda_i) lambda_i^(length+1),
    and symmetrically with u and v swapped. Returns both absolute residuals
    against the exact integer walk count, elementwise when u and v are
    index arrays. ``powers`` may carry precomputed integer adjacency powers
    and ``table`` the spectral closed-walk table up to length + 1. Raises
    ValueError on a vertex out of range or a pair that is not adjacent.
    """
    u, v = np.broadcast_arrays(u, v)
    ends = np.stack((u, v))
    if ends.size and not 0 <= ends.min() <= ends.max() < g.n:
        bad = ends[(ends < 0) | (ends >= g.n)]
        raise ValueError(f"vertex {bad[0]} out of range for a graph on {g.n} vertices")
    apart = ~g.adjacency[u, v]
    if apart.any():
        k = int(np.argmax(apart))
        raise ValueError(f"vertices {u.flat[k]} and {v.flat[k]} are not adjacent")
    if powers is None:
        powers = adjacency_powers(g, length)
    if table is None:
        table = _closed_walk_table(dec.eigenvalues, dec.local_multiplicity_matrix(), length + 1)
    truth = powers[length][u, v].astype(float)
    spectral = table[:, length + 1]
    alpha = dec.perron
    lam0 = dec.spectral_radius
    res_u = np.abs(truth - (alpha[v] / alpha[u]) / lam0 * spectral[u])
    res_v = np.abs(truth - (alpha[u] / alpha[v]) / lam0 * spectral[v])
    return res_u, res_v


def _level_counts(g: Graph, vertices: np.ndarray) -> np.ndarray:
    """Exact (down, stay, up) neighbor counts in the distance partition around each of ``vertices``.

    Entry (r, v) counts the neighbors of v one level down, on v's level,
    and one level up, around vertices[r]. Each row's neighbor counts into
    every level come from one product of the adjacency with the row's level
    one-hot, a chunk of :func:`_row_chunks` at a time; the float64 sums of
    at most n ones are exact.
    """
    out = []
    adjacency = g.adjacency_matrix()
    levels = np.arange(-1, int(g.distances[vertices].max()) + 2)  # -1 .. eccentricity + 1
    for rows in _row_chunks(len(vertices), len(vertices), g.n * len(levels)):
        dist = g.distances[vertices[rows]]
        onehot = (dist[:, :, None] == levels).astype(float)
        into = adjacency @ onehot  # (rows, v, level + 1): neighbors of v on each level
        out.append(np.take_along_axis(into, dist[:, :, None] + np.arange(3), axis=2))
    return np.concatenate(out).astype(np.int64)


def _intersection_arrays(g: Graph, vertices: np.ndarray) -> tuple[list[IntersectionArray | None], np.ndarray]:
    """:func:`combinatorial_intersection_array` at each of ``vertices``, from one
    batched count, and that count as one array: entry (r, i) holds the (down,
    stay, up) counts of level i around ``vertices[r]`` (of the level's lowest
    vertex where they differ), zero past its eccentricity."""
    counts = _level_counts(g, vertices)
    dist = g.distances[vertices]
    ecc = dist.max(axis=1)
    # Each level's counts are those of its lowest vertex; the array exists
    # when every vertex of the level has them.
    lowest = np.argmax(dist[:, None, :] == np.arange(int(ecc.max()) + 1)[:, None], axis=2)
    levels = np.take_along_axis(counts, lowest[:, :, None], axis=1)
    levels[np.arange(levels.shape[1]) > ecc[:, None]] = 0
    regular = (np.take_along_axis(levels, dist[:, :, None], axis=1) == counts).all(axis=(1, 2))
    arrays: list[IntersectionArray | None] = []
    for ok, e, counted in zip(regular.tolist(), ecc.tolist(), levels.tolist()):
        if not ok:
            arrays.append(None)
            continue
        down, stay, up = zip(*counted[: e + 1])
        arrays.append(IntersectionArray(b=up[:-1], c=down[1:], a=stay, part=None))
    return arrays, levels


def combinatorial_intersection_array(g: Graph, u: int) -> IntersectionArray | None:
    """Exact integer intersection array around u, or None when irregular.

    Counts, for every vertex of each distance level, its neighbors one
    level down, on the level, and one level up; returns the array only when
    the three counts are constant on every level. The one-vertex case of
    the batched count that :func:`classify` makes.
    """
    distances_from(g, u)  # validates u and connectivity
    return _intersection_arrays(g, np.array([u]))[0][0]


def walk_regularity(g: Graph, dec: SpectralDecomposition, tol: ToleranceConfig = DEFAULT_TOL) -> str:
    """Compare local spectra across vertices.

    ``walk_regular`` when every vertex has the same local multiplicities,
    ``walk_biregular`` when the graph is bipartite and they are constant on
    each part, ``neither`` otherwise.
    """
    mults = dec.local_multiplicity_matrix()

    def constant_on(labels: np.ndarray) -> bool:
        return float(np.max(_cell_spread(mults, labels))) <= tol.eps_mult

    if constant_on(np.zeros(g.n, dtype=np.int64)):
        return WALK_REGULAR
    bp = g.bipartition
    if bp is not None and constant_on(bp.side):
        return WALK_BIREGULAR
    return WALK_NEITHER


def classify(
    g: Graph,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    dec: SpectralDecomposition | None = None,
    reports: Sequence[PdrVertexReport] | None = None,
) -> Classification:
    """Classify a connected graph via per-vertex pseudo-distance-regularity.

    Any vertex failing the test yields ``not_pdr`` with the lowest failing
    vertex as witness. When every vertex passes, the graph must be
    distance-regular or distance-biregular, which differ only in their P
    parts: the whole vertex set when the graph is regular (P = 1), else the
    two sides of a biregular bipartition (P = 2). Each part must have one
    exact integer intersection array, the walk label must be
    ``walk_regular`` for one part and ``walk_biregular`` for two, and each
    part's Perron entries must be constant at the closed-form level
    sqrt(n / (P * n_p)), for a part of n_p vertices. Every vertex's
    pseudo-intersection numbers must then be the Perron-ratio transform of
    its integer array, read with those part levels. Violations of those
    guarantees are internal errors, not verdicts.
    """
    if dec is None:
        dec = decompose(g, tol)
    if reports is None:
        reports = _vertex_pass(g, dec, tol)
    wreg = walk_regularity(g, dec, tol)

    failing = [r.vertex for r in reports if not r.is_pdr]
    if failing:
        return Classification(
            verdict=VERDICT_NOT_PDR,
            intersection_arrays=None,
            alpha_levels=None,
            witness=min(failing),
            walk_regularity=wreg,
        )

    degrees = g.degrees
    side = np.zeros(g.n, dtype=np.int64)
    if degrees.min() != degrees.max():
        bp = g.bipartition
        if bp is None or not bp.biregular:
            raise InternalCheckError("all-PDR non-regular graph must be bipartite biregular")
        side = bp.side
    P = int(side.max()) + 1
    verdict, walk = ((VERDICT_DISTANCE_REGULAR, WALK_REGULAR), (VERDICT_DISTANCE_BIREGULAR, WALK_BIREGULAR))[P - 1]
    arrays, counts = _intersection_arrays(g, np.arange(g.n))
    members = [np.flatnonzero(side == p) for p in range(P)]
    part_arrays = []
    for p, part in enumerate(members):
        found = {arrays[v] for v in part}
        if None in found or len(found) != 1:
            raise InternalCheckError(
                f"all-PDR graph failed the integer distance-regularity oracle: unequal arrays on part {p}"
            )
        part_arrays.append(replace(found.pop(), part=None if P == 1 else p))
    if wreg != walk:
        raise InternalCheckError(f"{verdict.replace('_', '-')} graph is not {walk.replace('_', '-')}")
    # The Perron levels use eps_alpha unscaled: the Perron vector has squared
    # norm n whatever the spectral radius, so its entries do not grow with it.
    # On a biregular graph n_p * delta_p = n_q * delta_q, so the closed form
    # is sqrt((delta_p + delta_q) / (2 delta_q)).
    levels = []
    for p, part in enumerate(members):
        alpha = dec.perron[part]
        if float(alpha.max() - alpha.min()) > tol.eps_alpha:
            raise InternalCheckError(f"Perron vector is not constant on part {p}")
        level, expected = float(alpha.mean()), float(np.sqrt(g.n / (P * len(part))))
        if abs(level - expected) > tol.eps_alpha:
            raise InternalCheckError(
                f"Perron level {level} on part {p} of {len(part)} vertices deviates from its closed form {expected}"
            )
        levels.append(level)

    vertices = np.array([r.vertex for r in reports])
    triples = [r.quotient.tridiagonal() for r in reports]
    res = _transform_residuals(np.array(levels), side[vertices], triples, counts[vertices])
    wide = res.max(axis=(1, 2)) > tol.scaled("eps_pdr", dec.spectral_radius)
    if wide.any():
        raise InternalCheckError(
            f"pseudo-intersection numbers at vertex {vertices[np.argmax(wide)]} disagree with the "
            "Perron-ratio transform of the integer oracle"
        )
    return Classification(
        verdict=verdict,
        intersection_arrays=tuple(part_arrays),
        alpha_levels=tuple(levels),
        witness=None,
        walk_regularity=wreg,
    )


def _transform_residuals(
    levels: np.ndarray,
    sides: np.ndarray,
    triples: Sequence[Sequence[tuple[float, float, float]]],
    counts: np.ndarray,
) -> np.ndarray:
    """Residuals between pseudo numbers and transformed integer counts, one operation for every vertex.

    Row r belongs to a vertex on part ``sides[r]`` of the P = len(levels)
    parts, with its quotient's level ``triples[r]`` and integer (down,
    stay, up) counts per level ``counts[r]``, zero past its eccentricity.
    Level i around the vertex lies on part (sides[r] + i) mod P, whose
    constant Perron entry is ``levels`` of that part. Entry (r, i) holds the
    (down, stay, up) residuals at level i; boundary terms, and levels past
    the vertex's eccentricity, are zero.
    """
    R, width = len(counts), counts.shape[1] + 1  # one zero level past the deepest
    pseudo, exact = np.zeros((2, R, width, 3))
    # Every report's triples in one assignment: entry j of row r is level j.
    sizes = np.fromiter(map(len, triples), dtype=np.int64, count=R)
    row = np.repeat(np.arange(R), sizes)
    numbers = np.fromiter(chain.from_iterable(chain.from_iterable(triples)), dtype=float, count=3 * len(row))
    pseudo[row, np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = numbers.reshape(-1, 3)
    exact[:, :-1] = counts
    level_alpha = levels[(sides[:, None] + np.arange(width)) % len(levels)]
    res = np.zeros((R, width, 3))
    res[:, :, 1] = np.abs(pseudo[:, :, 1] - exact[:, :, 1])
    res[:, 1:, 0] = np.abs(pseudo[:, 1:, 0] - level_alpha[:, :-1] / level_alpha[:, 1:] * exact[:, 1:, 0])
    res[:, :-1, 2] = np.abs(pseudo[:, :-1, 2] - level_alpha[:, 1:] / level_alpha[:, :-1] * exact[:, :-1, 2])
    return res


# ---------------------------------------------------------------------------
# whole-graph invariant suite

_WALK_CHECK_MAX_LENGTH = 6


def verify_graph(g: Graph, tol: ToleranceConfig = DEFAULT_TOL) -> GraphCheckResult:
    """Run the full invariant suite on one connected graph.

    Bundles the spectral identities, the predistance-polynomial contract,
    both pseudo-distance-regularity characterizations, the classification
    with its integer oracles, and the adjacent-pair walk identities. Returns
    every failed check tagged by name; an empty tuple means the graph
    passed everything. A disconnected graph or a numerical failure is a
    tagged violation too, so one bad graph never aborts a corpus run. Past
    short graph6 (n > 62) it raises :class:`UnsupportedSizeError`. The
    one-graph case of :func:`verify_graphs`.
    """
    return verify_graphs([g], tol)[0]


def verify_graphs(graphs: Sequence[Graph], tol: ToleranceConfig = DEFAULT_TOL) -> list[GraphCheckResult]:
    """:func:`verify_graph` on every graph, in input order.

    Consecutive graphs of one order n are checked together, in stacks of at
    most max(1, 2^16 // n^3) graphs: each stage is one set of array
    operations over a stack, and the rows of the vertex pass are its
    (graph, vertex) pairs. A graph with a violation or a numerical error at
    a vertex leaves the stack for its rows' violations, and only a graph
    that passes the test at every vertex goes on to :func:`classify` and
    the walk formulas. Raises :class:`UnsupportedSizeError` past short
    graph6 (n > 62), before any other work.
    """
    for n in {g.n for g in graphs}:
        _require_short_graph6(n)
    results: list[GraphCheckResult] = []
    for n, run in groupby(graphs, key=lambda g: g.n):
        run = list(run)
        size = _stack_size(n)
        for lo in range(0, len(run), size):
            results += _verify_stack(np.array([g.adjacency for g in run[lo : lo + size]]), tol)
    return results


def _verify_stack(adjacency: np.ndarray, tol: ToleranceConfig) -> list[GraphCheckResult]:
    """:func:`verify_graphs` on a nonempty (B, n, n) boolean adjacency stack,
    building a :class:`Graph` only for a graph that goes on to :func:`classify`."""
    codes = _graph6_codes(adjacency)
    names = _graph6_strings(codes)
    changed = (_graph6_adjacency(codes, adjacency.shape[1]) != adjacency).any(axis=(1, 2)).tolist()
    found: list[list[Violation]] = [
        [Violation("round_trip", "serialize/parse round trip changed the graph")] if bad else [] for bad in changed
    ]
    distances = _distance_stack(adjacency)
    A = adjacency.astype(float)
    spectra = _decompose_stack(A, tol)
    results: list[GraphCheckResult | None] = [None] * len(adjacency)
    for b, (disconnected, error) in enumerate(zip((distances[:, 0].min(axis=1) < 0).tolist(), spectra.errors)):
        if disconnected:
            error = f"graph is disconnected: vertex {distances[b, 0].argmin()} is unreachable from 0"
            results[b] = GraphCheckResult(names[b], None, False, (*found[b], Violation("connectivity", error)))
        elif error is not None:
            results[b] = GraphCheckResult(names[b], None, False, (*found[b], Violation("decompose", str(error))))
    good = np.array([b for b, r in enumerate(results) if r is None], dtype=np.int64)
    if not len(good):
        return results
    if len(good) < len(adjacency):
        adjacency, A, distances, spectra = adjacency[good], A[good], distances[good], spectra.take(good)
    powers, table = _spectral_identities(A, spectra, tol, [found[b] for b in good.tolist()])

    # The vertex pass over every (graph, vertex) row. A graph leaves the
    # stack for its rows' violations when a row of it has a violation or an
    # error, and for classify and the walk formulas when every row passes;
    # any other graph fails a vertex cleanly and is not_pdr as it stands.
    n = adjacency.shape[1]
    rows = _vertex_block(adjacency, distances, spectra, np.arange(n), tol, verify=True)
    failing = ~rows.partition.passing.reshape(len(good), n).all(axis=1)
    flagged = [*rows.violations, *(r for r, error in enumerate(rows.errors) if error is not None)]
    leaving = ~failing
    if flagged:
        leaving[rows.graphs[flagged]] = True
    for j, (b, leaves) in enumerate(zip(good.tolist(), leaving.tolist())):
        verdict, all_pdr = VERDICT_NOT_PDR, False
        if leaves:
            dec = spectra.decomposition(j)
            reports = rows.reports(slice(j * n, (j + 1) * n), dec, found[b])
            if reports is None:
                verdict = None
            elif not failing[j]:
                # Every vertex passed: classify checks the theorem's outcome
                # against its integer oracles, and then come the adjacent-pair
                # walk formulas, all edges per length, reported edge by edge.
                g, verdict, all_pdr = Graph.from_adjacency(adjacency[j]), None, True
                _cache_distances(g, distances[j])
                try:
                    verdict = classify(g, tol, dec=dec, reports=reports).verdict
                except InternalCheckError as exc:
                    found[b].append(Violation("classification_internal", str(exc)))
                else:
                    us, vs = np.nonzero(np.triu(g.adjacency, 1))
                    walks = powers[:, j]
                    lengths = range(_WALK_CHECK_MAX_LENGTH + 1)
                    worst = np.transpose(
                        [np.maximum(*walk_formula_check(g, dec, us, vs, L, walks, table=table[j])) for L in lengths]
                    )
                    bounds = [tol.scaled("eps_walk", dec.spectral_radius, L) for L in lengths]
                    for e, length in np.argwhere(worst > bounds):
                        detail = f"edge ({us[e]}, {vs[e]}), length {length}: residual {worst[e, length]:.3e}"
                        found[b].append(Violation("walk_formula", detail))
        results[b] = GraphCheckResult(names[b], verdict, all_pdr, tuple(found[b]))
    return results


def _spectral_identities(
    adjacency: np.ndarray, spectra: _SpectralStack, tol: ToleranceConfig, found: list[list[Violation]]
) -> tuple[np.ndarray, np.ndarray]:
    """The whole-graph identities of every graph of a stack of 0/1 float
    adjacency matrices; graph j's violations go to ``found[j]``.

    Returns the exact adjacency powers up to the walk-check length, as the
    stack of :func:`~pdrkit.spectral._power_stack`, and the spectral
    closed-walk table one length further, for the adjacent-pair walk
    formulas.
    """
    B, n, _ = adjacency.shape
    lam0 = spectra.eigenvalues[:, 0]
    alpha = spectra.perron
    # Idempotent algebra, first: its temporaries are the largest arrays of
    # the check, and each is reduced in place.
    E = spectra.idempotents
    square = E @ E
    square -= E
    idem_res = np.abs(square, out=square).max(axis=(1, 2, 3))
    del square
    eigen = adjacency[:, None] @ E
    eigen -= spectra.eigenvalues[:, :, None, None] * E
    np.maximum(idem_res, np.abs(eigen, out=eigen).max(axis=(1, 2, 3)), out=idem_res)
    del eigen
    total = E.sum(axis=1)
    total.reshape(B, n * n)[:, :: n + 1] -= 1.0  # the idempotents sum to the identity
    np.maximum(idem_res, np.abs(total, out=total).max(axis=(1, 2)), out=idem_res)
    # Local multiplicities of one eigenvalue sum to its global multiplicity.
    trace_res = np.abs(E.trace(axis1=2, axis2=3) - spectra.multiplicities).max(axis=1)
    # The Perron-weighted average degree is the spectral radius at every vertex.
    wdeg_res = np.abs((adjacency @ alpha[:, :, None])[:, :, 0] / alpha - lam0[:, None]).max(axis=1)

    # Spectral walk identity on the diagonal, exact integer side vs spectral side.
    # The adjacent-pair walk formulas read the table one length further.
    powers = _power_stack(adjacency, _WALK_CHECK_MAX_LENGTH)
    table = _closed_walk_table(spectra.eigenvalues, spectra.local_multiplicities(), _WALK_CHECK_MAX_LENGTH + 1)
    lengths = np.arange(_WALK_CHECK_MAX_LENGTH + 1)
    closed = powers.diagonal(0, 2, 3).transpose(1, 2, 0)  # (graph, vertex, length)
    worst = np.abs(closed - table[:, :, :-1]).max(axis=1)
    bounds = tol.scaled("eps_walk", lam0[:, None], lengths)
    walk_bad = worst > bounds
    bad = walk_bad.any(axis=1) | (trace_res > n * tol.eps_mult) | (wdeg_res > tol.eps_num) | (idem_res > tol.eps_num)
    if bad.any():
        for j in bad.nonzero()[0].tolist():
            for L in walk_bad[j].nonzero()[0].tolist():
                detail = f"length {L}: residual {worst[j, L]:.3e} > {bounds[j, L]:.3e}"
                found[j].append(Violation("closed_walk_identity", detail))
            if trace_res[j] > n * tol.eps_mult:
                found[j].append(Violation("multiplicity_sum", f"residual {trace_res[j]:.3e}"))
            if wdeg_res[j] > tol.eps_num:
                found[j].append(Violation("weighted_degree", f"residual {wdeg_res[j]:.3e}"))
            if idem_res[j] > tol.eps_num:
                found[j].append(Violation("idempotents", f"residual {idem_res[j]:.3e}"))
    return powers, table
