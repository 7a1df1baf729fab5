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

from dataclasses import dataclass
from functools import cached_property
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
    NumericalError,
    SpectralDecomposition,
    ToleranceConfig,
    _SpectralStack,
    _clamped_local_mults,
    _decompose_stack,
    _local_spectrum,
    _power_stack,
    adjacency_powers,
    decompose,
)
from .predistance import PredistanceSystem, _PredistanceBlock, _predistance_block, _run_recurrence

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
    radius.
    """

    entries: np.ndarray

    def tridiagonal(self) -> tuple[tuple[float, float, float], ...]:
        """Per-level triples (down, stay, up) of a distance partition.

        Level i reads (entries[i, i-1], entries[i, i], entries[i, i+1]) with
        zeros at the ends. Raises if any off-band entry is nonzero. The
        triples are computed on the first call and kept.
        """
        return self._triples

    @cached_property
    def _triples(self) -> tuple[tuple[float, float, float], ...]:
        e = self.entries
        if np.any(np.triu(e, 2)) or np.any(np.tril(e, -2)):
            raise ValueError("quotient matrix is not tridiagonal")
        down, up = [0.0, *np.diagonal(e, -1).tolist()], [*np.diagonal(e, 1).tolist(), 0.0]
        return tuple(zip(down, np.diagonal(e).tolist(), up))


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


def weighted_distance_column(
    g: Graph,
    dec: SpectralDecomposition,
    u: int,
    level: int,
) -> np.ndarray:
    """Column u of the Perron-weighted distance-``level`` matrix.

    Entry v is perron[u] * perron[v] when dist(u, v) == level, else 0.
    """
    dist = distances_from(g, u)
    ecc = int(dist.max())
    if not 0 <= level <= ecc:
        raise ValueError(f"level {level} out of range for eccentricity {ecc}")
    return np.where(dist == level, dec.perron * dec.perron[u], 0.0)


def _cell_spread(values: np.ndarray, labels: np.ndarray, cells: int | None = None) -> np.ndarray:
    """Max minus min of ``values`` along axis 0 over each cell of a label row.

    Row c of the result belongs to cell c, of ``cells`` (default: one past
    the largest label); an empty cell reads zero. One segment reduction
    over the vertices sorted by cell.
    """
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
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
    below its ``cells``; failing row ``failing[f]`` has its witness in entry
    f of ``witness`` (cell, target, vertex_a, vertex_b) and ``values``
    (value_a, value_b). Objects are made only on request.
    """

    passing: np.ndarray
    cells: np.ndarray
    passed: np.ndarray
    means: np.ndarray
    failing: np.ndarray
    witness: np.ndarray
    values: np.ndarray

    def quotient(self, r: int) -> QuotientMatrix:
        k = int(self.cells[r])
        entries = self.means[np.searchsorted(self.passed, r), :k, :k].copy()
        entries.setflags(write=False)
        return QuotientMatrix(entries=entries)

    def partition_witness(self, r: int) -> PartitionWitness:
        f = int(np.searchsorted(self.failing, r))
        return PartitionWitness(*self.witness[f].tolist(), *self.values[f].tolist())

    def triples(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), m, 3) per-level (down, stay, up) of passing rows, zero past their cells."""
        means = self.means[np.searchsorted(self.passed, rows)]
        m = means.shape[1]
        out = np.zeros((len(rows), m, 3))
        level = np.arange(m)
        out[:, 1:, 0] = means[:, level[1:], level[:-1]]
        out[:, :, 1] = means[:, level, level]
        out[:, :-1, 2] = means[:, level[:-1], level[1:]]
        return out


def _partition_rows(adjacency: np.ndarray, alpha: np.ndarray, labels: np.ndarray, eps: np.ndarray) -> _PartitionRows:
    """:func:`pseudo_regular_check` on every row of a (R, n) block of label rows.

    The rows come in G runs of V = R / G, one run per graph: row r is a
    partition of the graph with boolean adjacency ``adjacency[r // V]`` and
    Perron vector ``alpha[r // V]``, checked at threshold ``eps[r]``. The
    flows of all rows come from one stacked matrix product, with each
    graph's matrix shared by its run, and their spreads from one segment
    reduction over (row, cell).
    """
    R, n = labels.shape
    G = len(adjacency)
    m = int(labels.max()) + 1
    cells = (labels[:, :, None] == np.arange(m)).astype(float).reshape(G, R // G, n, m)
    flows = ((adjacency * alpha[:, None, :])[:, None] @ cells).reshape(R, n, m)
    del cells
    flows /= np.repeat(alpha, R // G, axis=0)[:, :, None]
    key = (labels + m * np.arange(R)[:, None]).ravel()  # (row, cell) as one label
    spread = _cell_spread(flows.reshape(R * n, m), key, R * m)
    wide = spread.reshape(R, m * m) > eps[:, None]
    del spread
    passing = ~wide.any(axis=1)

    # The first wide (cell, target) pair of each failing row, scanning cells
    # in order, and the cell's extreme vertices (lowest id on ties).
    rows = np.flatnonzero(~passing)
    cell, target = np.divmod(wide[rows].argmax(axis=1), m)
    col = flows[rows, :, target]
    inside = labels[rows] == cell[:, None]
    lo = np.where(inside, col, np.inf).argmin(axis=1)
    hi = np.where(inside, col, -np.inf).argmax(axis=1)
    first, last = np.minimum(lo, hi), np.maximum(lo, hi)
    pick = np.arange(len(rows))

    # Each cell's rows are added one at a time in id order, rank r of every
    # cell in one step, so each entry is bit for bit the mean over the cell's
    # members taken in order; np.add.reduceat adds in another order.
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    rank = np.empty(R * n, dtype=np.int64)
    rank[order] = np.arange(R * n) - np.searchsorted(ordered, ordered)
    rank = np.where(passing[:, None], rank.reshape(R, n), -1)
    total = np.zeros((R, m, m))
    for r in range(int(rank.max()) + 1):
        b, v = np.nonzero(rank == r)
        total[b, labels[b, v]] += flows[b, v]
    total /= np.maximum(np.bincount(key, minlength=R * m), 1).reshape(R, m, 1)
    return _PartitionRows(
        passing=passing,
        cells=labels.max(axis=1) + 1,
        passed=np.flatnonzero(passing),
        means=total[passing],
        failing=rows,
        witness=np.stack([cell, target, first, last], axis=1),
        values=np.stack([col[pick, first], col[pick, last]], axis=1),
    )


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
    if part.passing[0]:
        return part.quotient(0), None
    return None, part.partition_witness(0)


@dataclass(frozen=True, eq=False)
class _GraphStack:
    """B connected graphs of one order n, with their decompositions, as stacked arrays.

    ``adjacency`` holds the boolean adjacency matrices and ``distances``
    the hop distances.
    """

    adjacency: np.ndarray
    distances: np.ndarray
    spectra: _SpectralStack

    @classmethod
    def of(cls, g: Graph, dec: SpectralDecomposition) -> "_GraphStack":
        """The one-graph stack."""
        return cls(g.adjacency[None], g.distances[None], _SpectralStack.of(dec))

    def blocks(self):
        """The (graphs, vertices) blocks of the vertex pass, in order.

        A block's rows are every listed vertex of every listed graph, at most
        max(1, _BLOCK_ENTRIES // n^2) of them: whole graphs while a graph
        fits, else consecutive vertices of one graph.
        """
        B, n, _ = self.adjacency.shape
        size = max(1, _BLOCK_ENTRIES // n**2)
        if size >= n:
            for lo in range(0, B, size // n):
                yield np.arange(lo, min(B, lo + size // n)), np.arange(n)
        else:
            for b in range(B):
                for lo in range(0, n, size):
                    yield np.array([b]), np.arange(lo, min(n, lo + size))


@dataclass(frozen=True, eq=False)
class _VertexRows:
    """Both characterizations at a block of (graph, vertex) rows, as arrays.

    Row r is vertex ``vertices[r]`` of graph ``graphs[r]`` of a stack.
    ``mults`` holds the clamped local multiplicities, padded as the stack
    is. ``local_errors`` and ``family_errors`` hold each row's numerical
    error from its local multiplicities and from its predistance family.
    ``violations[r]`` lists the row's violations in the order
    :func:`verify_graph` reports them (empty outside it), and ``flagged[r]``
    is set when the row has a violation or an error. ``spectrum`` is the
    local spectrum of a one-row block built from a given predistance system.
    """

    graphs: np.ndarray
    vertices: np.ndarray
    mults: np.ndarray
    ecc: np.ndarray
    extremal: np.ndarray
    via_polynomials: np.ndarray
    partition: _PartitionRows
    local_errors: list[Exception | None]
    family_errors: list[Exception | None]
    violations: dict[int, list[Violation]]
    flagged: np.ndarray
    spectrum: LocalSpectrum | None = None

    def reports(
        self, rows: range, dec: SpectralDecomposition, violations: list[Violation] | None
    ) -> list[PdrVertexReport | None]:
        """The reports of the given rows, all of one graph with decomposition ``dec``.

        Without ``violations`` this is :func:`is_pdr_around` at each row in
        turn: the first row in order with a numerical error or a
        disagreement raises it. With ``violations`` each row's violations
        are appended, a disagreement gives a None report, and a numerical
        error at a row is raised after the violations of the rows before it.
        """
        reports: list[PdrVertexReport | None] = []
        k = len(dec.eigenvalues)
        for r in rows:
            u = int(self.vertices[r])
            if self.local_errors[r] is not None:
                raise self.local_errors[r]
            # Outside verify_graph a family's error counts only at an extremal
            # vertex, the only kind at which is_pdr_around needs the family.
            if self.family_errors[r] is not None and (violations is not None or self.extremal[r]):
                raise self.family_errors[r]
            via_partition = bool(self.partition.passing[r])
            if violations is not None:
                violations += self.violations.get(r, [])
            if via_partition != self.via_polynomials[r]:
                if violations is None:
                    raise InternalCheckError(_disagreement(u, via_partition))
                reports.append(None)
                continue
            reports.append(
                PdrVertexReport(
                    vertex=u,
                    is_pdr=via_partition,
                    via_partition=via_partition,
                    via_polynomials=via_partition,
                    extremal=bool(self.extremal[r]),
                    eccentricity=int(self.ecc[r]),
                    spectrum=self.spectrum or _local_spectrum(dec, u, self.mults[r, :k]),
                    quotient=self.partition.quotient(r) if via_partition else None,
                    witness=None if via_partition else self.partition.partition_witness(r),
                )
            )
        return reports


def _disagreement(u: int, via_partition: bool) -> str:
    return f"characterizations disagree at vertex {u}: partition={via_partition} polynomials={not via_partition}"


def is_pdr_around(
    g: Graph,
    dec: SpectralDecomposition,
    u: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    system: PredistanceSystem | None = None,
) -> PdrVertexReport:
    """Decide pseudo-distance-regularity around u by both characterizations.

    (a) The distance partition around u must be pseudo-regular; (b) u must
    be extremal (eccentricity equal to local degree) and each column
    p_i(A)e_u, run from the recurrence, must reproduce the weighted distance
    column for every level. The two verdicts must agree or
    :class:`InternalCheckError` is raised. ``system`` allows reuse of a
    prebuilt predistance system and its local spectrum. The one-vertex case
    of the vertex pass that :func:`classify` runs.
    """
    distances_from(g, u)  # validates u and connectivity
    one = np.zeros(1, dtype=np.int64)
    rows = _vertex_block(_GraphStack.of(g, dec), one, np.array([u]), tol, system=system)
    (report,) = rows.reports(range(1), dec, None)
    return report


# The vertex pass takes max(1, _BLOCK_ENTRIES // n^2) rows at a time, so
# that none of its arrays holds more float64 entries than this (past n = 90
# a single row does), and every n <= 6 graph is inside one block.
_BLOCK_ENTRIES = 2**13

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
) -> list[PdrVertexReport | None]:
    """Both characterizations at every vertex of one graph, a block of vertices at a time.

    The reports of :meth:`_VertexRows.reports`: without ``violations`` as
    :func:`is_pdr_around` gives them, with ``violations`` as
    :func:`verify_graph` needs them.
    """
    stack = _GraphStack.of(g, dec)
    reports: list[PdrVertexReport | None] = []
    for graphs, vertices in stack.blocks():
        rows = _vertex_block(stack, graphs, vertices, tol, violations is not None)
        reports += rows.reports(range(len(vertices)), dec, violations)
    return reports


def _vertex_block(
    stack: _GraphStack,
    graphs: np.ndarray,
    vertices: np.ndarray,
    tol: ToleranceConfig,
    verify: bool = False,
    system: PredistanceSystem | None = None,
) -> _VertexRows:
    """Both characterizations at every listed vertex of every listed graph of a stack.

    Row r is vertex ``vertices[r % V]`` of graph ``graphs[r // V]``, for
    V = len(vertices). With ``verify`` every row also gets its predistance
    contract checked and its violations listed. ``system`` stands in for the
    local spectrum and predistance family of a one-row block.
    """
    spectra = stack.spectra
    adjacency, alpha = stack.adjacency[graphs], spectra.perron[graphs]
    graphs, vertices = np.repeat(graphs, len(vertices)), np.tile(vertices, len(graphs))
    R = len(vertices)
    lam0 = spectra.eigenvalues[graphs, 0]
    alpha_u = spectra.perron[graphs, vertices]
    if system is None:
        mults, local_errors = _clamped_local_mults(spectra, graphs, vertices, tol)
        # Each row's support moved to its front, in decreasing order.
        present = mults > 0
        sizes = present.sum(axis=1)
        width = max(1, int(sizes.max()))
        order = np.argsort(~present, axis=1, kind="stable")[:, :width]
        kept = np.arange(width) < sizes[:, None]
        support = np.where(kept, spectra.eigenvalues[graphs[:, None], order], 0.0)
        weights = np.where(kept, mults[np.arange(R)[:, None], order], 0.0)
        block = _predistance_block(vertices, support, weights, sizes, lam0, alpha_u)
    else:
        mults, local_errors, block = system.spectrum.local_mults[None], [None], _PredistanceBlock.of_system(system)

    dist = stack.distances[graphs, vertices]
    ecc = dist.max(axis=1)
    eps = tol.scaled("eps_pdr", lam0)
    part = _partition_rows(adjacency, alpha, dist, eps)
    extremal = ecc == block.sizes - 1
    # The polynomial check runs at extremal rows with a family; the others
    # run as zero columns, so that every block stays one rectangle of rows.
    ran = extremal & np.array([e is None for e in block.errors])
    via_polynomials = ran.copy()
    if ran.any():
        p0 = np.where(ran, block.vals[:, 0, 0], 0.0)
        recurrence = (np.where(ran[:, None], c, 0.0) for c in (block.prev, block.same, block.nxt))
        via_polynomials &= _polynomial_gap(adjacency, alpha, dist, vertices, p0, *recurrence) <= eps
        del p0

    violations: dict[int, list[Violation]] = {}
    if verify:
        degree = stack.adjacency[graphs, vertices].sum(axis=1)
        violations = _contract_violations(block, lam0, alpha_u**2, degree, tol.eps_orth)
        for r in np.flatnonzero(part.passing != via_polynomials).tolist():
            disagreement = _disagreement(int(vertices[r]), bool(part.passing[r]))
            violations.setdefault(r, []).append(Violation("equivalence", disagreement))
        # Both characterizations hold: the quotient's level triples must sum to
        # the spectral radius and match the recurrence read per level.
        pdr = np.flatnonzero(part.passing & via_polynomials)
        if len(pdr):
            triples = part.triples(pdr)
            levels = np.arange(triples.shape[1]) < part.cells[pdr, None]
            # Bare eps_pdr, stricter than the scaled spread threshold; kept
            # unscaled so that this gate is not loosened.
            sum_res = np.where(levels, np.abs(triples.sum(axis=2) - lam0[pdr, None]), 0.0).max(axis=1)
            recurrence = block.level_triples()[pdr]
            width = max(triples.shape[1], recurrence.shape[1])
            gap = np.abs(
                np.pad(triples, [(0, 0), (0, width - triples.shape[1]), (0, 0)])
                - np.pad(recurrence, [(0, 0), (0, width - recurrence.shape[1]), (0, 0)])
            )
            four_res = np.where(np.arange(width)[:, None] < part.cells[pdr, None, None], gap, 0.0).max(axis=(1, 2))
            for i, r in enumerate(pdr.tolist()):
                u, found = vertices[r], []
                if not extremal[r]:
                    found.append(Violation("extremality", f"vertex {u} is pseudo-distance-regular but not extremal"))
                if sum_res[i] > tol.eps_pdr:
                    found.append(Violation("sum_rule", f"vertex {u}: residual {sum_res[i]:.3e}"))
                if four_res[i] > eps[r]:
                    detail = f"vertex {u}: quotient vs recurrence residual {four_res[i]:.3e}"
                    found.append(Violation("fourier_match", detail))
                if found:
                    violations.setdefault(r, []).extend(found)

    flagged = np.zeros(R, dtype=bool)
    flagged[list(violations)] = True
    flagged |= np.array([a is not None or b is not None for a, b in zip(local_errors, block.errors)])
    return _VertexRows(
        graphs=graphs,
        vertices=vertices,
        mults=mults,
        ecc=ecc,
        extremal=extremal,
        via_polynomials=via_polynomials,
        partition=part,
        local_errors=local_errors,
        family_errors=block.errors,
        violations=violations,
        flagged=flagged,
        spectrum=None if system is None else system.spectrum,
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
    adjacency = adjacency.astype(float)
    alpha = np.repeat(alpha, R // G, axis=0)
    weighted = (alpha * alpha[np.arange(R), vertices][:, None]).T
    dist = dist.T
    unit = (np.arange(n)[:, None] == vertices).astype(float)
    gap = np.zeros(R)

    def times_x(cols):
        runs = cols.reshape(n, G, R // G).transpose(1, 0, 2)
        return (adjacency @ runs).transpose(1, 0, 2).reshape(n, R)

    for level, cols in enumerate(_run_recurrence(unit, p0, prev, same, nxt, times_x)):
        gap = np.maximum(gap, np.abs(cols - np.where(dist == level, weighted, 0.0)).max(axis=0))
    return gap


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
    violations in that order, for the rows that have any."""
    vals, weights, support = block.vals, block.weights, block.support
    # Block-sized temporaries are reused in place to bound the peak memory.
    gram = (vals * weights[:, None, :]) @ vals.transpose(0, 2, 1)
    norms2 = np.diagonal(gram, axis1=1, axis2=2).copy()
    diagonal = np.arange(gram.shape[1])
    gram[:, diagonal, diagonal] = 0.0
    scale = norms2[:, :, None] * norms2[:, None, :]
    np.maximum(np.sqrt(scale, out=scale), 1e-300, out=scale)
    worst_orth = np.divide(np.abs(gram, out=gram), scale, out=gram).max(axis=(1, 2))
    del gram, scale

    lam0_vals = vals[:, :, 0]
    norm_res = (np.abs(norms2 - alpha2[:, None] * lam0_vals) / np.maximum(1.0, np.abs(norms2))).max(axis=1)
    valid = np.arange(vals.shape[1]) < block.sizes[:, None]
    norm_bad = (norm_res > eps) | ((lam0_vals <= 0) & valid).any(axis=1)

    # p_0 is constant and p_1 = (p_0 / next_0) (x - same_0).
    p0 = lam0_vals[:, 0]
    ok = np.abs(p0 - alpha2) <= eps * np.maximum(1.0, alpha2)
    linear = block.sizes > 1
    expected = np.divide(alpha2 * lam0, degree, out=np.zeros_like(alpha2), where=linear & (degree > 0))
    lead = np.divide(p0, block.nxt[:, 0], out=np.zeros_like(p0), where=linear & (block.nxt[:, 0] != 0))
    bound = eps * np.maximum(1.0, expected)
    ok &= ~linear | ((np.abs(lead * block.same[:, 0]) <= bound) & (np.abs(lead - expected) <= bound))

    # x p_i = prev_i p_{i-1} + same_i p_i + next_i p_{i+1} on the support,
    # with the zero end coefficients dropping p_{-1} and p_{k}. The last row
    # is the Golub-Welsch closure: the Krylov space ends at local degree + 1.
    xp = vals * support[:, None, :]
    combo = block.same[:, :, None] * vals
    combo[:, 1:] += block.prev[:, 1:, None] * vals[:, :-1]
    combo[:, :-1] += block.nxt[:, :-1, None] * vals[:, 1:]
    res = np.sqrt(np.square(np.subtract(xp, combo, out=combo), out=combo) @ weights[:, :, None])[:, :, 0]
    ref = np.sqrt(np.square(xp, out=xp) @ weights[:, :, None])[:, :, 0]
    del xp, combo
    bad = res > eps * np.maximum(1.0, ref)

    out: dict[int, list[Violation]] = {}
    vertex = block.vertices.tolist()

    def add(b: int, check: str, detail: str) -> None:
        out.setdefault(b, []).append(Violation(check, f"vertex {vertex[b]}{detail}"))

    for b in np.flatnonzero(worst_orth > eps).tolist():
        add(b, "pd_orthogonality", f": relative residual {worst_orth[b]:.3e}")
    for b in np.flatnonzero(norm_bad).tolist():
        add(b, "pd_normalization", f": residual {norm_res[b]:.3e}")
    for b in np.flatnonzero(~ok).tolist():
        add(b, "pd_closed_forms", ": constant or degree-one polynomial off")
    for b in np.flatnonzero(bad.any(axis=1)).tolist():
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
    powers: list[np.ndarray] | None = None,
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
    and ``table`` the spectral closed-walk table up to length + 1.
    """
    u, v = np.broadcast_arrays(u, v)
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
    and one level up, around vertices[r]. One array operation per block of
    max(1, _BLOCK_ENTRIES // (8 n^2)) vertices: numpy sums a boolean mask
    through int64 buffers as large as the mask, so the byte-sized masks
    get an eighth of the pass's entry budget.
    """
    out = []
    size = max(1, _BLOCK_ENTRIES // (8 * g.n**2))
    for lo in range(0, len(vertices), size):
        dist = g.distances[vertices[lo : lo + size]]
        level, other = dist[:, :, None], dist[:, None, :]  # of v, and of its possible neighbor w
        out.append(np.stack([(g.adjacency & (other == level + s)).sum(axis=2) for s in (-1, 0, 1)], axis=2))
    return np.concatenate(out)


def _intersection_arrays(g: Graph, vertices: np.ndarray) -> list[IntersectionArray | None]:
    """:func:`combinatorial_intersection_array` at each of ``vertices``, from one batched count."""
    counts = _level_counts(g, vertices)
    dist = g.distances[vertices]
    ecc = dist.max(axis=1).tolist()
    # Each level's counts are those of its lowest vertex; the array exists
    # when every vertex of the level has them.
    lowest = np.argmax(dist[:, None, :] == np.arange(max(ecc) + 1)[:, None], axis=2)
    levels = np.take_along_axis(counts, lowest[:, :, None], axis=1)
    regular = (np.take_along_axis(levels, dist[:, :, None], axis=1) == counts).all(axis=(1, 2))
    arrays: list[IntersectionArray | None] = []
    for r, ok in enumerate(regular.tolist()):
        if not ok:
            arrays.append(None)
            continue
        down, stay, up = map(tuple, levels[r, : ecc[r] + 1].T.tolist())
        arrays.append(IntersectionArray(b=up[:-1], c=down[1:], a=stay, part=None))
    return arrays


def combinatorial_intersection_array(g: Graph, u: int) -> IntersectionArray | None:
    """Exact integer intersection array around u, or None when irregular.

    Counts, for every vertex of each distance level, its neighbors one
    level down, on the level, and one level up; returns the array only when
    the three counts are constant on every level. The one-vertex case of
    the batched count that :func:`classify` makes.
    """
    distances_from(g, u)  # validates u and connectivity
    return _intersection_arrays(g, np.array([u]))[0]


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


def _alpha_level(alpha: np.ndarray, vertices: np.ndarray, eps: float, what: str) -> float:
    vals = alpha[vertices]
    if float(vals.max() - vals.min()) > eps:
        raise InternalCheckError(f"Perron vector is not constant on {what}")
    return float(vals.mean())


def classify(
    g: Graph,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    dec: SpectralDecomposition | None = None,
    reports: Sequence[PdrVertexReport] | None = None,
) -> Classification:
    """Classify a connected graph via per-vertex pseudo-distance-regularity.

    Any vertex failing the test yields ``not_pdr`` with the lowest failing
    vertex as witness. When every vertex passes, a regular graph must be
    distance-regular and anything else must be bipartite biregular and
    distance-biregular; both outcomes are re-verified with the exact
    integer counting oracle, the Perron levels are checked against their
    closed forms, and every vertex's pseudo-intersection numbers must be
    the Perron-ratio transform of its integer array. Violations of those
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
    alpha = dec.perron
    arrays = _intersection_arrays(g, np.arange(g.n))

    # The Perron levels use eps_alpha unscaled: the Perron vector has squared
    # norm n whatever the spectral radius, so its entries do not grow with it.
    if degrees.min() == degrees.max():
        if any(a is None for a in arrays) or len(set(arrays)) != 1:
            raise InternalCheckError("all-PDR regular graph failed the integer distance-regularity oracle")
        if wreg != WALK_REGULAR:
            raise InternalCheckError("distance-regular graph is not walk-regular")
        level = _alpha_level(alpha, np.arange(g.n), tol.eps_alpha, "a regular graph")
        if abs(level - 1.0) > tol.eps_alpha:
            raise InternalCheckError("regular graph must have unit Perron entries")
        verdict, verdict_arrays, levels = VERDICT_DISTANCE_REGULAR, (arrays[0],), [level]
    else:
        bp = g.bipartition
        if bp is None or not bp.biregular:
            raise InternalCheckError("all-PDR non-regular graph must be bipartite biregular")
        if wreg != WALK_BIREGULAR:
            raise InternalCheckError("distance-biregular graph is not walk-biregular")
        part_arrays = []
        for pidx in (0, 1):
            cand = {arrays[v] for v in np.flatnonzero(bp.side == pidx)}
            if None in cand or len(cand) != 1:
                raise InternalCheckError(f"part {pidx} of an all-PDR biregular graph has unequal intersection arrays")
            arr = cand.pop()
            part_arrays.append(IntersectionArray(b=arr.b, c=arr.c, a=arr.a, part=pidx))
        d1, d2 = bp.part_degrees
        levels = []
        for pidx, (mine, other) in enumerate(((d1, d2), (d2, d1))):
            level = _alpha_level(alpha, bp.side == pidx, tol.eps_alpha, f"part {pidx}")
            expected = float(np.sqrt((d1 + d2) / (2.0 * other)))
            if abs(level - expected) > tol.eps_alpha:
                raise InternalCheckError(
                    f"Perron level {level} on part {pidx} (degree {mine}) deviates from its closed form {expected}"
                )
            levels.append(level)
        verdict, verdict_arrays = VERDICT_DISTANCE_BIREGULAR, tuple(part_arrays)

    # The Perron vector is now known to be constant on each part, so on each
    # distance cell; with unit ratios this also covers the regular case.
    vertices = np.array([r.vertex for r in reports])
    triples = [r.quotient.tridiagonal() for r in reports]
    res = _transform_residuals(g, alpha, vertices, triples, [arrays[u] for u in vertices])
    wide = res.max(axis=(1, 2)) > tol.scaled("eps_pdr", dec.spectral_radius)
    if wide.any():
        raise InternalCheckError(
            f"pseudo-intersection numbers at vertex {vertices[np.argmax(wide)]} disagree with the "
            "Perron-ratio transform of the integer oracle"
        )
    return Classification(
        verdict=verdict,
        intersection_arrays=verdict_arrays,
        alpha_levels=tuple(levels),
        witness=None,
        walk_regularity=wreg,
    )


def _transform_residuals(
    g: Graph,
    alpha: np.ndarray,
    vertices: np.ndarray,
    triples: Sequence[Sequence[tuple[float, float, float]]],
    arrays: Sequence[IntersectionArray],
) -> np.ndarray:
    """Residuals between pseudo numbers and transformed integer counts, one operation for every vertex.

    Row r belongs to vertices[r], with its quotient's level ``triples[r]``
    and integer array ``arrays[r]``. Entry (r, i) holds the (down, stay,
    up) residuals at level i; boundary terms, and levels past the vertex's
    eccentricity, are zero. Assumes the Perron entries are constant on each
    distance cell.
    """
    dist = g.distances[vertices]
    R, width = len(vertices), int(dist.max()) + 2  # one zero level past the deepest
    pseudo, exact = np.zeros((2, R, width, 3))
    for r, (levels, array) in enumerate(zip(triples, arrays)):
        pseudo[r, : len(levels)] = levels
        exact[r, : len(array.a), 0] = (0, *array.c)
        exact[r, : len(array.a), 1] = array.a
        exact[r, : len(array.a), 2] = (*array.b, 0)
    key = (dist + width * np.arange(R)[:, None]).ravel()
    members = np.bincount(key, minlength=R * width).reshape(R, width)
    level_alpha = np.bincount(key, weights=np.broadcast_to(alpha, dist.shape).ravel(), minlength=R * width)
    level_alpha = np.divide(level_alpha.reshape(R, width), members, out=np.ones((R, width)), where=members > 0)
    res = np.zeros((R, width, 3))
    res[:, :, 1] = np.abs(pseudo[:, :, 1] - exact[:, :, 1])
    res[:, 1:, 0] = np.abs(pseudo[:, 1:, 0] - level_alpha[:, :-1] / level_alpha[:, 1:] * exact[:, 1:, 0])
    res[:, :-1, 2] = np.abs(pseudo[:, :-1, 2] - level_alpha[:, 1:] / level_alpha[:, :-1] * exact[:, :-1, 2])
    return res


def perron_transform_consistency(
    g: Graph,
    dec: SpectralDecomposition,
    u: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Residuals between pseudo numbers and Perron-ratio transforms at u.

    Requires u to be distance-regular around in the integer sense and the
    Perron vector constant on each distance cell; both are checked and
    reported as errors rather than silently skipped. Returns a matrix of
    (down, stay, up) residuals per level.
    """
    array = combinatorial_intersection_array(g, u)
    if array is None:
        raise ValueError(f"vertex {u} is not distance-regular around in the integer sense")
    dist = distances_from(g, u)
    wide = np.flatnonzero(_cell_spread(dec.perron, dist) > tol.scaled("eps_alpha", dec.spectral_radius))
    if len(wide):
        raise ValueError(f"Perron vector is not constant on distance cell {wide[0]} around vertex {u}")
    quotient, _ = pseudo_regular_check(g, dec, dist, tol)
    if quotient is None:
        raise InternalCheckError(
            f"vertex {u} satisfies the integer regularity precondition but fails the pseudo-regular check"
        )
    return _transform_residuals(g, dec.perron, np.array([u]), [quotient.tridiagonal()], [array])[0, : len(array.a)]


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

    Graphs of one order n are checked together, in stacks of at most
    max(1, 2^16 // n^3) graphs: each stage is one set of array
    operations over a stack, and the rows of the vertex pass are its
    (graph, vertex) pairs. Only graphs that pass the test at every vertex,
    or that have a violation at one, leave the stack for the per-graph
    classification and walk formulas. Raises
    :class:`UnsupportedSizeError` past short graph6 (n > 62), before any
    other work.
    """
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    for n in by_order:
        _require_short_graph6(n)
    results: list[GraphCheckResult | None] = [None] * len(graphs)
    for n, members in by_order.items():
        size = _stack_size(n)
        for lo in range(0, len(members), size):
            chunk = members[lo : lo + size]
            for i, result in zip(chunk, _verify_stack([graphs[i] for i in chunk], tol)):
                results[i] = result
    return results


def _verify_stack(graphs: list[Graph], tol: ToleranceConfig) -> list[GraphCheckResult]:
    """:func:`verify_graphs` on a nonempty list of graphs of one order."""
    adjacency = np.stack([g.adjacency for g in graphs])
    codes = _graph6_codes(adjacency)
    names = _graph6_strings(codes)
    changed = (_graph6_adjacency(codes, adjacency.shape[1]) != adjacency).any(axis=(1, 2)).tolist()
    found: list[list[Violation]] = [
        [Violation("round_trip", "serialize/parse round trip changed the graph")] if bad else [] for bad in changed
    ]
    distances = _distance_stack(adjacency)
    unreachable = np.argmin(distances[:, 0], axis=1).tolist()
    spectra = _decompose_stack(adjacency.astype(float), tol)
    results: list[GraphCheckResult | None] = [None] * len(graphs)
    for b, v in enumerate(unreachable):
        if distances[b, 0, v] < 0:
            error = f"graph is disconnected: vertex {v} is unreachable from 0"
            results[b] = GraphCheckResult(names[b], None, False, (*found[b], Violation("connectivity", error)))
        elif spectra.errors[b] is not None:
            error = str(spectra.errors[b])
            results[b] = GraphCheckResult(names[b], None, False, (*found[b], Violation("decompose", error)))
    good = np.array([b for b, r in enumerate(results) if r is None], dtype=np.int64)
    if not len(good):
        return results
    if len(good) < len(graphs):
        adjacency, distances, spectra = adjacency[good], distances[good], spectra.take(good)
    stack = _GraphStack(adjacency, distances, spectra)
    powers, table = _spectral_identities(stack, tol, [found[b] for b in good.tolist()])

    # The vertex pass over every (graph, vertex) row; a graph leaves the
    # stack when a row of it is flagged or when every row passes.
    blocks = [_vertex_block(stack, gr, vx, tol, verify=True) for gr, vx in stack.blocks()]
    flagged, failing = np.zeros((2, len(good)), dtype=bool)
    for rows in blocks:
        flagged[rows.graphs[rows.flagged]] = True
        failing[rows.graphs[~rows.partition.passing]] = True
    for j, b in enumerate(good.tolist()):
        verdict, all_pdr = VERDICT_NOT_PDR, False
        if flagged[j] or not failing[j]:
            g = graphs[b]
            _cache_distances(g, distances[j])
            dec = stack.spectra.decomposition(j)
            try:
                reports: list[PdrVertexReport | None] = []
                for rows in blocks:
                    if rows.graphs[0] <= j <= rows.graphs[-1]:
                        lo, hi = np.searchsorted(rows.graphs, [j, j + 1]).tolist()
                        reports += rows.reports(range(lo, hi), dec, found[b])
                verdict, all_pdr = _pdr_suite(g, dec, reports, [p[j] for p in powers], table[j], tol, found[b])
            except NumericalError as exc:
                found[b].append(Violation("numerical", str(exc)))
                verdict, all_pdr = None, False
        results[b] = GraphCheckResult(names[b], verdict, all_pdr, tuple(found[b]))
    return results


def _spectral_identities(
    stack: _GraphStack, tol: ToleranceConfig, found: list[list[Violation]]
) -> tuple[list[np.ndarray], np.ndarray]:
    """The whole-graph identities of every graph of a stack; graph j's violations go to ``found[j]``.

    Returns the exact adjacency powers up to the walk-check length and the
    spectral closed-walk table one length further, as stacks, for the
    adjacent-pair walk formulas.
    """
    spectra = stack.spectra
    B, n, _ = stack.adjacency.shape
    lam0 = spectra.eigenvalues[:, 0]
    alpha = spectra.perron
    # Idempotent algebra, first: its temporaries are the largest arrays of the check.
    E = spectra.idempotents
    idem_res = np.maximum.reduce(
        [
            np.abs(np.einsum("bkij,bkjl->bkil", E, E) - E).max(axis=(1, 2, 3)),
            np.abs(E.sum(axis=1) - np.eye(n)).max(axis=(1, 2)),
            np.abs(stack.adjacency[:, None] @ E - spectra.eigenvalues[:, :, None, None] * E).max(axis=(1, 2, 3)),
        ]
    )
    # Local multiplicities of one eigenvalue sum to its global multiplicity.
    mults = spectra.local_multiplicities()
    trace_res = np.abs(mults.sum(axis=1) - spectra.multiplicities).max(axis=1)
    # The Perron-weighted average degree is the spectral radius at every vertex.
    wdeg_res = np.abs((stack.adjacency @ alpha[:, :, None])[:, :, 0] / alpha - lam0[:, None]).max(axis=1)

    # Spectral walk identity on the diagonal, exact integer side vs spectral side.
    # The adjacent-pair walk formulas read the table one length further.
    powers = _power_stack(stack.adjacency, _WALK_CHECK_MAX_LENGTH)
    table = _closed_walk_table(spectra.eigenvalues, mults, _WALK_CHECK_MAX_LENGTH + 1)
    lengths = np.arange(_WALK_CHECK_MAX_LENGTH + 1)
    closed = np.stack([np.diagonal(p, axis1=1, axis2=2) for p in powers], axis=2)
    worst = np.abs(closed - table[:, :, : len(lengths)]).max(axis=1)
    bounds = tol.scaled("eps_walk", lam0[:, None], lengths)
    bad = (worst > bounds).any(axis=1) | (trace_res > n * tol.eps_mult)
    bad |= (wdeg_res > tol.eps_num) | (idem_res > tol.eps_num)
    for j in np.flatnonzero(bad).tolist():
        for L in np.flatnonzero(worst[j] > bounds[j]).tolist():
            detail = f"length {L}: residual {worst[j, L]:.3e} > {bounds[j, L]:.3e}"
            found[j].append(Violation("closed_walk_identity", detail))
        if trace_res[j] > n * tol.eps_mult:
            found[j].append(Violation("multiplicity_sum", f"residual {trace_res[j]:.3e}"))
        if wdeg_res[j] > tol.eps_num:
            found[j].append(Violation("weighted_degree", f"residual {wdeg_res[j]:.3e}"))
        if idem_res[j] > tol.eps_num:
            found[j].append(Violation("idempotents", f"residual {idem_res[j]:.3e}"))
    return powers, table


def _pdr_suite(
    g: Graph,
    dec: SpectralDecomposition,
    reports: list[PdrVertexReport | None],
    powers: list[np.ndarray],
    table: np.ndarray,
    tol: ToleranceConfig,
    violations: list[Violation],
) -> tuple[str | None, bool]:
    """The checks of :func:`verify_graph` that follow the vertex pass; returns (verdict, all_pdr)."""
    if any(r is None for r in reports):
        return None, False
    try:
        cls = classify(g, tol, dec=dec, reports=reports)
    except InternalCheckError as exc:
        violations.append(Violation("classification_internal", str(exc)))
        return None, all(r.is_pdr for r in reports)

    all_pdr = all(r.is_pdr for r in reports)
    if all_pdr:
        if cls.verdict not in (VERDICT_DISTANCE_REGULAR, VERDICT_DISTANCE_BIREGULAR):
            violations.append(Violation("dichotomy", f"all-PDR graph classified {cls.verdict}"))
        # Adjacent-pair walk formulas, all edges per length, reported edge by edge.
        lam0 = dec.spectral_radius
        us, vs = np.nonzero(np.triu(g.adjacency, 1))
        lengths = range(_WALK_CHECK_MAX_LENGTH + 1)
        worst = np.transpose([np.maximum(*walk_formula_check(g, dec, us, vs, L, powers, table=table)) for L in lengths])
        bounds = [tol.scaled("eps_walk", lam0, L) for L in lengths]
        for e, length in np.argwhere(worst > bounds):
            violations.append(
                Violation("walk_formula", f"edge ({us[e]}, {vs[e]}), length {length}: residual {worst[e, length]:.3e}")
            )
        # Neighbors of a common vertex carry equal Perron entries; unscaled
        # eps_alpha, as for the Perron levels in classify.
        alpha = dec.perron
        adj = g.adjacency
        spread = np.where(adj, alpha, -np.inf).max(axis=1) - np.where(adj, alpha, np.inf).min(axis=1)
        for u in np.flatnonzero((g.degrees > 1) & (spread > tol.eps_alpha)):
            violations.append(Violation("neighbor_alpha", f"vertex {u}: spread {spread[u]:.3e}"))
    elif cls.verdict != VERDICT_NOT_PDR:
        violations.append(Violation("dichotomy", f"graph with a non-PDR vertex classified {cls.verdict}"))

    return cls.verdict, all_pdr
