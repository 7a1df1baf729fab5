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
from typing import Sequence

import numpy as np

from .graph_core import (
    ConnectivityError,
    Graph,
    distances_from,
    parse_graph6,
    serialize_graph6,
)
from .spectral import (
    DEFAULT_TOL,
    LocalSpectrum,
    NumericalError,
    SpectralDecomposition,
    ToleranceConfig,
    adjacency_powers,
    decompose,
    local_spectrum,
)
from .predistance import PredistanceSystem, build_predistance

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
        zeros at the ends. Raises if any off-band entry is nonzero.
        """
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


def _cell_spread(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Max minus min of ``values`` along axis 0 over each cell of a label row
    with no empty cell, as one segment reduction over the vertices sorted by cell."""
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(labels.max() + 1))
    block = values[order]
    return np.maximum.reduceat(block, starts) - np.minimum.reduceat(block, starts)


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
    sizes = np.bincount(labels)
    if not sizes.all():
        raise ValueError("malformed partition: empty cell")
    m = len(sizes)
    alpha = dec.perron
    member = (labels[:, None] == np.arange(m)).astype(float)
    flows = (g.adjacency * alpha[None, :]) @ member / alpha[:, None]
    wide = np.flatnonzero(_cell_spread(flows, labels) > tol.scaled("eps_pdr", dec.spectral_radius))
    if len(wide):
        i, j = divmod(int(wide[0]), m)
        cell = np.flatnonzero(labels == i)
        a, b = sorted((int(flows[cell, j].argmin()), int(flows[cell, j].argmax())))
        return None, PartitionWitness(
            cell=i,
            target=j,
            vertex_a=int(cell[a]),
            vertex_b=int(cell[b]),
            value_a=float(flows[cell[a], j]),
            value_b=float(flows[cell[b], j]),
        )
    # Row r of each cell goes to layer r. Summing layer by layer adds a cell's
    # rows in id order; reduceat adds them in another order, moving last bits.
    rank = member.cumsum(axis=0)[np.arange(g.n), labels].astype(np.int64) - 1
    layers = np.zeros((sizes.max(), m, m))
    layers[rank, labels] = flows
    entries = layers.sum(axis=0) / sizes[:, None]
    entries.setflags(write=False)
    return QuotientMatrix(entries=entries), None


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
    prebuilt predistance system and its local spectrum.
    """
    dist = distances_from(g, u)
    quotient, witness = pseudo_regular_check(g, dec, dist, tol)
    via_partition = quotient is not None

    ls = local_spectrum(dec, u, tol) if system is None else system.spectrum
    eccentricity = int(dist.max())
    extremal = eccentricity == ls.local_degree
    via_polynomials = False
    if extremal:
        if system is None:
            system = build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))
        eps = tol.scaled("eps_pdr", dec.spectral_radius)
        # Extremal: the polynomial degrees run over exactly the levels 0..ecc.
        via_polynomials = all(
            float(np.max(np.abs(col - weighted_distance_column(g, dec, u, level)))) <= eps
            for level, col in enumerate(system.columns(g))
        )

    if via_partition != via_polynomials:
        raise InternalCheckError(
            f"characterizations disagree at vertex {u}: "
            f"partition={via_partition} polynomials={via_polynomials}"
        )
    return PdrVertexReport(
        vertex=u,
        is_pdr=via_partition,
        via_partition=via_partition,
        via_polynomials=via_polynomials,
        extremal=extremal,
        eccentricity=eccentricity,
        spectrum=ls,
        quotient=quotient,
        witness=witness,
    )


def _closed_walk_table(dec: SpectralDecomposition, max_length: int) -> np.ndarray:
    """Spectral closed-walk counts: entry (u, L) is sum_i m_u(lambda_i) lambda_i^L, L <= max_length."""
    return dec.local_multiplicity_matrix() @ dec.eigenvalues[:, None] ** np.arange(max_length + 1)


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
        table = _closed_walk_table(dec, length + 1)
    truth = powers[length][u, v].astype(float)
    spectral = table[:, length + 1]
    alpha = dec.perron
    lam0 = dec.spectral_radius
    res_u = np.abs(truth - (alpha[v] / alpha[u]) / lam0 * spectral[u])
    res_v = np.abs(truth - (alpha[u] / alpha[v]) / lam0 * spectral[v])
    return res_u, res_v


def combinatorial_intersection_array(g: Graph, u: int) -> IntersectionArray | None:
    """Exact integer intersection array around u, or None when irregular.

    Counts, for every vertex of each distance level, its neighbors one
    level down, on the level, and one level up; returns the array only when
    the three counts are constant on every level.
    """
    dist = distances_from(g, u)
    step = dist[None, :] - dist[:, None]  # step[v, w] = dist(u, w) - dist(u, v)
    counts = np.stack([(g.adjacency & (step == s)).sum(axis=1) for s in (-1, 0, 1)], axis=1)
    levels = counts[np.unique(dist, return_index=True)[1]]  # the lowest vertex of each level
    if not np.array_equal(counts, levels[dist]):
        return None
    down, stay, up = map(tuple, levels.T.tolist())
    return IntersectionArray(b=up[:-1], c=down[1:], a=stay, part=None)


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
        reports = [is_pdr_around(g, dec, u, tol) for u in range(g.n)]
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
    arrays = [combinatorial_intersection_array(g, u) for u in range(g.n)]

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
    eps_pdr = tol.scaled("eps_pdr", dec.spectral_radius)
    for r in reports:
        res = _transform_residuals(g, alpha, r.vertex, r.quotient, arrays[r.vertex])
        if float(np.max(res, initial=0.0)) > eps_pdr:
            raise InternalCheckError(
                f"pseudo-intersection numbers at vertex {r.vertex} disagree with the "
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
    u: int,
    quotient: QuotientMatrix,
    array: IntersectionArray,
) -> np.ndarray:
    """Residual matrix between pseudo numbers and transformed integer counts.

    Row i holds (down, stay, up) residuals at level i; boundary terms are
    zero. Assumes the Perron entries are constant on each distance cell.
    """
    dist = g.distances[u]
    level_alpha = np.bincount(dist, weights=alpha) / np.bincount(dist)
    down, stay, up = np.array(quotient.tridiagonal()).T
    res = np.zeros((len(level_alpha), 3))
    res[:, 1] = np.abs(stay - array.a)
    res[1:, 0] = np.abs(down[1:] - level_alpha[:-1] / level_alpha[1:] * array.c)
    res[:-1, 2] = np.abs(up[:-1] - level_alpha[1:] / level_alpha[:-1] * array.b)
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
    return _transform_residuals(g, dec.perron, u, quotient, array)


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
    short graph6 (n > 62) it raises :class:`UnsupportedSizeError`.
    """
    violations: list[Violation] = []
    g6 = serialize_graph6(g)
    if parse_graph6(g6) != g:
        violations.append(Violation("round_trip", "serialize/parse round trip changed the graph"))

    try:
        dec = decompose(g, tol)
    except ConnectivityError as exc:
        return GraphCheckResult(g6, None, False, (*violations, Violation("connectivity", str(exc))))
    except NumericalError as exc:
        return GraphCheckResult(g6, None, False, (*violations, Violation("decompose", str(exc))))
    try:
        verdict, all_pdr = _invariant_suite(g, dec, tol, violations)
    except NumericalError as exc:
        violations.append(Violation("numerical", str(exc)))
        verdict, all_pdr = None, False
    return GraphCheckResult(g6, verdict, all_pdr, tuple(violations))


def _invariant_suite(
    g: Graph,
    dec: SpectralDecomposition,
    tol: ToleranceConfig,
    violations: list[Violation],
) -> tuple[str | None, bool]:
    """Every check of :func:`verify_graph` past the decomposition; returns (verdict, all_pdr)."""
    lam0 = dec.spectral_radius
    alpha = dec.perron
    n = g.n
    powers = adjacency_powers(g, _WALK_CHECK_MAX_LENGTH)
    mults = dec.local_multiplicity_matrix()
    # The adjacent-pair walk formulas read one length further.
    table = _closed_walk_table(dec, _WALK_CHECK_MAX_LENGTH + 1)

    # Spectral walk identity on the diagonal, exact integer side vs spectral side.
    for length in range(_WALK_CHECK_MAX_LENGTH + 1):
        lhs = np.diag(powers[length]).astype(float)
        rhs = table[:, length]
        bound = tol.scaled("eps_walk", lam0, length)
        worst = float(np.max(np.abs(lhs - rhs)))
        if worst > bound:
            violations.append(Violation("closed_walk_identity", f"length {length}: residual {worst:.3e} > {bound:.3e}"))

    # Local multiplicities of one eigenvalue sum to its global multiplicity.
    trace_res = float(np.max(np.abs(mults.sum(axis=0) - dec.multiplicities)))
    if trace_res > n * tol.eps_mult:
        violations.append(Violation("multiplicity_sum", f"residual {trace_res:.3e}"))

    # The Perron-weighted average degree is the spectral radius at every vertex.
    wdeg = (g.adjacency_matrix() @ alpha) / alpha
    wdeg_res = float(np.max(np.abs(wdeg - lam0)))
    if wdeg_res > tol.eps_num:
        violations.append(Violation("weighted_degree", f"residual {wdeg_res:.3e}"))

    # Idempotent algebra.
    E = dec.idempotents
    idem_res = max(
        float(np.max(np.abs(np.einsum("kij,kjl->kil", E, E) - E))),
        float(np.max(np.abs(E.sum(axis=0) - np.eye(n)))),
        float(np.max(np.abs(g.adjacency_matrix() @ E - dec.eigenvalues[:, None, None] * E))),
    )
    if idem_res > tol.eps_num:
        violations.append(Violation("idempotents", f"residual {idem_res:.3e}"))

    # Per-vertex: predistance contract, both PDR characterizations.
    reports: list[PdrVertexReport] = []
    eps_pdr_scaled = tol.scaled("eps_pdr", lam0)
    equivalence_failed = False
    for u in range(n):
        system = build_predistance(local_spectrum(dec, u, tol), lam0, float(alpha[u]))
        _check_predistance_contract(g, system, lam0, float(alpha[u]), tol.eps_orth, violations)
        try:
            report = is_pdr_around(g, dec, u, tol, system=system)
        except InternalCheckError as exc:
            violations.append(Violation("equivalence", str(exc)))
            equivalence_failed = True
            continue
        reports.append(report)
        if report.is_pdr and not report.extremal:
            violations.append(Violation("extremality", f"vertex {u} is pseudo-distance-regular but not extremal"))
        if report.is_pdr:
            # Bare eps_pdr, stricter than the scaled spread threshold; kept
            # unscaled so that this gate is not loosened.
            sum_res = max(abs(sum(t) - lam0) for t in report.quotient.tridiagonal())
            if sum_res > tol.eps_pdr:
                violations.append(Violation("sum_rule", f"vertex {u}: residual {sum_res:.3e}"))
            four_res = float(np.max(np.abs(np.subtract(report.quotient.tridiagonal(), system.level_triples()))))
            if four_res > eps_pdr_scaled:
                violations.append(
                    Violation("fourier_match", f"vertex {u}: quotient vs recurrence residual {four_res:.3e}")
                )

    if equivalence_failed:
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
        for u in range(n):
            nbrs = g.neighbors(u)
            if len(nbrs) > 1:
                spread = float(alpha[nbrs].max() - alpha[nbrs].min())
                if spread > tol.eps_alpha:
                    violations.append(Violation("neighbor_alpha", f"vertex {u}: spread {spread:.3e}"))
    elif cls.verdict != VERDICT_NOT_PDR:
        violations.append(Violation("dichotomy", f"graph with a non-PDR vertex classified {cls.verdict}"))

    return cls.verdict, all_pdr


def _check_predistance_contract(
    g: Graph,
    system: PredistanceSystem,
    lam0: float,
    alpha_u: float,
    eps: float,
    violations: list[Violation],
) -> None:
    """Orthogonality, normalization, closed forms, and recurrence residuals."""
    ls, vals = system.spectrum, system.support_values
    u, support, weights = ls.vertex, ls.values, ls.support_weights
    gram = (vals * weights) @ vals.T
    norms2 = np.diag(gram)
    scale = np.maximum(np.sqrt(np.outer(norms2, norms2)), 1e-300)
    worst_orth = float(np.max(np.abs(gram - np.diag(norms2)) / scale))
    if worst_orth > eps:
        violations.append(Violation("pd_orthogonality", f"vertex {u}: relative residual {worst_orth:.3e}"))

    lam0_vals = np.array(system.values_at_radius)
    norm_res = float(np.max(np.abs(norms2 - alpha_u**2 * lam0_vals) / np.maximum(1.0, np.abs(norms2))))
    if norm_res > eps or np.any(lam0_vals <= 0):
        violations.append(Violation("pd_normalization", f"vertex {u}: residual {norm_res:.3e}"))

    # p_0 is constant and p_1 = (p_0 / next_0) (x - same_0).
    p0 = lam0_vals[0]
    ok = abs(p0 - alpha_u**2) <= eps * max(1.0, alpha_u**2)
    if len(vals) > 1:
        expected = alpha_u**2 * lam0 / g.degree(u)
        _, same0, next0 = system.recurrence[0]
        lead = p0 / next0
        ok = ok and abs(lead * same0) <= eps * max(1.0, expected) and abs(lead - expected) <= eps * max(1.0, expected)
    if not ok:
        violations.append(Violation("pd_closed_forms", f"vertex {u}: constant or degree-one polynomial off"))

    # x p_i = prev_i p_{i-1} + same_i p_i + next_i p_{i+1} on the support; the
    # zero end coefficients make the rolled-in rows vanish. The last row is
    # the Golub-Welsch closure: the Krylov space ends at local degree + 1.
    prev, same, nxt = (np.array(c)[:, None] for c in zip(*system.recurrence))
    xp = vals * support
    combo = prev * np.roll(vals, 1, axis=0) + same * vals + nxt * np.roll(vals, -1, axis=0)
    res = np.sqrt(((xp - combo) ** 2) @ weights)
    ref = np.sqrt(xp**2 @ weights)
    bad = np.flatnonzero(res > eps * np.maximum(1.0, ref))
    if len(bad):
        violations.append(Violation("pd_recurrence", f"vertex {u}, index {bad[0]}: residual {res[bad[0]]:.3e}"))
