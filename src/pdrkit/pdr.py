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
    bfs,
    bipartition,
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
from .predistance import PredistanceSystem, apply_poly_column, build_predistance

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

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def tridiagonal(self) -> tuple[tuple[float, float, float], ...]:
        """Per-level triples (down, stay, up) of a distance partition.

        Level i reads (entries[i, i-1], entries[i, i], entries[i, i+1]) with
        zeros at the ends. Raises if any off-band entry is nonzero.
        """
        m = self.size
        band = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :]) <= 1
        if np.any(self.entries[~band] != 0.0):
            raise ValueError("quotient matrix is not tridiagonal")
        out = []
        for i in range(m):
            down = float(self.entries[i, i - 1]) if i > 0 else 0.0
            stay = float(self.entries[i, i])
            up = float(self.entries[i, i + 1]) if i < m - 1 else 0.0
            out.append((down, stay, up))
        return tuple(out)


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
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range for a graph on {g.n} vertices")
    dist = g.distances[u]
    ecc = int(dist.max())
    if not 0 <= level <= ecc:
        raise ValueError(f"level {level} out of range for eccentricity {ecc}")
    return np.where(dist == level, dec.perron * dec.perron[u], 0.0)


def pseudo_regular_check(
    g: Graph,
    dec: SpectralDecomposition,
    partition: Sequence[np.ndarray],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[QuotientMatrix | None, PartitionWitness | None]:
    """Test whether a partition is pseudo-regular under the Perron weights.

    For every vertex u of cell i and every cell j, computes the weighted
    neighbor count into j. Returns the quotient matrix when the spread over
    each cell stays within tolerance, otherwise a witness for the first
    (cell, target) pair that disagrees, scanning cells in order and picking
    the extreme-valued vertices (lowest id on ties).
    """
    cells = [np.asarray(c, dtype=np.int64) for c in partition]
    if any(len(c) == 0 for c in cells):
        raise ValueError("malformed partition: empty cell")
    flat = np.concatenate(cells) if cells else np.array([], dtype=np.int64)
    if len(flat) != g.n or not np.array_equal(np.sort(flat), np.arange(g.n)):
        raise ValueError("malformed partition: cells must cover every vertex exactly once")
    m = len(cells)
    member = np.zeros((g.n, m))
    for j, c in enumerate(cells):
        member[c, j] = 1.0
    alpha = dec.perron
    flows = (g.adjacency * alpha[None, :]) @ member / alpha[:, None]
    eps = tol.scaled("eps_pdr", dec.spectral_radius)
    for i, cell in enumerate(cells):
        block = flows[cell]
        for j in range(m):
            vals = block[:, j]
            lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
            if vals[hi] - vals[lo] > eps:
                a, b = sorted((lo, hi))
                return None, PartitionWitness(
                    cell=i,
                    target=j,
                    vertex_a=int(cell[a]),
                    vertex_b=int(cell[b]),
                    value_a=float(vals[a]),
                    value_b=float(vals[b]),
                )
    entries = np.array([[float(np.mean(flows[cell, j])) for j in range(m)] for cell in cells])
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
    be extremal (eccentricity equal to local degree) and each orthogonal
    polynomial column must reproduce the weighted distance column for every
    level. The two verdicts must agree or :class:`InternalCheckError` is
    raised. ``system`` allows reuse of a prebuilt predistance system and
    its local spectrum.
    """
    info = bfs(g, u)
    quotient, witness = pseudo_regular_check(g, dec, info.cells, tol)
    via_partition = quotient is not None

    ls = local_spectrum(dec, u, tol) if system is None else system.spectrum
    extremal = info.eccentricity == ls.local_degree
    via_polynomials = False
    if extremal:
        if system is None:
            system = build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))
        eps = tol.scaled("eps_pdr", dec.spectral_radius)
        # Extremal: the polynomial degrees run over exactly the levels 0..ecc.
        via_polynomials = all(
            float(np.max(np.abs(apply_poly_column(g, p, u) - weighted_distance_column(g, dec, u, level)))) <= eps
            for level, p in enumerate(system.polys)
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
        eccentricity=info.eccentricity,
        spectrum=ls,
        quotient=quotient,
        witness=witness,
    )


def walk_formula_check(
    g: Graph,
    dec: SpectralDecomposition,
    u: int,
    v: int,
    length: int,
    powers: list[np.ndarray] | None = None,
) -> tuple[float, float]:
    """Residuals of the adjacent-pair walk-count formulas at u and v.

    For adjacent u, v around both of which the graph is pseudo-distance-
    regular (the caller ensures this), the number of walks of the given
    length between them equals
    (perron[v]/perron[u]) / lambda0 * sum_i m_u(lambda_i) lambda_i^(length+1),
    and symmetrically with u and v swapped. Returns both absolute residuals
    against the exact integer walk count. ``powers`` may carry precomputed
    integer adjacency powers.
    """
    if not g.adjacency[u, v]:
        raise ValueError(f"vertices {u} and {v} are not adjacent")
    if powers is None:
        powers = adjacency_powers(g, length)
    truth = float(powers[length][u, v])
    lam = dec.eigenvalues ** (length + 1)
    alpha = dec.perron
    lam0 = dec.spectral_radius
    pred_u = (alpha[v] / alpha[u]) / lam0 * float(np.dot(dec.idempotents[:, u, u], lam))
    pred_v = (alpha[u] / alpha[v]) / lam0 * float(np.dot(dec.idempotents[:, v, v], lam))
    return abs(truth - pred_u), abs(truth - pred_v)


def combinatorial_intersection_array(g: Graph, u: int) -> IntersectionArray | None:
    """Exact integer intersection array around u, or None when irregular.

    Counts, for every vertex of each distance level, its neighbors one
    level down, on the level, and one level up; returns the array only when
    the three counts are constant on every level.
    """
    info = bfs(g, u)
    step = info.dist[None, :] - info.dist[:, None]  # step[v, w] = dist(u, w) - dist(u, v)
    counts = np.stack([(g.adjacency & (step == s)).sum(axis=1) for s in (-1, 0, 1)], axis=1)
    levels = counts[[cell[0] for cell in info.cells]]  # one representative per level
    if not np.array_equal(counts, levels[info.dist]):
        return None
    down, stay, up = map(tuple, levels.T.tolist())
    return IntersectionArray(b=up[: info.eccentricity], c=down[1:], a=stay, part=None)


def walk_regularity(g: Graph, dec: SpectralDecomposition, tol: ToleranceConfig = DEFAULT_TOL) -> str:
    """Compare local spectra across vertices.

    ``walk_regular`` when every vertex has the same local multiplicities,
    ``walk_biregular`` when the graph is bipartite and they are constant on
    each part, ``neither`` otherwise.
    """
    mults = dec.local_multiplicity_matrix()

    def constant_rows(rows: np.ndarray) -> bool:
        return float(np.max(rows.max(axis=0) - rows.min(axis=0), initial=0.0)) <= tol.eps_mult

    if constant_rows(mults):
        return WALK_REGULAR
    bp = bipartition(g)
    if bp is not None and all(constant_rows(mults[part]) for part in bp.parts if len(part)):
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
        bp = bipartition(g)
        if bp is None or not bp.biregular:
            raise InternalCheckError("all-PDR non-regular graph must be bipartite biregular")
        if wreg != WALK_BIREGULAR:
            raise InternalCheckError("distance-biregular graph is not walk-biregular")
        part_arrays = []
        for pidx, part in enumerate(bp.parts):
            cand = {arrays[int(v)] for v in part}
            if None in cand or len(cand) != 1:
                raise InternalCheckError(f"part {pidx} of an all-PDR biregular graph has unequal intersection arrays")
            arr = cand.pop()
            part_arrays.append(IntersectionArray(b=arr.b, c=arr.c, a=arr.a, part=pidx))
        d1, d2 = bp.part_degrees
        levels = []
        for pidx, (part, mine, other) in enumerate(zip(bp.parts, (d1, d2), (d2, d1))):
            level = _alpha_level(alpha, part, tol.eps_alpha, f"part {pidx}")
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
    info = bfs(g, u)
    eps_alpha = tol.scaled("eps_alpha", dec.spectral_radius)
    for i, cell in enumerate(info.cells):
        vals = dec.perron[cell]
        if float(vals.max() - vals.min()) > eps_alpha:
            raise ValueError(f"Perron vector is not constant on distance cell {i} around vertex {u}")
    quotient, _ = pseudo_regular_check(g, dec, info.cells, tol)
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
    tagged violation too, so one bad graph never aborts a corpus run.
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

    # Spectral walk identity on the diagonal, exact integer side vs spectral side.
    for length in range(_WALK_CHECK_MAX_LENGTH + 1):
        lhs = np.diag(powers[length]).astype(float)
        rhs = mults @ dec.eigenvalues**length
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
            fourier = system.level_triples()
            four_res = max(
                abs(x - y) for t, f in zip(report.quotient.tridiagonal(), fourier) for x, y in zip(t, f)
            )
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
        # Adjacent-pair walk formulas at every length.
        edges = np.argwhere(np.triu(g.adjacency, 1))
        for uu, vv in edges:
            for length in range(_WALK_CHECK_MAX_LENGTH + 1):
                res_u, res_v = walk_formula_check(g, dec, int(uu), int(vv), length, powers=powers)
                bound = tol.scaled("eps_walk", lam0, length)
                if max(res_u, res_v) > bound:
                    violations.append(
                        Violation(
                            "walk_formula",
                            f"edge ({uu}, {vv}), length {length}: residual {max(res_u, res_v):.3e}",
                        )
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
    ls = system.spectrum
    u = ls.vertex
    support = ls.values
    weights = ls.support_weights
    k = len(support)
    vals = np.stack([p(support) for p in system.polys])
    gram = (vals * weights) @ vals.T
    norms2 = np.diag(gram).copy()
    off = np.abs(gram - np.diag(norms2))
    scale = np.sqrt(np.outer(norms2, norms2))
    worst_orth = float(np.max(off / np.maximum(scale, 1e-300), initial=0.0))
    if worst_orth > eps:
        violations.append(Violation("pd_orthogonality", f"vertex {u}: relative residual {worst_orth:.3e}"))

    lam0_vals = np.array(system.values_at_radius)
    norm_res = float(np.max(np.abs(norms2 - alpha_u**2 * lam0_vals) / np.maximum(1.0, np.abs(norms2))))
    if norm_res > eps or np.any(lam0_vals <= 0):
        violations.append(Violation("pd_normalization", f"vertex {u}: residual {norm_res:.3e}"))

    p0 = system.polys[0].coeffs
    ok0 = len(p0) == 1 and abs(p0[0] - alpha_u**2) <= eps * max(1.0, alpha_u**2)
    ok1 = True
    if k > 1:
        expected = alpha_u**2 * lam0 / g.degree(u)
        p1 = system.polys[1].coeffs
        ok1 = len(p1) == 2 and abs(p1[0]) <= eps * max(1.0, expected) and abs(p1[1] - expected) <= eps * max(1.0, expected)
    if not (ok0 and ok1):
        violations.append(Violation("pd_closed_forms", f"vertex {u}: constant or degree-one polynomial off"))

    for i in range(k):
        xp = support * vals[i]
        rec = system.recurrence[i]
        combo = rec[1] * vals[i]
        if i > 0:
            combo = combo + rec[0] * vals[i - 1]
        if i < k - 1:
            combo = combo + rec[2] * vals[i + 1]
        res = float(np.sqrt(np.dot(weights, (xp - combo) ** 2)))
        ref = float(np.sqrt(np.dot(weights, xp**2)))
        if res > eps * max(1.0, ref):
            violations.append(Violation("pd_recurrence", f"vertex {u}, index {i}: residual {res:.3e}"))
            break
