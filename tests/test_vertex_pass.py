"""The vertex pass against the per-vertex loop it replaced.

The reference below is the one-vertex pipeline written out plainly: Lanczos
on one local measure, the predistance contract, the distance-partition
check cell by cell, and the polynomial columns compared level by level with
the weighted distance columns, run vertex by vertex. The vertex pass must
give the same reports and violations on every connected graph with n <= 5,
a seeded sample of n = 6 graphs and a few large named graphs; quotients
must match to the last bit, and the recurrence within a tolerance fixed in
advance from float64 rounding.
"""

from collections import Counter

import numpy as np
import pytest

from pdrkit import (
    DEFAULT_TOL,
    IllConditionedMeasureError,
    InternalCheckError,
    NumericalError,
    PartitionWitness,
    PdrVertexReport,
    QuotientMatrix,
    SpectralDecomposition,
    ToleranceConfig,
    Violation,
    classify,
    decompose,
    enumerate_connected,
    generate_named,
    is_pdr_around,
    local_spectrum,
    parse_graph6,
    serialize_graph6,
    verify_graph,
)
from pdrkit import pdr, spectral
from pdrkit.spectral import _SpectralStack
from test_pdr import reference_partition_check

# Recurrence coefficients and values at the radius agree within this
# relative tolerance: padding a row changes only the summation order.
RECURRENCE_RTOL = 1e-12
RANK_FLOOR = 1e-20
N6_SAMPLE = 500
NAMED = [
    ("petersen",),
    ("complete", 30),
    ("complete_bipartite", 10, 20),
    ("hypercube", 5),
    ("cycle", 40),
    ("path", 40),
]


def reference_lanczos(ls, lam0, alpha_u):
    """One vertex's family: (support values, recurrence triples, values at the radius)."""
    support, weights = ls.values, ls.support_weights
    k = len(support)
    q = np.zeros((k, k))
    q[0] = np.sqrt(weights / weights.sum())
    off = np.zeros(k - 1)
    for i in range(k - 1):
        v = support * q[i]
        ref = float(v @ v)
        for _ in range(2):
            v -= q[: i + 1].T @ (q[: i + 1] @ v)
        off[i] = np.sqrt(v @ v)
        if off[i] ** 2 <= RANK_FLOOR * max(1.0, ref):
            raise IllConditionedMeasureError(
                f"rank loss at degree {i + 1}: support points of vertex {ls.vertex} are numerically coincident"
            )
        q[i + 1] = v / off[i]
    same = (q**2 @ support).tolist()
    phat = q / np.sqrt(weights)
    s = alpha_u**2 * phat[:, 0]
    vals = s[:, None] * phat
    ratio = s[1:] / s[:-1]
    prev, nxt = [0.0, *(off * ratio).tolist()], [*(off / ratio).tolist(), 0.0]
    return vals, list(zip(prev, same, nxt)), vals[:, 0].tolist()


def reference_contract(g, ls, vals, recurrence, at_radius, lam0, alpha_u, eps, violations):
    u, support, weights = ls.vertex, ls.values, ls.support_weights
    gram = (vals * weights) @ vals.T
    norms2 = np.diag(gram)
    scale = np.maximum(np.sqrt(np.outer(norms2, norms2)), 1e-300)
    worst_orth = float(np.max(np.abs(gram - np.diag(norms2)) / scale))
    if worst_orth > eps:
        violations.append(Violation("pd_orthogonality", f"vertex {u}: relative residual {worst_orth:.3e}"))
    lam0_vals = np.array(at_radius)
    norm_res = float(np.max(np.abs(norms2 - alpha_u**2 * lam0_vals) / np.maximum(1.0, np.abs(norms2))))
    if norm_res > eps or np.any(lam0_vals <= 0):
        violations.append(Violation("pd_normalization", f"vertex {u}: residual {norm_res:.3e}"))
    p0 = lam0_vals[0]
    ok = abs(p0 - alpha_u**2) <= eps * max(1.0, alpha_u**2)
    if len(vals) > 1:
        expected = alpha_u**2 * lam0 / g.degree(u)
        _, same0, next0 = recurrence[0]
        lead = p0 / next0
        ok = ok and abs(lead * same0) <= eps * max(1.0, expected) and abs(lead - expected) <= eps * max(1.0, expected)
    if not ok:
        violations.append(Violation("pd_closed_forms", f"vertex {u}: constant or degree-one polynomial off"))
    prev, same, nxt = (np.array(c)[:, None] for c in zip(*recurrence))
    xp = vals * support
    combo = prev * np.roll(vals, 1, axis=0) + same * vals + nxt * np.roll(vals, -1, axis=0)
    res = np.sqrt(((xp - combo) ** 2) @ weights)
    bad = np.flatnonzero(res > eps * np.maximum(1.0, np.sqrt(xp**2 @ weights)))
    if len(bad):
        violations.append(Violation("pd_recurrence", f"vertex {u}, index {bad[0]}: residual {res[bad[0]]:.3e}"))


def reference_partition(g, dec, labels, eps):
    """(quotient, None) or (None, witness), one cell at a time."""
    entries, witness = reference_partition_check(g, dec, labels, eps)
    if witness is None:
        return QuotientMatrix(entries=entries), None
    return None, PartitionWitness(*witness)


def reference_columns(g, u, recurrence, at_radius):
    A = g.adjacency_matrix()
    before, cur = np.zeros(g.n), at_radius[0] * (np.arange(g.n) == u)
    yield cur
    for prev, same, nxt in recurrence[:-1]:
        before, cur = cur, (A @ cur - same * cur - prev * before) / nxt
        yield cur


def reference_report(g, dec, u, tol, family=None):
    """The one-vertex test; ``family`` is a prebuilt Lanczos result."""
    lam0, alpha = dec.spectral_radius, dec.perron
    eps = tol.scaled("eps_pdr", lam0)
    dist = g.distances[u]
    quotient, witness = reference_partition(g, dec, dist, eps)
    ls = local_spectrum(dec, u, tol)
    ecc = int(dist.max())
    extremal = ecc == ls.local_degree
    via_polynomials = False
    if extremal:
        if family is None:
            family = reference_lanczos(ls, lam0, float(alpha[u]))
        _, recurrence, at_radius = family
        via_polynomials = all(
            float(np.max(np.abs(col - np.where(dist == level, alpha * alpha[u], 0.0)))) <= eps
            for level, col in enumerate(reference_columns(g, u, recurrence, at_radius))
        )
    if (quotient is not None) != via_polynomials:
        raise InternalCheckError(
            f"characterizations disagree at vertex {u}: partition={quotient is not None} polynomials={via_polynomials}"
        )
    return PdrVertexReport(u, via_polynomials, via_polynomials, via_polynomials, extremal, ecc, ls, quotient, witness)


def reference_loop(g, dec, tol, violations=None):
    """The per-vertex loop of classify (no ``violations``) and of verify_graph."""
    lam0, alpha = dec.spectral_radius, dec.perron
    reports = []
    for u in range(g.n):
        if violations is None:
            reports.append(reference_report(g, dec, u, tol))
            continue
        ls = local_spectrum(dec, u, tol)
        family = reference_lanczos(ls, lam0, float(alpha[u]))
        reference_contract(g, ls, *family, lam0, float(alpha[u]), tol.eps_orth, violations)
        try:
            report = reference_report(g, dec, u, tol, family)
        except InternalCheckError as exc:
            violations.append(Violation("equivalence", str(exc)))
            reports.append(None)
            continue
        reports.append(report)
        if report.is_pdr and not report.extremal:
            violations.append(Violation("extremality", f"vertex {u} is pseudo-distance-regular but not extremal"))
        if report.is_pdr:
            sum_res = max(abs(sum(t) - lam0) for t in report.quotient.tridiagonal())
            if sum_res > tol.eps_pdr:
                violations.append(Violation("sum_rule", f"vertex {u}: residual {sum_res:.3e}"))
            prev, same, nxt = zip(*family[1])
            level = tuple(zip((0.0, *nxt[:-1]), same, (*prev[1:], 0.0)))
            four_res = float(np.max(np.abs(np.subtract(report.quotient.tridiagonal(), level))))
            if four_res > tol.scaled("eps_pdr", lam0):
                violations.append(Violation("fourier_match", f"vertex {u}: quotient vs recurrence residual {four_res:.3e}"))
    return reports


def as_tuple(report):
    """Every field of a report, with arrays as their bytes."""
    if report is None:
        return None
    w = report.witness
    return (
        report.vertex,
        report.is_pdr,
        report.via_partition,
        report.via_polynomials,
        report.extremal,
        report.eccentricity,
        report.spectrum.local_mults.tobytes(),
        report.spectrum.values.tobytes(),
        None if report.quotient is None else report.quotient.entries.tobytes(),
        None if w is None else (w.cell, w.target, w.vertex_a, w.vertex_b, w.value_a, w.value_b),
    )


def corpus():
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    six = [serialize_graph6(g) for g in enumerate_connected(6)]
    rng = np.random.default_rng(20240501)
    graphs += [parse_graph6(six[i]) for i in sorted(rng.choice(len(six), N6_SAMPLE, replace=False))]
    return graphs + [generate_named(*spec) for spec in NAMED]


def assert_pass_matches_loop(g, monkeypatch):
    dec = decompose(g)
    tol = DEFAULT_TOL
    assert [as_tuple(r) for r in pdr._vertex_pass(g, dec, tol)] == [as_tuple(r) for r in reference_loop(g, dec, tol)]

    blocks = []
    build = pdr._predistance_block

    def capture(*args):
        blocks.append(build(*args))
        return blocks[-1]

    got, want = [], []
    with monkeypatch.context() as m:
        m.setattr(pdr, "_predistance_block", capture)
        reports = pdr._vertex_pass(g, dec, tol, got)
    assert [as_tuple(r) for r in reports] == [as_tuple(r) for r in reference_loop(g, dec, tol, want)]
    assert got == want
    assert np.concatenate([b.vertices for b in blocks]).tolist() == list(range(g.n))

    # Every row of every block against Lanczos on that vertex alone.
    for block in blocks:
        for row, u in enumerate(block.vertices.tolist()):
            k = block.sizes[row]
            _, recurrence, at_radius = reference_lanczos(local_spectrum(dec, u), dec.spectral_radius, dec.perron[u])
            got_rec = np.stack([block.prev[row, :k], block.same[row, :k], block.nxt[row, :k]], axis=1)
            want_rec = np.array(recurrence)
            assert np.all(np.abs(got_rec - want_rec) <= RECURRENCE_RTOL * np.maximum(1.0, np.abs(want_rec)))
            got_rad = block.vals[row, :k, 0]
            assert np.all(np.abs(got_rad - at_radius) <= RECURRENCE_RTOL * np.maximum(1.0, np.abs(at_radius)))
            assert not block.vals[row, k:].any() and not block.vals[row, :, k:].any()


def test_vertex_pass_matches_per_vertex_loop_on_corpus(monkeypatch):
    graphs = corpus()
    assert len(graphs) == 772 + N6_SAMPLE + len(NAMED)
    for g in graphs:
        assert_pass_matches_loop(g, monkeypatch)


@pytest.mark.parametrize("spec", NAMED)
def test_verify_graph_matches_per_vertex_loop(monkeypatch, spec):
    # The whole suite and classify, with the per-vertex loop put back in the
    # pass's place. These graphs pass every whole-graph check, so the suite's
    # outcome is the loop's violations and the classification of its reports.
    g = generate_named(*spec)
    new = verify_graph(g), classify(g)
    monkeypatch.setattr(pdr, "_vertex_pass", reference_loop)
    dec = decompose(g)
    violations = []
    reports = reference_loop(g, dec, DEFAULT_TOL, violations)
    old = classify(g, dec=dec, reports=reports), classify(g)
    assert (new[0].verdict, new[0].all_pdr, new[0].violations) == (
        old[0].verdict,
        all(r.is_pdr for r in reports),
        tuple(violations),
    )
    fields = ("verdict", "intersection_arrays", "alpha_levels", "witness", "walk_regularity")
    assert [getattr(new[1], f) for f in fields] == [getattr(old[1], f) for f in fields]


def test_blocks_stay_under_the_entry_budget(monkeypatch):
    # The predistance contract takes its rows in chunks sized by the entries
    # one row allocates, and every chunk keeps its (rows, k, k) products in
    # the budget; the partition check works on the cells around each
    # vertex's own and takes no chunks. The loops over degree see every row
    # at once.
    chunks, partition = [], []
    row_chunks, partition_rows = pdr._row_chunks, pdr._partition_rows

    def record_chunks(R, per_row):
        out = row_chunks(R, per_row)
        chunks.append((R, per_row, [(s.start, s.stop) for s in out]))
        return out

    def record_partition(*args):
        before = len(chunks)
        out = partition_rows(*args)
        partition.append(len(chunks) - before)
        return out

    monkeypatch.setattr(pdr, "_row_chunks", record_chunks)
    monkeypatch.setattr(pdr, "_partition_rows", record_partition)
    g = generate_named("cycle", 40)
    pdr._vertex_pass(g, decompose(g), DEFAULT_TOL, [])
    ((R_contract, kk, contract),) = chunks
    k = int(np.sqrt(kk))
    assert R_contract == 40 and kk == k * k and 1 < k <= 40
    assert [lo for lo, _ in contract] == [0] + [hi for _, hi in contract[:-1]] and contract[-1][1] == 40
    assert all((hi - lo) * k * k <= spectral._BLOCK_ENTRIES for lo, hi in contract)
    assert partition == [0]

    # A row past the budget is a chunk alone; small rows fill chunks up to it.
    assert pdr._row_chunks(3 * 100, 100 * 100) == [slice(lo, lo + 1) for lo in range(300)]
    assert pdr._row_chunks(303 * 6, 6 * 6) == [slice(lo, min(1818, lo + 227)) for lo in range(0, 1818, 227)]
    chunks.clear()
    g = generate_named("complete", 6)
    pdr._vertex_pass(g, decompose(g), DEFAULT_TOL, [])
    assert [c[2] for c in chunks] == [[(0, 6)]]

    # On complete:30 only the contract takes chunks, and the integer level
    # counts of classify take none.
    chunks.clear()
    partition.clear()
    g = generate_named("complete", 30)
    dec = decompose(g)
    reports = pdr._vertex_pass(g, dec, DEFAULT_TOL, [])
    assert len(chunks) == 1 and partition == [0]
    chunks.clear()
    assert classify(g, dec=dec, reports=reports).verdict == "distance_regular"
    assert chunks == []


def test_partition_check_holds_a_few_band_arrays():
    # Every row of path:150, whose end vertices have 150 cells around them:
    # the partition check's arrays hold (2 * 1 + 1) * n entries a row, so its
    # peak stays under eight of them, where one (rows, n, cells) array would
    # take 50 times that.
    import tracemalloc

    g = generate_named("path", 150)
    dec = decompose(g)
    args = (g.adjacency[None], dec.perron[None], g.distances, np.full(g.n, DEFAULT_TOL.eps_pdr), 1)
    pdr._partition_rows(*args)
    tracemalloc.start()
    try:
        part = pdr._partition_rows(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.passed.tolist() == [0, 149]
    assert peak <= 8 * (3 * g.n * g.n) * 8


@pytest.mark.parametrize("case", ["verify_graph cycle:40", "_vertex_pass path:40", "verify_graphs n=6 stack"])
def test_degree_loops_run_once_per_stack(monkeypatch, case):
    # Lanczos and the recurrence on unit columns each loop over degree in
    # Python; they run once over every row of a stack, not once per chunk.
    calls = Counter()
    for name in ("_predistance_block", "_polynomial_gap"):

        def wrapper(*args, _fn=getattr(pdr, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(pdr, name, wrapper)
    if case == "verify_graph cycle:40":
        verify_graph(generate_named("cycle", 40))
    elif case == "_vertex_pass path:40":
        g = generate_named("path", 40)
        pdr._vertex_pass(g, decompose(g), DEFAULT_TOL)
    else:
        graphs = list(enumerate_connected(6))[: pdr._stack_size(6)]
        assert len(graphs) == 303
        pdr.verify_graphs(graphs)
    assert calls == {"_predistance_block": 1, "_polynomial_gap": 1}


# tracemalloc peak of verify_graph on a fresh graph, in MiB, measured while
# the degree loops still ran once per 2^13-entry row block; running them
# once per stack may add at most 0.5 MiB.
PARENT_PEAK_MIB = {
    ("path", 16): 0.29,
    ("path", 22): 0.52,
    ("cycle", 20): 0.23,
    ("path", 40): 1.55,
    ("cycle", 40): 0.94,
    ("path", 62): 5.56,
    ("cycle", 62): 2.95,
}


# tracemalloc peak of cli.analysis_report on a fresh graph, in MiB, measured
# while the report was still assembled one number at a time and every row
# chunk was sized as n^2 entries a row; the same 0.5 MiB allowance.
ANALYSIS_PARENT_PEAK_MIB = {
    ("complete", 30): 0.18,
    ("complete_bipartite", 10, 20): 0.18,
    ("hypercube", 5): 0.25,
    ("cycle", 40): 0.79,
    ("path", 40): 1.29,
    ("cycle", 62): 2.61,
    ("path", 62): 4.37,
}


def peaks_over_the_parent(run, parent_peaks: dict) -> dict:
    """The graphs on which ``run`` peaks more than 0.5 MiB above ``parent_peaks``, with their peaks."""
    import tracemalloc

    run(generate_named("petersen"))  # first-call imports and caches stay out of the peaks
    peaks = {}
    for spec in parent_peaks:
        g = generate_named(*spec)
        tracemalloc.start()
        try:
            run(g)
            peaks[spec] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return {spec: peak for spec, peak in peaks.items() if peak > parent_peaks[spec] + 0.5}


def test_verify_graph_peak_memory_stays_near_the_parent():
    assert peaks_over_the_parent(verify_graph, PARENT_PEAK_MIB) == {}


def test_analysis_report_peak_memory_stays_near_the_parent():
    from pdrkit.cli import analysis_report

    assert peaks_over_the_parent(analysis_report, ANALYSIS_PARENT_PEAK_MIB) == {}


def doctored_decomposition(g, eigenvalues, mults):
    """Idempotents that are diagonal with the given local multiplicities; not projectors."""
    mults = np.asarray(mults, dtype=float)
    idempotents = np.stack([np.diag(mults[:, k]) for k in range(len(eigenvalues))])
    return SpectralDecomposition(
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        multiplicities=np.ones(len(eigenvalues), dtype=np.int64),
        idempotents=idempotents,
        perron=np.ones(g.n),
    )


# Doctored path:3 spectra whose first failing row is vertex 0, with what
# the vertex pass raises there outside verify: the rank loss of
# test_rank_loss_names_the_lowest_vertex, and the disagreement of
# test_numerical_error_comes_after_earlier_vertices_violations.
DOCTORED_PATH3_ERRORS = [
    (
        [1.0 + 1e-12, 1.0, -2.0],
        [[0.4, 0.3, 0.3], [0.5, 0.5, 0.0], [0.4, 0.3, 0.3]],
        IllConditionedMeasureError,
        "rank loss at degree 2: support points of vertex 0 are numerically coincident",
    ),
    (
        [2.0, 0.0, -2.0],
        [[0.25, 0.5, 0.25], [0.5, 0.6, -0.1], [0.25, 0.5, 0.25]],
        InternalCheckError,
        "characterizations disagree at vertex 0: partition=True polynomials=False",
    ),
]


@pytest.mark.parametrize("eigenvalues, mults, error, message", DOCTORED_PATH3_ERRORS, ids=["rank_loss", "disagreement"])
def test_entry_points_raise_the_first_rows_error(eigenvalues, mults, error, message):
    # Outside verify the vertex pass raises the first row's numerical error
    # or disagreement, through classify and is_pdr_around alike.
    g = generate_named("path", 3)
    dec = doctored_decomposition(g, eigenvalues, mults)
    for call in (lambda: classify(g, dec=dec), lambda: is_pdr_around(g, dec, 0)):
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message


def test_rank_loss_names_the_lowest_vertex(monkeypatch):
    # Vertex 0 sees {b + 1e-12, b, a} and loses rank at degree 2; vertex 1
    # sees {b + 1e-12, b} and loses rank at degree 1, earlier in the pass.
    g = generate_named("path", 3)
    a, b = -2.0, 1.0
    dec = doctored_decomposition(g, [b + 1e-12, b, a], [[0.4, 0.3, 0.3], [0.5, 0.5, 0.0], [0.4, 0.3, 0.3]])
    want = "rank loss at degree 2: support points of vertex 0 are numerically coincident"
    with pytest.raises(IllConditionedMeasureError) as loop_error:
        reference_loop(g, dec, DEFAULT_TOL, [])
    assert str(loop_error.value) == want
    got = []
    assert pdr._vertex_pass(g, dec, DEFAULT_TOL, got) is None
    assert got[-1] == Violation("numerical", want)

    monkeypatch.setattr(pdr, "_decompose_stack", lambda adjacency, tol: _SpectralStack.of(dec))
    result = verify_graph(g)
    assert result.violations[-1] == Violation("numerical", want)
    assert result.verdict is None and not result.all_pdr


def test_numerical_error_comes_after_earlier_vertices_violations():
    # Vertex 0 fails every contract check at a negative tolerance, and its
    # polynomial columns miss the distance columns of the doctored Perron
    # vector; vertex 1 has a negative multiplicity.
    g = generate_named("path", 3)
    dec = doctored_decomposition(g, [2.0, 0.0, -2.0], [[0.25, 0.5, 0.25], [0.5, 0.6, -0.1], [0.25, 0.5, 0.25]])
    tol = ToleranceConfig(eps_orth=-1.0)  # every contract residual fails
    got, want = [], []
    assert pdr._vertex_pass(g, dec, tol, got) is None
    with pytest.raises(NumericalError, match="negative local multiplicity beyond clamp at vertex 1"):
        reference_loop(g, dec, tol, want)
    checks = ["pd_orthogonality", "pd_normalization", "pd_closed_forms", "pd_recurrence", "equivalence"]
    assert [v.check for v in got[:-1]] == [v.check for v in want] == checks
    assert all("vertex 0" in v.detail for v in got[:-1])
    assert got[-1] == Violation("numerical", "negative local multiplicity beyond clamp at vertex 1")


def test_verify_graph_ends_with_the_numerical_error_after_earlier_vertices_violations(monkeypatch):
    # The doctored path:3 above, through verify_graph: the whole-graph
    # identities fail on the doctored idempotents, then come vertex 0's
    # violations, its disagreement among them, and then vertex 1's error.
    g = generate_named("path", 3)
    dec = doctored_decomposition(g, [2.0, 0.0, -2.0], [[0.25, 0.5, 0.25], [0.5, 0.6, -0.1], [0.25, 0.5, 0.25]])
    monkeypatch.setattr(pdr, "_decompose_stack", lambda adjacency, tol: _SpectralStack.of(dec))
    result = verify_graph(g, ToleranceConfig(eps_orth=-1.0))
    assert result.violations == (
        Violation("closed_walk_identity", "length 1: residual 1.200e+00 > 2.000e-06"),
        Violation("closed_walk_identity", "length 2: residual 1.000e+00 > 4.000e-06"),
        Violation("closed_walk_identity", "length 3: residual 4.800e+00 > 8.000e-06"),
        Violation("closed_walk_identity", "length 4: residual 6.000e+00 > 1.600e-05"),
        Violation("closed_walk_identity", "length 5: residual 1.920e+01 > 3.200e-05"),
        Violation("closed_walk_identity", "length 6: residual 2.800e+01 > 6.400e-05"),
        Violation("multiplicity_sum", "residual 6.000e-01"),
        Violation("weighted_degree", "residual 1.000e+00"),
        Violation("idempotents", "residual 1.000e+00"),
        Violation("pd_orthogonality", "vertex 0: relative residual 1.388e-16"),
        Violation("pd_normalization", "vertex 0: residual 3.331e-16"),
        Violation("pd_closed_forms", "vertex 0: constant or degree-one polynomial off"),
        Violation("pd_recurrence", "vertex 0, index 0: residual 0.000e+00"),
        Violation("equivalence", "characterizations disagree at vertex 0: partition=True polynomials=False"),
        Violation("numerical", "negative local multiplicity beyond clamp at vertex 1"),
    )
    assert result.verdict is None and not result.all_pdr


def test_only_extremal_rows_get_a_predistance_family(monkeypatch):
    # Outside verify_graph only an extremal vertex's verdict reads its
    # family: on path:40 the two end vertices, and at an inner vertex none.
    handed = []
    build = pdr._predistance_block

    def record(vertices, *args):
        handed.append(vertices.tolist())
        return build(vertices, *args)

    monkeypatch.setattr(pdr, "_predistance_block", record)
    g = generate_named("path", 40)
    dec = decompose(g)
    reports = pdr._vertex_pass(g, dec, DEFAULT_TOL)
    assert handed == [[0, 39]]
    assert [r.vertex for r in reports if r.is_pdr] == [0, 39]
    handed.clear()
    report = is_pdr_around(g, dec, 20)
    assert handed == [] and not report.is_pdr and not report.extremal
