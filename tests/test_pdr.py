"""Pseudo-regularity checks, both characterizations, walk identities,
classification, and the whole-graph invariant suite."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

from pdrkit import (
    DEFAULT_TOL,
    Graph,
    IllConditionedMeasureError,
    InternalCheckError,
    NumericalError,
    QuotientMatrix,
    ToleranceConfig,
    VERDICT_DISTANCE_BIREGULAR,
    VERDICT_DISTANCE_REGULAR,
    VERDICT_NOT_PDR,
    Violation,
    WALK_BIREGULAR,
    WALK_NEITHER,
    WALK_REGULAR,
    adjacency_powers,
    build_predistance,
    classify,
    combinatorial_intersection_array,
    decompose,
    distances_from,
    enumerate_connected,
    generate_named,
    is_pdr_around,
    local_spectrum,
    pseudo_regular_check,
    serialize_graph6,
    verify_graph,
    walk_formula_check,
    walk_regularity,
)
from pdrkit.pdr import _closed_walk_table, _intersection_arrays, _transform_residuals

GOLDEN = (1 + np.sqrt(5)) / 2


def prepared(g):
    return g, decompose(g)


# --- weighted distance columns ----------------------------------------------
# At a vertex u where the graph is pseudo-distance-regular, the column
# p_i(A)e_u equals the Perron-weighted distance column: entry v is
# perron[u] * perron[v] when dist(u, v) == i, else 0.


def polynomial_columns(g, dec, u):
    system = build_predistance(local_spectrum(dec, u), dec.spectral_radius, float(dec.perron[u]))
    return list(system.columns(g))


def test_weighted_column_k3():
    g, dec = prepared(generate_named("complete", 3))
    assert np.allclose(polynomial_columns(g, dec, 0)[1], [0.0, 1.0, 1.0], atol=1e-12)


def test_weighted_column_path3_center():
    g, dec = prepared(generate_named("path", 3))
    col = polynomial_columns(g, dec, 1)[1]
    want = 3 / (2 * np.sqrt(2))
    assert abs(col[1]) < 1e-12
    assert np.allclose(col[[0, 2]], [want, want], atol=1e-12)
    assert np.allclose(col, np.where(g.distances[1] == 1, dec.perron * dec.perron[1], 0.0), atol=1e-12)
    assert want == pytest.approx(1.0606601717, abs=1e-9)


def test_weighted_column_level_zero_and_range():
    g, dec = prepared(generate_named("cycle", 5))
    cols = polynomial_columns(g, dec, 2)
    want = np.zeros(5)
    want[2] = float(dec.perron[2]) ** 2
    assert np.allclose(cols[0], want, atol=1e-12)
    # One column per level 0..eccentricity, and none past it.
    assert len(cols) == int(g.distances[2].max()) + 1 == 3


# --- pseudo-regular partitions ------------------------------------------------


def test_pseudo_regular_c4_distance_partition():
    g, dec = prepared(generate_named("cycle", 4))
    quotient, witness = pseudo_regular_check(g, dec, distances_from(g, 0))
    assert witness is None
    triples = quotient.tridiagonal()
    assert np.allclose(triples, [(0.0, 0.0, 2.0), (1.0, 0.0, 1.0), (2.0, 0.0, 0.0)], atol=1e-10)


def test_pseudo_regular_star_center_partition():
    # Star with two leaves: weighted flows collapse to the spectral radius sqrt(2).
    g, dec = prepared(generate_named("complete_bipartite", 1, 2))
    quotient, witness = pseudo_regular_check(g, dec, np.array([0, 1, 1]))
    assert witness is None
    assert quotient.entries[0, 1] == pytest.approx(np.sqrt(2), abs=1e-12)  # center outflow
    assert quotient.entries[1, 0] == pytest.approx(np.sqrt(2), abs=1e-12)  # leaf upflow
    assert quotient.entries[0, 0] == 0.0 and quotient.entries[1, 1] == 0.0


def test_pseudo_regular_p4_witness():
    # Perron vector of the 4-path is proportional to (1, phi, phi, 1).
    g, dec = prepared(generate_named("path", 4))
    quotient, witness = pseudo_regular_check(g, dec, distances_from(g, 1))
    assert quotient is None
    assert (witness.cell, witness.target) == (1, 0)
    assert (witness.vertex_a, witness.vertex_b) == (0, 2)
    assert witness.value_a == pytest.approx(GOLDEN, abs=1e-9)
    assert witness.value_b == pytest.approx(1.0, abs=1e-9)
    assert witness.gap >= 0.5


def test_pseudo_regular_rejects_malformed_partition():
    g, dec = prepared(generate_named("cycle", 4))
    with pytest.raises(ValueError, match="one non-negative integer per vertex"):
        pseudo_regular_check(g, dec, np.array([0, 1, 1]))  # wrong length
    with pytest.raises(ValueError, match="one non-negative integer per vertex"):
        pseudo_regular_check(g, dec, np.array([0, -1, 1, 1]))  # negative label
    with pytest.raises(ValueError, match="empty cell"):
        pseudo_regular_check(g, dec, np.array([0, 2, 2, 2]))  # label 1 skipped


def test_quotient_rows_sum_to_radius():
    for g in [generate_named("petersen"), generate_named("complete_bipartite", 2, 3)]:
        dec = decompose(g)
        quotient, _ = pseudo_regular_check(g, dec, distances_from(g, 0))
        sums = quotient.entries.sum(axis=1)
        assert np.max(np.abs(sums - dec.spectral_radius)) < 1e-9


def reference_partition_check(g, dec, labels, eps):
    # Plain loops, one cell at a time: the first (cell, target) pair whose
    # spread exceeds eps, its extreme vertices (lowest id on ties) in id
    # order, else the quotient of cell-by-cell means. Every sum adds its
    # terms one at a time in id order: a vertex's neighbors for its weighted
    # counts, a cell's members for their mean.
    alpha = dec.perron
    cells = [np.flatnonzero(labels == i) for i in range(labels.max() + 1)]
    flows = np.zeros((g.n, len(cells)))
    for v in range(g.n):
        for w in np.flatnonzero(g.adjacency[v]):
            flows[v, labels[w]] += alpha[w]
    flows /= alpha[:, None]
    for i, cell in enumerate(cells):
        for j in range(len(cells)):
            col = flows[cell, j]
            if col.max() - col.min() > eps:
                a, b = sorted((int(col.argmin()), int(col.argmax())))
                return None, (i, j, int(cell[a]), int(cell[b]), float(col[a]), float(col[b]))
    means = np.zeros((len(cells), len(cells)))
    for i, cell in enumerate(cells):
        for v in cell:
            means[i] += flows[v]
    return means / np.array([len(cell) for cell in cells])[:, None], None


def reference_triples(entries):
    # Level i reads (entries[i, i-1], entries[i, i], entries[i, i+1]), zero
    # past the ends; None when an entry off the band is nonzero.
    m = len(entries)
    if any(entries[i, j] != 0 for i in range(m) for j in range(m) if abs(i - j) > 1):
        return None
    return tuple(
        (float(entries[i, i - 1]) if i else 0.0, float(entries[i, i]), float(entries[i, i + 1]) if i + 1 < m else 0.0)
        for i in range(m)
    )


def test_partition_check_matches_loop_reference():
    # Distance partitions of every n <= 5 graph, of large-cell catalog graphs
    # and of the deepest ones, plus one-cell rows (no edge between cells)
    # and seeded random label rows of up to 6 cells, whose edges join cells
    # up to 5 apart: the same witnesses, quotients equal to the last bit,
    # and the same level triples, or a ValueError where a partition that is
    # not a distance partition has an off-band quotient entry.
    rng = np.random.default_rng(7)
    off_band, gaps = 0, set()
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += [generate_named(*s) for s in [("complete", 30), ("complete_bipartite", 10, 20), ("hypercube", 5)]]
    graphs += [generate_named(*s) for s in [("path", 62), ("cycle", 62), ("hypercube", 6)]]
    for g in graphs:
        dec = decompose(g)
        eps = DEFAULT_TOL.scaled("eps_pdr", dec.spectral_radius)
        rows = [distances_from(g, u) for u in range(g.n)] + [np.zeros(g.n, dtype=np.int64)]
        rows += [np.unique(rng.integers(0, rng.integers(2, 7), g.n), return_inverse=True)[1] for _ in range(3)]
        for labels in rows:
            gaps.add(int(np.abs(labels[:, None] - labels)[g.adjacency].max(initial=0)))
            quotient, witness = pseudo_regular_check(g, dec, labels)
            want_entries, want_witness = reference_partition_check(g, dec, labels, eps)
            if want_witness is None:
                assert witness is None and quotient.entries.tobytes() == want_entries.tobytes()
                want_triples = reference_triples(want_entries)
                if want_triples is None:
                    off_band += 1
                    with pytest.raises(ValueError, match="not tridiagonal"):
                        quotient.tridiagonal()
                else:
                    assert quotient.tridiagonal() == want_triples
                assert quotient.levels == QuotientMatrix(entries=quotient.entries).levels
            else:
                assert quotient is None
                got = (witness.cell, witness.target, witness.vertex_a, witness.vertex_b)
                assert got + (witness.value_a, witness.value_b) == want_witness
    assert off_band > 0 and gaps == {0, 1, 2, 3, 4, 5}


# --- per-vertex reports ---------------------------------------------------------


def test_is_pdr_petersen():
    g, dec = prepared(generate_named("petersen"))
    for u in range(10):
        rep = is_pdr_around(g, dec, u)
        assert rep.is_pdr and rep.via_partition and rep.via_polynomials and rep.extremal
        triples = rep.quotient.tridiagonal()
        assert np.allclose(triples, [(0, 0, 3), (1, 0, 2), (1, 2, 0)], atol=1e-9)


def test_is_pdr_p4_end_vertex():
    g, dec = prepared(generate_named("path", 4))
    rep = is_pdr_around(g, dec, 0)
    assert rep.is_pdr and rep.extremal
    assert rep.eccentricity == 3 and rep.local_degree == 3


def test_is_pdr_p4_inner_vertex():
    g, dec = prepared(generate_named("path", 4))
    rep = is_pdr_around(g, dec, 1)
    assert not rep.is_pdr and not rep.via_partition and not rep.via_polynomials
    assert rep.witness is not None and rep.quotient is None


def test_characterizations_agree_n_up_to_5():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            dec = decompose(g)
            for u in range(g.n):
                rep = is_pdr_around(g, dec, u)  # raises on disagreement
                assert rep.via_partition == rep.via_polynomials
                if rep.is_pdr:
                    assert rep.extremal


def test_sum_rule_at_pdr_vertices():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            dec = decompose(g)
            for u in range(g.n):
                rep = is_pdr_around(g, dec, u)
                if rep.is_pdr:
                    for triple in rep.quotient.tridiagonal():
                        assert abs(sum(triple) - dec.spectral_radius) < 1e-7


# --- walk formulas ---------------------------------------------------------------


def test_walk_formula_k3():
    g, dec = prepared(generate_named("complete", 3))
    res_u, res_v = walk_formula_check(g, dec, 0, 1, 1)
    assert max(res_u, res_v) < 1e-10
    assert adjacency_powers(g, 1)[1][0, 1] == 1


def test_walk_formula_petersen_no_common_neighbors():
    g, dec = prepared(generate_named("petersen"))
    res = walk_formula_check(g, dec, 0, 1, 2)
    assert max(res) < 1e-9
    assert adjacency_powers(g, 2)[2][0, 1] == 0


def test_walk_formula_c4_length3():
    g, dec = prepared(generate_named("cycle", 4))
    res = walk_formula_check(g, dec, 0, 1, 3)
    assert max(res) < 1e-9
    # Exact count: four walks of length three between adjacent vertices.
    assert adjacency_powers(g, 3)[3][0, 1] == 4


def test_walk_formula_requires_adjacency():
    g, dec = prepared(generate_named("cycle", 4))
    with pytest.raises(ValueError):
        walk_formula_check(g, dec, 0, 2, 3)
    with pytest.raises(ValueError, match="vertices 0 and 2 are not adjacent"):
        walk_formula_check(g, dec, np.array([0, 0]), np.array([1, 2]), 3)


def test_walk_formula_rejects_vertices_out_of_range():
    # Before the adjacency test: -1 would read vertex 4, and 7 would index past the matrix.
    g, dec = prepared(generate_named("cycle", 5))
    for u, v, bad in [(-1, 0, -1), (0, 7, 7), (np.array([0, 1]), np.array([1, 5]), 5), (np.array([-2, 0]), 1, -2)]:
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for a graph on 5 vertices$"):
            walk_formula_check(g, dec, u, v, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, dec: walk_formula_check(g, dec, 0, 1, 2),
        lambda g, dec: is_pdr_around(g, dec, 0),
        lambda g, dec: classify(g, dec=dec),
        lambda g, dec: pseudo_regular_check(g, dec, distances_from(g, 0)),
        lambda g, dec: walk_regularity(g, dec),
    ],
    ids=["walk_formula_check", "is_pdr_around", "classify", "pseudo_regular_check", "walk_regularity"],
)
def test_decomposition_of_another_order_is_refused(call):
    # Without the check these end in numpy broadcasting or IndexError, or
    # in residuals computed from the wrong spectrum.
    g, dec = generate_named("petersen"), decompose(generate_named("cycle", 12))
    with pytest.raises(ValueError, match="^the decomposition is of a graph on 12 vertices, not 10$"):
        call(g, dec)


@pytest.mark.parametrize("spec", [("petersen",), ("complete_bipartite", 2, 3)])
def test_walk_formula_index_arrays_match_scalar_calls(spec):
    g, dec = prepared(generate_named(*spec))
    us, vs = np.nonzero(np.triu(g.adjacency, 1))
    for length in range(7):
        res_u, res_v = walk_formula_check(g, dec, us, vs, length)
        scalar = [walk_formula_check(g, dec, int(u), int(v), length) for u, v in zip(us, vs)]
        assert list(zip(res_u.tolist(), res_v.tolist())) == scalar


def test_walk_formula_violations_edge_major():
    # A walk tolerance far below rounding makes the formulas fail; the suite
    # must report them edge by edge, as one scalar call per (edge, length) would.
    g, dec = prepared(generate_named("complete_bipartite", 2, 3))
    tol = ToleranceConfig(eps_walk=1e-30)
    got = [v.detail for v in verify_graph(g, tol).violations if v.check == "walk_formula"]
    want = []
    for u, v in np.argwhere(np.triu(g.adjacency, 1)):
        for length in range(7):
            res = max(walk_formula_check(g, dec, int(u), int(v), length))
            if res > tol.scaled("eps_walk", dec.spectral_radius, length):
                want.append(f"edge ({u}, {v}), length {length}: residual {res:.3e}")
    assert got and got == want


def test_walk_formula_broadcasts_lengths_against_the_pairs():
    g, dec = prepared(generate_named("complete_bipartite", 2, 3))
    us, vs = np.nonzero(np.triu(g.adjacency, 1))
    res_u, res_v = walk_formula_check(g, dec, us[:, None], vs[:, None], range(7))
    assert res_u.shape == res_v.shape == (len(us), 7)
    for length in range(7):
        one_u, one_v = walk_formula_check(g, dec, us, vs, length)
        assert np.array_equal(res_u[:, length], one_u) and np.array_equal(res_v[:, length], one_v)


@pytest.mark.parametrize(
    "length, message",
    [
        (-1, "walk length -1 is negative"),
        (np.array([2, -3]), "walk length -3 is negative"),
        (2.0, "walk length must be an integer, not float64"),
        (4, "walk length 4 is past the adjacency powers or walk table given"),
    ],
    ids=["negative", "negative-in-array", "float", "past-powers"],
)
def test_walk_formula_rejects_bad_lengths(length, message):
    # Without the check -1 read A^3 and the table's length-0 column, and a
    # length past the powers ended in IndexError.
    g, dec = prepared(generate_named("petersen"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        walk_formula_check(g, dec, 0, 1, length, adjacency_powers(g, 3))


def test_walk_formula_rejects_a_length_past_the_table():
    g, dec = prepared(generate_named("petersen"))
    table = _closed_walk_table(dec.eigenvalues, dec.local_multiplicity_matrix(), 3)  # lengths 0..2
    assert max(walk_formula_check(g, dec, 0, 1, 2, adjacency_powers(g, 3), table=table)) < 1e-9
    with pytest.raises(ValueError, match="^walk length 3 is past the adjacency powers or walk table given$"):
        walk_formula_check(g, dec, 0, 1, 3, adjacency_powers(g, 3), table=table)


# --- combinatorial oracle ---------------------------------------------------------


def test_combinatorial_arrays():
    arr = combinatorial_intersection_array(generate_named("petersen"), 0)
    assert (arr.b, arr.c, arr.a) == ((3, 2), (1, 1), (0, 0, 2))

    arr = combinatorial_intersection_array(generate_named("cycle", 6), 0)
    assert (arr.b, arr.c) == ((2, 1, 1), (1, 1, 2))

    arr = combinatorial_intersection_array(generate_named("cycle", 5), 0)
    assert (arr.b, arr.c) == ((2, 1), (1, 1))

    arr = combinatorial_intersection_array(generate_named("complete", 4), 0)
    assert (arr.b, arr.c) == ((3,), (1,))

    assert combinatorial_intersection_array(generate_named("path", 4), 1) is None


# --- walk regularity ----------------------------------------------------------------


def test_walk_regularity_labels():
    g, dec = prepared(generate_named("petersen"))
    assert walk_regularity(g, dec) == WALK_REGULAR
    g, dec = prepared(generate_named("complete_bipartite", 2, 3))
    assert walk_regularity(g, dec) == WALK_BIREGULAR
    g, dec = prepared(generate_named("path", 4))
    assert walk_regularity(g, dec) == WALK_NEITHER


# --- classification -----------------------------------------------------------------


def test_classify_petersen():
    cls = classify(generate_named("petersen"))
    assert cls.verdict == VERDICT_DISTANCE_REGULAR
    (arr,) = cls.intersection_arrays
    assert (arr.b, arr.c) == ((3, 2), (1, 1))
    assert cls.alpha_levels == (pytest.approx(1.0, abs=1e-12),)
    assert cls.walk_regularity == WALK_REGULAR
    assert cls.witness is None


def test_classify_named_regular_family():
    for name, args, b, c in [
        ("cycle", (5,), (2, 1), (1, 1)),
        ("cycle", (6,), (2, 1, 1), (1, 1, 2)),
        ("complete", (4,), (3,), (1,)),
        ("complete", (1,), (), ()),
        ("complete_bipartite", (3, 3), (3, 2), (1, 3)),
    ]:
        cls = classify(generate_named(name, *args))
        assert cls.verdict == VERDICT_DISTANCE_REGULAR
        (arr,) = cls.intersection_arrays
        assert (arr.b, arr.c) == (b, c)


def test_classify_k23():
    cls = classify(generate_named("complete_bipartite", 2, 3))
    assert cls.verdict == VERDICT_DISTANCE_BIREGULAR
    first, second = cls.intersection_arrays
    assert first.part == 0 and (first.b, first.c) == ((3, 1), (1, 3))
    assert second.part == 1 and (second.b, second.c) == ((2, 2), (1, 2))
    assert cls.alpha_levels[0] == pytest.approx(np.sqrt(5 / 4), abs=1e-9)
    assert cls.alpha_levels[1] == pytest.approx(np.sqrt(5 / 6), abs=1e-9)
    assert cls.walk_regularity == WALK_BIREGULAR


def test_classify_star():
    cls = classify(generate_named("complete_bipartite", 1, 3))
    assert cls.verdict == VERDICT_DISTANCE_BIREGULAR
    first, second = cls.intersection_arrays
    assert (first.b, first.c) == ((3,), (1,))
    assert (second.b, second.c) == ((1, 2), (1, 1))
    # Closed forms with degrees (3, 1).
    assert cls.alpha_levels[0] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert cls.alpha_levels[1] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-9)


def test_classify_p4_negative_control():
    cls = classify(generate_named("path", 4))
    assert cls.verdict == VERDICT_NOT_PDR
    assert cls.witness == 1  # lowest failing vertex is inner
    assert cls.intersection_arrays is None and cls.alpha_levels is None
    assert cls.walk_regularity == WALK_NEITHER


def test_classify_theorem_dichotomy_n_up_to_5():
    # Every all-PDR graph must come out distance-regular or distance-biregular,
    # regular ones regular, non-regular ones bipartite biregular.
    seen = {VERDICT_DISTANCE_REGULAR: 0, VERDICT_DISTANCE_BIREGULAR: 0, VERDICT_NOT_PDR: 0}
    for n in range(1, 6):
        for g in enumerate_connected(n):
            dec = decompose(g)
            reports = [is_pdr_around(g, dec, u) for u in range(g.n)]
            cls = classify(g, dec=dec, reports=reports)
            seen[cls.verdict] += 1
            if all(r.is_pdr for r in reports):
                assert cls.verdict in (VERDICT_DISTANCE_REGULAR, VERDICT_DISTANCE_BIREGULAR)
                degs = g.degrees
                if degs.min() == degs.max():
                    assert cls.verdict == VERDICT_DISTANCE_REGULAR
                else:
                    assert cls.verdict == VERDICT_DISTANCE_BIREGULAR
            else:
                assert cls.verdict == VERDICT_NOT_PDR
                assert not reports[cls.witness].is_pdr
    # Labeled counts on up to five vertices: the distance-regular graphs are
    # K_1, K_2, K_3, the 3 labelings of C_4, K_4, the 12 labelings of C_5,
    # and K_5 (total 20); the distance-biregular ones are the stars on 3..5
    # vertices (3 + 4 + 5 labelings) and the 10 labelings of K_{2,3}.
    assert seen[VERDICT_DISTANCE_REGULAR] == 20
    assert seen[VERDICT_DISTANCE_BIREGULAR] == 22
    assert seen[VERDICT_NOT_PDR] == 730


def loop_intersection_array(g, u):
    """Plain-loop reference: per-level sets of (down, stay, up) neighbor counts."""
    dist = [int(d) for d in g.distances[u]]
    levels = {}
    for v in range(g.n):
        counts = [0, 0, 0]
        for w in range(g.n):
            if g.adjacency[v, w] and abs(dist[w] - dist[v]) <= 1:
                counts[dist[w] - dist[v] + 1] += 1
        levels.setdefault(dist[v], set()).add(tuple(counts))
    if any(len(found) > 1 for found in levels.values()):
        return None
    rows = [levels[i].pop() for i in range(len(levels))]
    return tuple(r[2] for r in rows[:-1]), tuple(r[0] for r in rows[1:]), tuple(r[1] for r in rows)


def test_intersection_array_matches_loop_reference():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for u in range(g.n):
                arr = combinatorial_intersection_array(g, u)
                got = None if arr is None else (arr.b, arr.c, arr.a)
                assert got == loop_intersection_array(g, u)


def test_distance_regular_verdicts_match_networkx():
    # Differential oracle: on every connected regular graph with n <= 6 and on
    # the catalog, classify finds a distance-regular graph exactly when
    # networkx does, with the same intersection array. networkx refuses any
    # graph of diameter above 8 log2(n) / 3, so its answer on a cycle longer
    # than 26 is wrong; cycle:40 is checked against its textbook array.
    nx = pytest.importorskip("networkx")
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n) if g.degrees.min() == g.degrees.max()]
    assert len(graphs) == 166
    catalog = [
        ("petersen",),
        ("complete", 8),
        ("complete_bipartite", 4, 4),
        ("complete_bipartite", 3, 7),
        ("hypercube", 4),
        ("cycle", 13),
        ("cycle", 20),
        ("path", 8),
    ]
    graphs += [generate_named(*spec) for spec in catalog]
    regular = 0
    for g in graphs:
        h = nx.from_numpy_array(g.adjacency.astype(int))
        cls = classify(g)
        assert (cls.verdict == VERDICT_DISTANCE_REGULAR) == nx.is_distance_regular(h)
        if cls.verdict == VERDICT_DISTANCE_REGULAR:
            regular += 1
            (arr,) = cls.intersection_arrays
            b, c = nx.intersection_array(h)
            assert (arr.b, arr.c) == (tuple(b), tuple(c))
    assert regular == 106 + 6
    (arr,) = classify(generate_named("cycle", 40)).intersection_arrays
    assert (arr.b, arr.c) == ((2,) + (1,) * 19, (1,) * 19 + (2,))


# --- transform consistency -------------------------------------------------------
# classify compares each vertex's pseudo-intersection numbers with the
# Perron-ratio transform of its integer counts, in one operation for every
# vertex; these tests read the residuals of that comparison.


def transform_residuals(g, dec, u):
    """(down, stay, up) residuals per level 0..eccentricity at u."""
    report = is_pdr_around(g, dec, u)
    assert report.is_pdr
    counts, regular = _intersection_arrays(g, np.array([u]))
    assert regular[0]
    levels = np.array(classify(g, dec=dec).alpha_levels)  # one per part
    sides = np.zeros(1, dtype=np.int64) if len(levels) == 1 else g.bipartition.side[[u]]
    res = _transform_residuals(levels, sides, [report.quotient.tridiagonal()], counts)
    return res[0, : report.eccentricity + 1]


def test_transform_petersen_zero_residuals():
    g, dec = prepared(generate_named("petersen"))
    res = transform_residuals(g, dec, 0)
    assert res.shape == (3, 3)
    assert float(res.max()) < 1e-10


def test_transform_c6():
    g, dec = prepared(generate_named("cycle", 6))
    res = transform_residuals(g, dec, 0)
    assert float(res.max()) < 1e-10
    arr = combinatorial_intersection_array(g, 0)
    assert (arr.b, arr.c) == ((2, 1, 1), (1, 1, 2))


def test_transform_k23_degree3_side():
    g, dec = prepared(generate_named("complete_bipartite", 2, 3))
    res = transform_residuals(g, dec, 0)
    assert float(res.max()) < 1e-9


@pytest.mark.parametrize("case", ["path5-one-report", "path5-no-reports", "petersen-twice"])
def test_classify_needs_one_report_per_vertex(case):
    # Without the check, one report of path:5 ended in InternalCheckError, no
    # reports in numpy's IndexError, and Petersen's reports listed twice
    # still gave distance_regular.
    g = generate_named("petersen") if case == "petersen-twice" else generate_named("path", 5)
    dec = decompose(g)
    reports = {
        "path5-one-report": [is_pdr_around(g, dec, 0)],
        "path5-no-reports": [],
        "petersen-twice": [is_pdr_around(g, dec, u) for u in range(g.n)] * 2,
    }[case]
    with pytest.raises(ValueError, match=f"^classify needs one report per vertex of a graph on {g.n} vertices$"):
        classify(g, dec=dec, reports=reports)


def test_transform_rejects_irregular_vertex():
    # A vertex without an integer intersection array never reaches the
    # transform: classify's integer oracle refuses the graph first, even when
    # every report claims pseudo-distance-regularity. The triangular prism is
    # regular but not distance-regular.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    dec = decompose(g)
    assert combinatorial_intersection_array(g, 0) is None
    reports = [dataclasses.replace(is_pdr_around(g, dec, u), is_pdr=True) for u in range(g.n)]
    with pytest.raises(InternalCheckError, match="integer distance-regularity oracle"):
        classify(g, dec=dec, reports=reports)


def test_transform_star_leaf():
    # Around a leaf of a star: cells {leaf}, {center}, {other leaves} are
    # constant-Perron and integer-regular, so the transform must line up.
    g = generate_named("complete_bipartite", 1, 3)
    dec = decompose(g)
    res = transform_residuals(g, dec, 1)
    assert float(res.max()) < 1e-9


def test_transform_rejects_nonconstant_cells():
    # The transform assumes the Perron vector constant on every distance
    # cell; classify checks that on each part before it compares: on the
    # whole vertex set of a regular graph, and on each part of a biregular
    # one, where it alone bounds the spread over a neighbourhood. No graph
    # this small breaks it, so doctor the decomposition.
    cases = (
        (("cycle", 4), 1, "Perron vector is not constant"),
        (("complete_bipartite", 2, 3), 0, "not constant on part 0"),  # vertex 0 lies in part 0
    )
    for spec, vertex, where in cases:
        g = generate_named(*spec)
        dec = decompose(g)
        reports = [is_pdr_around(g, dec, u) for u in range(g.n)]
        skew = dec.perron.copy()
        skew[vertex] *= 1.5
        doctored = type(dec)(
            eigenvalues=dec.eigenvalues,
            multiplicities=dec.multiplicities,
            idempotents=dec.idempotents,
            perron=skew,
        )
        with pytest.raises(InternalCheckError, match=where):
            classify(g, dec=doctored, reports=reports)


def subdivided_prism():
    """The triangular prism with every edge subdivided: the prism's vertices
    0..5 on part 0, the midpoint 6 + k of prism edge k on part 1."""
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return Graph.from_edges(15, [e for k, (u, v) in enumerate(prism) for e in ((u, 6 + k), (6 + k, v))])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: generate_named("path", 4), "all-PDR non-regular graph must be bipartite biregular"),
        (subdivided_prism, "integer distance-regularity oracle: unequal arrays on part 0"),
    ],
)
def test_classify_rejects_all_pdr_reports_outside_the_theorem(build, message):
    # Neither graph is pseudo-distance-regular at every vertex, so reports
    # doctored to say it is must fail the theorem's outcome. The subdivided
    # prism is bipartite (3, 2)-biregular but walk label `neither`: it fails
    # at the arrays because they are checked before the walk label.
    g = build()
    dec = decompose(g)
    assert classify(g, dec=dec).verdict == VERDICT_NOT_PDR
    reports = [dataclasses.replace(is_pdr_around(g, dec, u), is_pdr=True) for u in range(g.n)]
    with pytest.raises(InternalCheckError, match=message):
        classify(g, dec=dec, reports=reports)


def test_subdivided_prism_is_biregular_and_walk_neither():
    g = subdivided_prism()
    assert g.bipartition.part_degrees == (3, 2)
    assert walk_regularity(g, decompose(g)) == WALK_NEITHER


@pytest.mark.parametrize(
    "spec, walk",
    [
        (("petersen",), "distance-regular graph is not walk-regular"),
        (("complete_bipartite", 2, 3), "distance-biregular graph is not walk-biregular"),
    ],
)
def test_classify_rejects_doctored_walk_label_and_perron_level(spec, walk):
    # One idempotent's diagonal entry moved breaks the walk label; a Perron
    # vector scaled by 1.01 stays constant on each part but leaves the
    # closed form sqrt(n / (P * n_p)).
    g = generate_named(*spec)
    dec = decompose(g)
    reports = [is_pdr_around(g, dec, u) for u in range(g.n)]
    idempotents = dec.idempotents.copy()
    idempotents[1, 0, 0] += 1e-3
    with pytest.raises(InternalCheckError, match=walk):
        classify(g, dec=dataclasses.replace(dec, idempotents=idempotents), reports=reports)
    with pytest.raises(InternalCheckError, match=r"Perron level \S+ on part 0 .* deviates from its closed form"):
        classify(g, dec=dataclasses.replace(dec, perron=1.01 * dec.perron), reports=reports)


# --- whole-graph suite -----------------------------------------------------------


def test_verify_graph_clean_on_named_set():
    for g in [
        generate_named("petersen"),
        generate_named("path", 4),
        generate_named("complete_bipartite", 2, 3),
        generate_named("cycle", 6),
        generate_named("complete", 1),
    ]:
        result = verify_graph(g)
        assert result.violations == ()


def test_verify_graph_verdicts():
    assert verify_graph(generate_named("petersen")).verdict == VERDICT_DISTANCE_REGULAR
    assert verify_graph(generate_named("path", 4)).verdict == VERDICT_NOT_PDR
    r = verify_graph(generate_named("complete_bipartite", 1, 2))
    assert r.verdict == VERDICT_DISTANCE_BIREGULAR and r.all_pdr


def test_verify_graph_tags_disconnected_input():
    r = verify_graph(Graph.from_edges(4, [(0, 2), (1, 3)]))
    assert r.verdict is None and not r.all_pdr
    assert [v.check for v in r.violations] == ["connectivity"]
    assert "vertex 1 is unreachable from 0" in r.violations[0].detail


def test_verify_graph_tags_numerical_error_after_decompose(monkeypatch):
    from pdrkit import pdr

    build = pdr._predistance_block

    def ill_conditioned(vertices, *args):
        block = build(vertices, *args)
        return dataclasses.replace(block, errors=[IllConditionedMeasureError(f"rank loss at vertex {u}") for u in vertices])

    monkeypatch.setattr(pdr, "_predistance_block", ill_conditioned)
    r = verify_graph(generate_named("petersen"))
    assert r.verdict is None and not r.all_pdr
    assert [(v.check, v.detail) for v in r.violations] == [("numerical", "rank loss at vertex 0")]


def test_walk_formulas_share_the_closed_walk_bounds(monkeypatch):
    # The adjacent-pair walk formulas are judged against the same eps_walk
    # bound of each (graph, length) as the closed-walk identity, taken from
    # the spectral radius as an array. On K6 (spectral radius
    # 4.999999999999997) numpy's array power of length 6 can be one ulp
    # below the power of a Python float, so a residual one ulp past the
    # array bound could slip through the adjacent-pair check at that length.
    from pdrkit import parse_graph6, pdr

    g = parse_graph6("E~~w")
    lam0 = np.array([decompose(g).spectral_radius])
    lengths = np.arange(7)
    bounds = DEFAULT_TOL.scaled("eps_walk", lam0[:, None], lengths)[0]

    def residuals_at(offset):
        def fake(g, dec, u, v, length, powers=None, *, table=None):
            length = np.broadcast_arrays(u, v, length)[2]
            return np.nextafter(bounds, offset * np.inf)[length] if offset else bounds[length], np.zeros(length.shape)

        return fake

    edges = {(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(g.adjacency, 1)))}
    for offset, flagged in ((0, set()), (-1, set()), (1, {(*e, L) for e in edges for L in range(7)})):
        monkeypatch.setattr(pdr, "walk_formula_check", residuals_at(offset))
        r = verify_graph(g)
        assert r.verdict == VERDICT_DISTANCE_REGULAR and all(v.check == "walk_formula" for v in r.violations)
        got = {tuple(map(int, re.match(r"edge \((\d+), (\d+)\), length (\d+):", v.detail).groups())) for v in r.violations}
        assert got == flagged


def test_verify_graph_tags_a_failed_classification_and_skips_the_walk_formulas(monkeypatch):
    # Every vertex of petersen passes, so the graph is all-PDR whatever
    # classify concludes; a walk label outside the theorem is an internal
    # error, and the walk formulas, which presume the verdict, do not run.
    from pdrkit import pdr

    monkeypatch.setattr(pdr, "walk_regularity", lambda g, dec, tol=DEFAULT_TOL: WALK_NEITHER)
    monkeypatch.setattr(pdr, "walk_formula_check", None)  # must not be reached
    r = verify_graph(generate_named("petersen"))
    assert r.verdict is None and r.all_pdr
    assert r.violations == (Violation("classification_internal", "distance-regular graph is not walk-regular"),)


@pytest.mark.parametrize(
    "spec, verdict, calls",
    [(("path", 4), VERDICT_NOT_PDR, 0), (("petersen",), VERDICT_DISTANCE_REGULAR, 1)],
    ids=["path4", "petersen"],
)
def test_verify_graph_classifies_only_graphs_that_pass_at_every_vertex(monkeypatch, spec, verdict, calls):
    # At a negative eps_orth every vertex has all four contract violations,
    # so both graphs leave the stack for their rows' violations; path:4
    # fails at vertex 1 and is not_pdr without classify, petersen still
    # goes through it.
    from pdrkit import pdr

    called = []
    real = pdr.classify
    monkeypatch.setattr(pdr, "classify", lambda *args, **kwargs: called.append(1) or real(*args, **kwargs))
    g = generate_named(*spec)
    r = verify_graph(g, ToleranceConfig(eps_orth=-1.0))
    assert (r.verdict, r.all_pdr, len(called)) == (verdict, verdict != VERDICT_NOT_PDR, calls)
    tags = ["pd_orthogonality", "pd_normalization", "pd_closed_forms", "pd_recurrence"]
    assert [v.check for v in r.violations] == tags * g.n
    assert [int(v.detail.split()[1].rstrip(":,")) for v in r.violations] == [u for u in range(g.n) for _ in tags]


@pytest.mark.parametrize(
    "spec, verdict",
    [(("cycle", k), VERDICT_DISTANCE_REGULAR) for k in (40, 45, 63, 90, 120)]
    + [(("path", k), VERDICT_NOT_PDR) for k in (22, 29, 40, 70, 100)]
    + [(("hypercube", d), VERDICT_DISTANCE_REGULAR) for d in (6, 7, 8)],
)
def test_classify_high_local_degree(spec, verdict):
    # Local degree up to 99 (path:100), far past where a monomial basis is usable.
    assert classify(generate_named(*spec)).verdict == verdict


@pytest.mark.parametrize("spec", [("cycle", 40), ("cycle", 45), ("path", 22), ("path", 29), ("path", 40)])
def test_verify_graph_clean_at_high_local_degree(spec):
    assert verify_graph(generate_named(*spec)).violations == ()


def lollipop(m, p):
    """K_m + P_p: the clique 0..m-1 with the path m, m+1, ..., m+p-1 hanging off vertex m-1."""
    edges = [(u, v) for v in range(m) for u in range(v)]
    return Graph.from_edges(m + p, edges + [(v - 1, v) for v in range(m, m + p)])


def random_connected_graphs(count, seed=1):
    """Seeded connected graphs with 2 <= n <= 30: a random spanning tree, then
    random extra edges, a clique on the first vertices, or G(n, q) edges, and
    a random relabelling."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 31))
        adj = np.zeros((n, n), dtype=bool)
        for v in range(1, n):
            u = int(rng.integers(v))
            adj[u, v] = adj[v, u] = True
        kind = int(rng.integers(3))
        if kind == 0:
            for u, v in rng.integers(n, size=(int(rng.integers(n + 1)), 2)).tolist():
                adj[u, v] = adj[v, u] = u != v
        elif kind == 1:
            m = int(rng.integers(2, n + 1))
            adj[:m, :m] = True
        else:
            upper = np.triu(rng.random((n, n)) < rng.random(), 1)
            adj |= upper | upper.T
        np.fill_diagonal(adj, False)
        perm = rng.permutation(n)
        yield Graph.from_adjacency(adj[np.ix_(perm, perm)])


def test_lollipops_never_abort():
    # The path end of a lollipop has a Perron entry far below the clamp
    # threshold of its squared value; the spectral radius must stay in its
    # local measure, so that neither entry point fails on the graph.
    assert serialize_graph6(lollipop(5, 7)) == "K~{GGC@?G?_@"
    for m in range(3, 16):
        for p in range(1, 16):
            g = lollipop(m, p)
            verify_graph(g)
            try:
                classify(g)
            except NumericalError:
                pass


def test_short_lollipops_are_clean_not_pdr():
    for m in range(3, 16):
        for p in range(1, 7):
            g = lollipop(m, p)
            result = verify_graph(g)
            assert (result.verdict, result.violations) == (VERDICT_NOT_PDR, ()), (m, p)
            assert classify(g).verdict == VERDICT_NOT_PDR, (m, p)


def test_random_connected_graphs_never_abort():
    # Graphs with a vertex whose spectral-radius weight alpha_u^2 / n falls
    # below eps_mult are among these; each gets a result.
    graphs = list(random_connected_graphs(300))
    assert min(float(decompose(g).perron.min()) ** 2 / g.n for g in graphs) < DEFAULT_TOL.eps_mult
    for g in graphs:
        verify_graph(g)


@pytest.mark.parametrize("spec", [("petersen",), ("complete_bipartite", 2, 3)])
def test_checks_never_expand_monomials(monkeypatch, capsys, spec):
    # The monomial expansion is a reporting aid of spectrum --vertex alone.
    from pdrkit import cli

    def refuse(*args, **kwargs):
        raise AssertionError("monomial coefficients expanded")

    monkeypatch.setattr(cli, "_monomial_coefficients", refuse)
    g = generate_named(*spec)
    assert verify_graph(g).violations == ()
    assert classify(g).verdict in (VERDICT_DISTANCE_REGULAR, VERDICT_DISTANCE_BIREGULAR)
    named = ":".join([spec[0], ",".join(map(str, spec[1:]))]) if len(spec) > 1 else spec[0]
    assert cli.main(["analyze", "--named", named]) == 0
    assert cli.main(["spectrum", "--named", named]) == 0
    with pytest.raises(AssertionError, match="monomial coefficients expanded"):
        cli.main(["spectrum", "--named", named, "--vertex", "0"])
    capsys.readouterr()


@pytest.mark.parametrize("spec", [("petersen",), ("complete_bipartite", 2, 3)])
def test_classify_rejects_doctored_quotient(spec):
    # classify is the only check comparing pseudo-intersection numbers with
    # the Perron-ratio transform of the integer counts, in both verdicts.
    g = generate_named(*spec)
    dec = decompose(g)
    reports = [is_pdr_around(g, dec, u) for u in range(g.n)]
    assert classify(g, dec=dec, reports=reports).verdict in (VERDICT_DISTANCE_REGULAR, VERDICT_DISTANCE_BIREGULAR)
    entries = reports[1].quotient.entries.copy()
    entries[0, 1] += 1e-3
    reports[1] = dataclasses.replace(reports[1], quotient=QuotientMatrix(entries=entries))
    with pytest.raises(InternalCheckError, match="vertex 1 .*Perron-ratio transform"):
        classify(g, dec=dec, reports=reports)


def _verify(g):
    return verify_graph(g)


def _classify(g):
    return classify(g)


def _analysis_report(g):
    from pdrkit.cli import analysis_report

    return analysis_report(g)


@pytest.mark.parametrize("entry", [_verify, _classify, _analysis_report])
@pytest.mark.parametrize("spec", [("petersen",), ("complete_bipartite", 2, 3)])
def test_each_per_graph_fact_is_computed_once(monkeypatch, entry, spec):
    from pdrkit import cli, graph_core, pdr

    calls = Counter()
    # (module that looks the name up, function name)
    counted = [
        (graph_core, "_distance_stack"),
        (pdr, "_distance_stack"),
        (graph_core, "bipartition"),
        (pdr, "_vertex_block"),
        (pdr, "pseudo_regular_check"),
        (pdr, "is_pdr_around"),
        (pdr, "combinatorial_intersection_array"),
        (pdr, "_level_counts"),
        (pdr, "walk_formula_check"),
        (cli, "local_spectrum"),
        (cli, "build_predistance"),
    ]
    for module, name in counted:

        def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    g = generate_named(*spec)
    entry(g)
    # One distance matrix, from the stack of verify or from g.distances.
    assert calls["_distance_stack"] == 1
    # Needed only on a graph that is not regular.
    assert calls["bipartition"] == (0 if spec == ("petersen",) else 1)
    # One block of the vertex pass covers every vertex; nothing runs the one-vertex functions.
    assert calls["_vertex_block"] == 1
    for name in ("pseudo_regular_check", "is_pdr_around", "local_spectrum", "build_predistance"):
        assert calls[name] == 0, name
    # The all-PDR branch ran, and counted every vertex's neighbors in one batch.
    assert calls["_level_counts"] == 1 and calls["combinatorial_intersection_array"] == 0
    # One call for every edge at every walk length.
    assert calls["walk_formula_check"] == (1 if entry is _verify else 0)


def test_batched_level_counts_match_one_row_at_every_vertex():
    from pdrkit import pdr

    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    catalog = [("petersen",), ("cycle", 40), ("path", 40), ("hypercube", 5), ("complete_bipartite", 10, 20)]
    graphs += [generate_named(*spec) for spec in catalog]
    for g in graphs:
        levels, regular = pdr._intersection_arrays(g, np.arange(g.n))
        batched = [combinatorial_intersection_array(g, u) for u in range(g.n)]
        assert regular.tolist() == [a is not None for a in batched]
        for u in range(g.n):
            one, one_regular = pdr._intersection_arrays(g, np.array([u]))
            assert one_regular.tolist() == [regular[u]] and np.array_equal(one[0], levels[u, : one.shape[1]])
            assert not levels[u, one.shape[1] :].any()
        # The count array holds each array's (down, stay, up) levels, zero past the eccentricity.
        for u, a in enumerate(batched):
            if a is not None:
                want = np.zeros((levels.shape[1], 3), dtype=np.int64)
                want[: len(a.a)] = np.transpose([(0, *a.c), a.a, (*a.b, 0)])
                assert np.array_equal(levels[u], want)
        if g.n <= 5:
            assert [None if a is None else (a.b, a.c, a.a) for a in batched] == [
                loop_intersection_array(g, u) for u in range(g.n)
            ]
        counts = pdr._level_counts(g, np.arange(g.n))
        assert counts.shape == (g.n, g.n, 3)
        assert np.array_equal(counts.sum(axis=2), np.broadcast_to(g.degrees, (g.n, g.n)))


def test_quotient_triples_are_computed_once():
    g, dec = prepared(generate_named("petersen"))
    quotient, _ = pseudo_regular_check(g, dec, distances_from(g, 0))
    assert quotient.tridiagonal() is quotient.tridiagonal()
    # A partition that is not a distance partition: the error stays.
    g, dec = prepared(generate_named("complete", 3))
    quotient, _ = pseudo_regular_check(g, dec, np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="not tridiagonal"):
        quotient.tridiagonal()
    with pytest.raises(ValueError, match="not tridiagonal"):
        quotient.tridiagonal()
