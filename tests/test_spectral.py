"""Eigendecomposition, idempotents, Perron vector, local spectra, walk counts."""

import numpy as np
import pytest

from pdrkit import (
    GroupingAmbiguityError,
    NumericalError,
    ToleranceConfig,
    adjacency_powers,
    decompose,
    enumerate_connected,
    generate_named,
    is_pdr_around,
    local_spectrum,
)
from pdrkit.graph_core import ConnectivityError, Graph
from pdrkit.spectral import _group_stack


def small_corpus(max_n=5):
    for n in range(1, max_n + 1):
        yield from enumerate_connected(n)


# --- decomposition ----------------------------------------------------------


def test_k3_spectrum():
    # Characteristic polynomial of J - I: (x - 2)(x + 1)^2.
    dec = decompose(generate_named("complete", 3))
    assert np.allclose(dec.eigenvalues, [2.0, -1.0], atol=1e-12)
    assert list(dec.multiplicities) == [1, 2]


def test_idempotents_match_the_eigenvector_outer_products():
    # Each idempotent against (V V^T + (V V^T)^T) / 2, for V the group's
    # columns of the descending eigenvectors: a one-member group to the bit,
    # a larger group of m members within 4 m eps, whatever its neighbours.
    graphs = list(small_corpus(5))
    graphs += [generate_named(*spec) for spec in (("petersen",), ("complete", 8), ("hypercube", 4))]
    graphs += [generate_named(*spec) for spec in (("cycle", 20), ("path", 16), ("complete_bipartite", 3, 7))]
    eps = np.finfo(float).eps
    for g in graphs:
        dec = decompose(g)
        vecs = np.linalg.eigh(g.adjacency_matrix())[1][:, ::-1]
        start = 0
        for m, E in zip(dec.multiplicities.tolist(), dec.idempotents):
            V = vecs[:, start : start + m]
            start += m
            outer = V @ V.T
            want = (outer + outer.T) / 2
            if m == 1:
                assert E.tobytes() == want.tobytes(), g
            else:
                assert np.abs(E - want).max() <= 4 * m * eps, g


def test_c4_spectrum():
    # 2 cos(2 pi k / 4) for k = 0..3 gives 2, 0, 0, -2.
    dec = decompose(generate_named("cycle", 4))
    assert np.allclose(dec.eigenvalues, [2.0, 0.0, -2.0], atol=1e-12)
    assert list(dec.multiplicities) == [1, 2, 1]


def test_petersen_spectrum():
    dec = decompose(generate_named("petersen"))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0, -2.0], atol=1e-12)
    assert list(dec.multiplicities) == [1, 5, 4]
    # Trace cross-checks: sum m lambda = 0, sum m lambda^2 = 2 * edges.
    assert abs(np.dot(dec.multiplicities, dec.eigenvalues)) < 1e-10
    assert abs(np.dot(dec.multiplicities, dec.eigenvalues**2) - 30) < 1e-9


def test_decompose_requires_connected():
    with pytest.raises(ConnectivityError):
        decompose(Graph.from_edges(2, []))


def test_eigenvalues_strictly_decreasing_and_m0_one():
    for g in small_corpus():
        dec = decompose(g)
        assert dec.multiplicities[0] == 1
        assert int(dec.multiplicities.sum()) == g.n
        assert np.all(np.diff(dec.eigenvalues) < 0)


def test_idempotent_algebra():
    tol = 1e-7
    for g in small_corpus(4):
        dec = decompose(g)
        E = dec.idempotents
        A = g.adjacency_matrix()
        assert np.max(np.abs(E @ E - E)) < tol
        assert np.max(np.abs(E.sum(axis=0) - np.eye(g.n))) < tol
        assert np.max(np.abs(A @ E - dec.eigenvalues[:, None, None] * E)) < tol
        for i in range(dec.d + 1):
            for j in range(i + 1, dec.d + 1):
                assert np.max(np.abs(E[i] @ E[j])) < tol
            assert np.allclose(E[i], E[i].T)


def test_perron_properties():
    for g in small_corpus(4):
        dec = decompose(g)
        a = dec.perron
        assert np.all(a > 0)
        assert abs(np.dot(a, a) - g.n) < 1e-10
        assert np.max(np.abs(g.adjacency_matrix() @ a - dec.spectral_radius * a)) < 1e-9
        # Weighted average degree is the spectral radius at every vertex.
        assert np.max(np.abs(g.adjacency_matrix() @ a / a - dec.spectral_radius)) < 1e-7


def test_regular_graph_has_flat_perron():
    for name, args in [("petersen", ()), ("cycle", (5,)), ("complete", (4,))]:
        g = generate_named(name, *args)
        dec = decompose(g)
        assert np.max(np.abs(dec.perron - 1.0)) < 1e-12
        for u in range(g.n):
            assert abs(local_spectrum(dec, u).local_mults[0] - 1.0 / g.n) < 1e-12


# --- grouping ---------------------------------------------------------------


def test_grouping_merges_and_splits():
    evals = np.array([[3.0, 1.0 + 4e-10, 1.0, -2.0]])
    bounds, errors = _group_stack(evals, np.array([1e-8]))
    assert bounds.tolist() == [[0, 1, 3], [0, 2, 3]] and errors == [None]  # first and last members


def test_grouping_ambiguity_raises():
    _, (error,) = _group_stack(np.array([[1.0, 1.0 - 5e-8]]), np.array([1e-8]))
    assert isinstance(error, GroupingAmbiguityError) and "factor 10" in str(error)
    # A chain of clearly-small gaps whose accumulated spread crosses the
    # threshold is ambiguous too; in a stack, each row keeps its own error.
    chained = 1.0 - 9e-10 * np.arange(13)
    clean = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.0, -1.0, -1.0, -2.0, -3.0, -4.0, -5.0])
    bounds, errors = _group_stack(np.stack([clean, chained]), np.array([1e-8, 1e-8]))
    assert errors[0] is None and isinstance(errors[1], GroupingAmbiguityError)
    assert "within-group spread" in str(errors[1]) and bounds[:, -1].tolist() == [13, 25]  # row 1 is one group


def test_grouping_ambiguity_through_decompose():
    # A huge grouping epsilon pushes real gaps into the ambiguity band.
    with pytest.raises(GroupingAmbiguityError):
        decompose(generate_named("petersen"), ToleranceConfig(eps_group=1.0))


# --- local spectra ----------------------------------------------------------


def test_k3_local_spectrum():
    dec = decompose(generate_named("complete", 3))
    for u in range(3):
        ls = local_spectrum(dec, u)
        assert np.allclose(ls.local_mults, [1 / 3, 2 / 3], atol=1e-12)
        assert ls.local_degree == 1


def test_petersen_local_spectrum():
    dec = decompose(generate_named("petersen"))
    for u in range(10):
        ls = local_spectrum(dec, u)
        assert np.allclose(ls.local_mults, [0.1, 0.5, 0.4], atol=1e-12)
        assert ls.local_degree == 2


def test_path3_center_clamps_to_zero():
    # Eigenvector (1, 0, -1)/sqrt(2) for eigenvalue 0 misses the center.
    dec = decompose(generate_named("path", 3))
    ls = local_spectrum(dec, 1)
    assert ls.local_mults[1] == 0.0
    assert np.allclose(ls.local_mults, [0.5, 0.0, 0.5], atol=1e-12)
    assert ls.local_degree == 1
    assert np.allclose(ls.values, [np.sqrt(2), -np.sqrt(2)], atol=1e-12)


def test_local_mults_sum_to_one():
    for g in small_corpus(4):
        dec = decompose(g)
        for u in range(g.n):
            ls = local_spectrum(dec, u)
            assert abs(ls.local_mults.sum() - 1.0) < 1e-9
            assert abs(ls.local_mults[0] - dec.perron[u] ** 2 / g.n) < 1e-10


def test_local_mults_sum_to_global_multiplicity():
    for g in small_corpus(4):
        dec = decompose(g)
        M = np.stack([local_spectrum(dec, u).local_mults for u in range(g.n)])
        assert np.max(np.abs(M.sum(axis=0) - dec.multiplicities)) < g.n * 1e-8


# --- crossed multiplicities -------------------------------------------------
# The crossed multiplicity m_uv(lambda_i) is entry (u, v) of idempotent i.


def test_crossed_multiplicity_top_idempotent():
    for g in [generate_named("path", 4), generate_named("petersen")]:
        dec = decompose(g)
        want = np.outer(dec.perron, dec.perron) / g.n
        assert np.max(np.abs(dec.idempotents[0] - want)) < 1e-10


def test_crossed_multiplicity_k3():
    dec = decompose(generate_named("complete", 3))
    assert abs(dec.idempotents[1, 0, 1] - (-1 / 3)) < 1e-12
    assert np.array_equal(dec.idempotents, dec.idempotents.transpose(0, 2, 1))


def test_crossed_multiplicity_diagonal_is_local():
    dec = decompose(generate_named("path", 4))
    for u in range(4):
        ls = local_spectrum(dec, u)
        assert np.max(np.abs(np.diagonal(dec.idempotents, axis1=1, axis2=2)[:, u] - ls.local_mults)) < 1e-12


# --- walk counts ------------------------------------------------------------


def spectral_walks(dec, length):
    """Walk counts of the given length from the spectral side: sum_i E_i lambda_i^length."""
    return np.einsum("kuv,k->uv", dec.idempotents, dec.eigenvalues**length)


def test_walk_count_k3():
    dec = decompose(generate_named("complete", 3))
    assert abs(spectral_walks(dec, 2)[0, 0] - 2.0) < 1e-10  # degree
    assert abs(spectral_walks(dec, 3)[0, 1] - 3.0) < 1e-10  # (J - I)^3 off-diagonal
    assert abs(spectral_walks(dec, 0)[0, 0] - 1.0) < 1e-12


def test_walk_count_matches_integer_oracle():
    for g in small_corpus(4):
        dec = decompose(g)
        powers = adjacency_powers(g, 6)
        lam0 = dec.spectral_radius
        for length in range(7):
            bound = 1e-6 * max(1.0, lam0**length)
            assert np.max(np.abs(spectral_walks(dec, length) - powers[length])) < bound


def test_integer_powers_overflow_guard():
    g = generate_named("complete", 6)
    with pytest.raises(OverflowError):
        adjacency_powers(g, 100)
    # The boundary: on K62 the entries of A^k are (61^k - (-1)^k) / 62 off the
    # diagonal and that plus (-1)^k on it. A^11 fits int64 and is exact; A^12
    # would need a product past the range, and is refused.
    g = generate_named("complete", 62)
    for k, power in enumerate(adjacency_powers(g, 11)):
        off = (61**k - (-1) ** k) // 62
        want = np.full((62, 62), off, dtype=np.int64)
        np.fill_diagonal(want, off + (-1) ** k)
        assert power.dtype == np.int64 and np.array_equal(power, want), k
    with pytest.raises(OverflowError):
        adjacency_powers(g, 12)


def test_closed_walk_identity():
    # Exact closed-walk counts against the spectral sum, per vertex.
    for g in small_corpus(5):
        dec = decompose(g)
        powers = adjacency_powers(g, 6)
        M = np.stack([local_spectrum(dec, u).local_mults for u in range(g.n)])
        for length in range(7):
            lhs = np.diag(powers[length]).astype(float)
            rhs = M @ dec.eigenvalues**length
            assert np.max(np.abs(lhs - rhs)) <= 1e-6 * max(1.0, dec.spectral_radius**length)


def test_negative_local_multiplicity_raises():
    dec = decompose(generate_named("cycle", 4))
    bad = dec.idempotents.copy()
    bad[1, 0, 0] = -1e-3
    broken = type(dec)(
        eigenvalues=dec.eigenvalues,
        multiplicities=dec.multiplicities,
        idempotents=bad,
        perron=dec.perron,
    )
    with pytest.raises(NumericalError):
        local_spectrum(broken, 0)


@pytest.mark.parametrize("flaw", ["unsorted eigenvalues", "zero spectral-radius entry"])
def test_decomposition_breaking_its_contract_raises(flaw):
    # Every local measure built from a decomposition starts at the spectral
    # radius with positive weight and decreases strictly; a caller-built
    # decomposition that breaks that is refused before Lanczos runs.
    g = generate_named("cycle", 4)
    dec = decompose(g)
    eigenvalues, idempotents = dec.eigenvalues.copy(), dec.idempotents.copy()
    if flaw == "unsorted eigenvalues":
        eigenvalues[[0, 1]] = eigenvalues[[1, 0]]
    else:
        idempotents[0, 2, 2] = 0.0
    broken = type(dec)(eigenvalues, dec.multiplicities, idempotents, dec.perron)
    for call in (lambda: local_spectrum(broken, 0), lambda: is_pdr_around(g, broken, 0)):
        with pytest.raises(ValueError):
            call()
