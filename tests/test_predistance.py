"""Orthogonal polynomial families per vertex: construction, normalization,
recurrence, and column application."""

import numpy as np
import pytest

from pdrkit import (
    IllConditionedMeasureError,
    LocalSpectrum,
    Polynomial,
    apply_poly_column,
    build_predistance,
    decompose,
    distance_matrices,
    enumerate_connected,
    generate_named,
    local_inner_product,
    local_spectrum,
)

ONE = Polynomial((1.0,))
X = Polynomial((0.0, 1.0))


def system_for(g, u):
    dec = decompose(g)
    return (dec, *system_for_decomposition(dec, u))


def system_for_decomposition(dec, u):
    ls = local_spectrum(dec, u)
    return ls, build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))


# --- Polynomial -------------------------------------------------------------


def test_polynomial_basics():
    p = Polynomial((-3, 0, 1))
    assert p.degree == 2
    assert p(3.0) == pytest.approx(6.0)
    assert np.allclose(p(np.array([0.0, 1.0])), [-3.0, -2.0])
    with pytest.raises(ValueError):
        Polynomial(())
    with pytest.raises(ValueError):
        Polynomial((1.0, 0.0))


# --- inner product -----------------------------------------------------------


def test_inner_product_constants():
    dec = decompose(generate_named("petersen"))
    ls = local_spectrum(dec, 0)
    assert local_inner_product(ls, ONE, ONE) == pytest.approx(1.0)
    # Orthogonality of 1 and x: no closed walks of length one.
    assert local_inner_product(ls, ONE, X) == pytest.approx(0.0, abs=1e-12)


def test_inner_product_xx_is_degree():
    dec = decompose(generate_named("complete", 3))
    ls = local_spectrum(dec, 0)
    # (1/3) * 4 + (2/3) * 1 = 2 = deg(u).
    assert local_inner_product(ls, X, X) == pytest.approx(2.0)


def test_inner_product_ignores_zero_multiplicities():
    dec = decompose(generate_named("path", 3))
    ls = local_spectrum(dec, 1)  # center: middle eigenvalue clamped to zero
    assert ls.local_mults[1] == 0.0
    assert local_inner_product(ls, X, X) == pytest.approx(2.0)


# --- construction ------------------------------------------------------------


def test_k3_polynomials():
    _, _, system = system_for(generate_named("complete", 3), 0)
    assert np.allclose(system.polys[0].coeffs, [1.0], atol=1e-12)
    assert np.allclose(system.polys[1].coeffs, [0.0, 1.0], atol=1e-12)


def test_path3_center_polynomials():
    # Perron entry squared 3/2, radius sqrt(2), degree 2.
    _, _, system = system_for(generate_named("path", 3), 1)
    assert np.allclose(system.polys[0].coeffs, [1.5], atol=1e-12)
    assert np.allclose(system.polys[1].coeffs, [0.0, 3 * np.sqrt(2) / 4], atol=1e-12)
    assert system.polys[1].coeffs[1] == pytest.approx(1.0606601717, abs=1e-9)


def test_petersen_distance_two_polynomial():
    # A^2 = 3I + A_2 on the Petersen graph, so p_2 = x^2 - 3.
    _, _, system = system_for(generate_named("petersen"), 0)
    assert np.allclose(system.polys[2].coeffs, [-3.0, 0.0, 1.0], atol=1e-10)


def test_degrees_and_radius_values():
    for g in [generate_named("petersen"), generate_named("path", 4), generate_named("complete_bipartite", 2, 3)]:
        dec = decompose(g)
        for u in range(g.n):
            ls = local_spectrum(dec, u)
            system = build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))
            assert [p.degree for p in system.polys] == list(range(ls.local_degree + 1))
            assert all(v > 0 for v in system.values_at_radius)


def test_contract_over_small_corpus():
    # Orthogonality, normalization, closed forms, recurrence residual.
    for n in range(1, 6):
        for g in enumerate_connected(n):
            dec = decompose(g)
            lam0 = dec.spectral_radius
            for u in range(g.n):
                ls = local_spectrum(dec, u)
                a2 = float(dec.perron[u]) ** 2
                system = build_predistance(ls, lam0, float(dec.perron[u]))
                support, weights = ls.values, ls.support_weights
                vals = np.stack([p(support) for p in system.polys])
                gram = (vals * weights) @ vals.T
                norms2 = np.diag(gram)
                off = np.abs(gram - np.diag(norms2))
                assert np.max(off / np.sqrt(np.outer(norms2, norms2))) < 1e-8
                # ||p_i||^2 = alpha_u^2 p_i(lambda0)
                assert np.allclose(norms2, a2 * np.array(system.values_at_radius), rtol=1e-8)
                # closed forms
                assert system.polys[0].coeffs[0] == pytest.approx(a2, rel=1e-10)
                if ls.local_degree >= 1:
                    assert system.polys[1].coeffs[1] == pytest.approx(a2 * lam0 / g.degree(u), rel=1e-9)
                # recurrence residual in the local norm
                for i, p in enumerate(system.polys):
                    xp = support * vals[i]
                    prev, same, nxt = system.recurrence[i]
                    combo = same * vals[i]
                    if i > 0:
                        combo = combo + prev * vals[i - 1]
                    if i < ls.local_degree:
                        combo = combo + nxt * vals[i + 1]
                    res = np.sqrt(np.dot(weights, (xp - combo) ** 2))
                    assert res <= 1e-8 * max(1.0, np.sqrt(np.dot(weights, xp**2)))


def test_distance_regular_catalog_reproduces_distance_matrices():
    # For these distance-regular graphs the polynomials applied to the
    # adjacency give exactly the distance matrices.
    catalog = [
        generate_named("petersen"),
        generate_named("cycle", 4),
        generate_named("cycle", 5),
        generate_named("complete", 4),
        generate_named("complete_bipartite", 3, 3),
    ]
    for g in catalog:
        dec = decompose(g)
        mats = distance_matrices(g)
        for u in range(g.n):
            ls = local_spectrum(dec, u)
            system = build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))
            assert ls.local_degree == len(mats) - 1
            # The radius values sum to the vertex count: they count the
            # distance cells of a distance-regular graph.
            assert sum(system.values_at_radius) == pytest.approx(g.n, rel=1e-9)
            for i, p in enumerate(system.polys):
                for v in range(g.n):
                    col = apply_poly_column(g, p, v)
                    assert np.max(np.abs(col - mats[i][:, v])) < 1e-7


def test_golub_welsch_oracle_small_corpus():
    # The symmetrized Jacobi matrix of the recurrence has the local support
    # as eigenvalues and the support weights as squared first components.
    for n in range(1, 6):
        for g in enumerate_connected(n):
            dec = decompose(g)
            for u in range(g.n):
                ls, system = system_for_decomposition(dec, u)
                prev, same, nxt = (np.array(c) for c in zip(*system.recurrence))
                off = np.sqrt(prev[1:] * nxt[:-1])
                jacobi = np.diag(same) + np.diag(off, 1) + np.diag(off, -1)
                evals, evecs = np.linalg.eigh(jacobi)
                assert np.allclose(evals[::-1], ls.values, atol=1e-10)
                weights = evecs[0, ::-1] ** 2 * ls.support_weights.sum()
                assert np.allclose(weights, ls.support_weights, atol=1e-10)


def test_recurrence_columns_match_horner_on_polys():
    graphs = [
        generate_named("petersen"),
        generate_named("path", 5),
        generate_named("cycle", 7),
        generate_named("complete_bipartite", 2, 3),
        generate_named("hypercube", 3),
    ]
    for g in graphs:
        dec = decompose(g)
        for u in range(g.n):
            _, system = system_for_decomposition(dec, u)
            cols = list(system.columns(g))
            assert len(cols) == len(system.polys)
            for col, p in zip(cols, system.polys):
                assert np.allclose(col, apply_poly_column(g, p, u), atol=1e-10)


def test_ill_conditioned_support_raises():
    ls = LocalSpectrum(
        vertex=0,
        eigenvalues=np.array([2.0, 2.0 - 1e-13, -1.0]),
        local_mults=np.array([0.4, 0.3, 0.3]),
        values=np.array([2.0, 2.0 - 1e-13, -1.0]),
        local_degree=2,
    )
    with pytest.raises(IllConditionedMeasureError):
        build_predistance(ls, 2.0, 1.0)


def test_build_rejects_bad_support():
    ls = LocalSpectrum(
        vertex=0,
        eigenvalues=np.array([2.0, 1.0]),
        local_mults=np.array([0.5, 0.5]),
        values=np.array([1.0, 2.0]),  # not decreasing
        local_degree=1,
    )
    with pytest.raises(ValueError):
        build_predistance(ls, 2.0, 1.0)


# --- column application -------------------------------------------------------


def test_apply_constant_polynomial():
    g = generate_named("path", 4)
    dec = decompose(g)
    for u in range(4):
        a2 = float(dec.perron[u]) ** 2
        col = apply_poly_column(g, Polynomial((a2,)), u)
        want = np.zeros(4)
        want[u] = a2
        assert np.allclose(col, want, atol=1e-12)


def test_apply_x_on_k3():
    g = generate_named("complete", 3)
    col = apply_poly_column(g, X, 0)
    assert np.allclose(col, [0.0, 1.0, 1.0], atol=1e-12)


def test_apply_x2_minus_2_on_c4():
    # Integer oracle: A^2 - 2I on the 4-cycle is twice the antipodal matrix.
    g = generate_named("cycle", 4)
    A = g.adjacency_matrix()
    want = A @ A - 2 * np.eye(4)
    p = Polynomial((-2.0, 0.0, 1.0))
    for u in range(4):
        col = apply_poly_column(g, p, u)
        assert np.allclose(col, want[:, u], atol=1e-12)
    assert np.allclose(apply_poly_column(g, p, 0), [0.0, 0.0, 2.0, 0.0], atol=1e-12)


def test_apply_never_densifies():
    # Agreement with dense evaluation on a bigger graph.
    g = generate_named("hypercube", 4)
    A = g.adjacency_matrix()
    p = Polynomial((1.0, -2.0, 0.0, 0.5))
    dense = 0.5 * np.linalg.matrix_power(A, 3) - 2 * A + np.eye(g.n)
    for u in [0, 7, 15]:
        assert np.allclose(apply_poly_column(g, p, u), dense[:, u], atol=1e-9)
