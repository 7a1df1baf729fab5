"""Orthogonal polynomial families per vertex: construction, normalization,
recurrence, and the columns p_i(A)e_u."""

import numpy as np
import pytest

from pdrkit import (
    IllConditionedMeasureError,
    LocalSpectrum,
    build_predistance,
    decompose,
    enumerate_connected,
    generate_named,
    local_spectrum,
)
from pdrkit.cli import _monomial_coefficients


def system_for(g, u):
    dec = decompose(g)
    return (dec, *system_for_decomposition(dec, u))


def system_for_decomposition(dec, u):
    ls = local_spectrum(dec, u)
    return ls, build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))


def inner_product(ls, f, g):
    """The local scalar product sum_i m_u(lambda_i) f(lambda_i) g(lambda_i),
    over the support, where every weight is positive."""
    x = ls.values
    return float(np.dot(ls.support_weights, f(x) * g(x)))


def ONE(x):
    return np.ones_like(x)


def X(x):
    return x


def horner_column(g, coeffs, u):
    """Column u of p(A), for monomial coefficients in ascending degree, by Horner."""
    A = g.adjacency_matrix()
    col = np.zeros(g.n)
    col[u] = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        col = A @ col
        col[u] += c
    return col


# --- inner product -----------------------------------------------------------


def test_inner_product_constants():
    dec = decompose(generate_named("petersen"))
    ls = local_spectrum(dec, 0)
    assert inner_product(ls, ONE, ONE) == pytest.approx(1.0)
    # Orthogonality of 1 and x: no closed walks of length one.
    assert inner_product(ls, ONE, X) == pytest.approx(0.0, abs=1e-12)


def test_inner_product_xx_is_degree():
    dec = decompose(generate_named("complete", 3))
    ls = local_spectrum(dec, 0)
    # (1/3) * 4 + (2/3) * 1 = 2 = deg(u).
    assert inner_product(ls, X, X) == pytest.approx(2.0)


def test_inner_product_ignores_zero_multiplicities():
    dec = decompose(generate_named("path", 3))
    ls = local_spectrum(dec, 1)  # center: middle eigenvalue clamped to zero
    assert ls.local_mults[1] == 0.0
    assert list(ls.values) == [dec.eigenvalues[0], dec.eigenvalues[2]]
    assert inner_product(ls, X, X) == pytest.approx(2.0)


# --- construction ------------------------------------------------------------


def test_k3_polynomials():
    _, ls, system = system_for(generate_named("complete", 3), 0)
    x = ls.values
    assert np.allclose(system.support_values, [np.ones_like(x), x], atol=1e-12)
    assert np.allclose(_monomial_coefficients(system)[1], [0.0, 1.0], atol=1e-12)


def test_path3_center_polynomials():
    # Perron entry squared 3/2, radius sqrt(2), degree 2.
    _, ls, system = system_for(generate_named("path", 3), 1)
    x = ls.values
    assert np.allclose(system.support_values, [np.full_like(x, 1.5), 3 * np.sqrt(2) / 4 * x], atol=1e-12)
    (p0,), (zero, lead) = _monomial_coefficients(system)
    assert p0 == pytest.approx(1.5, abs=1e-12) and zero == pytest.approx(0.0, abs=1e-12)
    assert lead == pytest.approx(1.0606601717, abs=1e-9)


def test_petersen_distance_two_polynomial():
    # A^2 = 3I + A_2 on the Petersen graph, so p_2 = x^2 - 3.
    _, ls, system = system_for(generate_named("petersen"), 0)
    assert np.allclose(system.support_values[2], ls.values**2 - 3, atol=1e-10)
    assert np.allclose(_monomial_coefficients(system)[2], [-3.0, 0.0, 1.0], atol=1e-10)


def test_degrees_and_radius_values():
    for g in [generate_named("petersen"), generate_named("path", 4), generate_named("complete_bipartite", 2, 3)]:
        dec = decompose(g)
        for u in range(g.n):
            ls = local_spectrum(dec, u)
            system = build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))
            assert system.support_values.shape == (ls.local_degree + 1, len(ls.values))
            assert len(system.recurrence) == ls.local_degree + 1
            assert [len(c) - 1 for c in _monomial_coefficients(system)] == list(range(ls.local_degree + 1))
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
                vals = system.support_values
                gram = (vals * weights) @ vals.T
                norms2 = np.diag(gram)
                off = np.abs(gram - np.diag(norms2))
                assert np.max(off / np.sqrt(np.outer(norms2, norms2))) < 1e-8
                # ||p_i||^2 = alpha_u^2 p_i(lambda0)
                assert np.allclose(norms2, a2 * np.array(system.values_at_radius), rtol=1e-8)
                # closed forms: p_0 is the constant a2, and p_1 the line
                # through the origin of slope a2 * lambda0 / deg(u)
                assert np.allclose(vals[0], a2, rtol=1e-10, atol=0)
                if ls.local_degree >= 1:
                    assert np.allclose(vals[1], a2 * lam0 / g.degree(u) * support, rtol=1e-9, atol=1e-12)
                # recurrence residual in the local norm
                for i in range(len(vals)):
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
    # adjacency give exactly the distance matrices, column by column.
    catalog = [
        generate_named("petersen"),
        generate_named("cycle", 4),
        generate_named("cycle", 5),
        generate_named("complete", 4),
        generate_named("complete_bipartite", 3, 3),
    ]
    for g in catalog:
        dec = decompose(g)
        diameter = int(g.distances.max())
        for u in range(g.n):
            ls = local_spectrum(dec, u)
            system = build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))
            assert ls.local_degree == diameter
            # The radius values sum to the vertex count: they count the
            # distance cells of a distance-regular graph.
            assert sum(system.values_at_radius) == pytest.approx(g.n, rel=1e-9)
            cols = list(system.columns(g))
            assert len(cols) == diameter + 1
            for i, col in enumerate(cols):
                assert np.max(np.abs(col - (g.distances[:, u] == i))) < 1e-7


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
    # The monomial expansion that spectrum --vertex reports, applied by
    # Horner, gives the columns the recurrence runs.
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
            polys = _monomial_coefficients(system)
            assert len(cols) == len(polys)
            for col, coeffs in zip(cols, polys):
                assert np.allclose(col, horner_column(g, coeffs, u), atol=1e-10)


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
    # A local spectrum a caller built is checked before Lanczos runs, with
    # one message per broken condition.
    cases = [
        ([2.0, 1.0], [0.0, 0.0], [], 2.0, "empty local spectrum"),
        ([2.0, 1.0], [0.5, 0.5], [1.0, 2.0], 2.0, "support values must be strictly decreasing"),
        ([2.0, 1.0, -1.0], [0.5, -0.1, 0.6], [2.0, 1.0, -1.0], 2.0, "support weights must be positive"),
        ([2.0, 1.0], [0.5, 0.5], [2.0, 1.0], 3.0, "spectral radius must be the largest support value"),
    ]
    for eigenvalues, mults, values, lambda0, message in cases:
        ls = LocalSpectrum(
            vertex=0,
            eigenvalues=np.array(eigenvalues),
            local_mults=np.array(mults),
            values=np.array(values),
            local_degree=len(values) - 1,
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_predistance(ls, lambda0, 1.0)


# --- columns p_i(A)e_u ---------------------------------------------------------


def test_apply_constant_polynomial():
    # p_0 is the squared Perron entry, so p_0(A)e_u is that entry times e_u.
    g = generate_named("path", 4)
    dec = decompose(g)
    for u in range(4):
        _, system = system_for_decomposition(dec, u)
        want = np.zeros(4)
        want[u] = float(dec.perron[u]) ** 2
        assert np.allclose(next(system.columns(g)), want, atol=1e-12)


def test_apply_x_on_k3():
    # p_1 = x on the triangle, so p_1(A)e_0 is column 0 of A.
    g = generate_named("complete", 3)
    _, _, system = system_for(g, 0)
    _, col = system.columns(g)
    assert np.allclose(col, [0.0, 1.0, 1.0], atol=1e-12)


def test_apply_x2_minus_2_on_c4():
    # Integer oracle: A^2 - 2I on the 4-cycle is twice the antipodal matrix,
    # which p_2 = (x^2 - 2) / 2 reproduces.
    g = generate_named("cycle", 4)
    A = g.adjacency_matrix()
    want = (A @ A - 2 * np.eye(4)) / 2
    dec = decompose(g)
    for u in range(4):
        _, system = system_for_decomposition(dec, u)
        assert np.allclose(_monomial_coefficients(system)[2], [-1.0, 0.0, 0.5], atol=1e-12)
        *_, col = system.columns(g)
        assert np.allclose(col, want[:, u], atol=1e-12)
    assert np.allclose(want[:, 0], [0.0, 0.0, 1.0, 0.0])


def test_apply_never_densifies():
    # The columns, one matvec per degree, agree with dense evaluation of the
    # expanded polynomials on a bigger graph.
    g = generate_named("hypercube", 4)
    A = g.adjacency_matrix()
    dec = decompose(g)
    for u in [0, 7, 15]:
        _, system = system_for_decomposition(dec, u)
        for col, coeffs in zip(system.columns(g), _monomial_coefficients(system)):
            dense = sum(c * np.linalg.matrix_power(A, k) for k, c in enumerate(coeffs))
            assert np.allclose(col, dense[:, u], atol=1e-9)
