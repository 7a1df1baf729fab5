#!/usr/bin/env python3
"""Orthogonal polynomials from a vertex's local spectrum.

Each vertex carries a discrete measure: its local multiplicities sitting on
its local eigenvalues. Lanczos on that measure gives the three-term
recurrence of an orthogonal polynomial family p_0, p_1, ..., one degree per
support point, normalized so that ||p_i||^2 equals
(Perron entry)^2 * p_i(spectral radius). Two closed forms drop out: p_0 is
the squared Perron entry, and p_1 is (squared Perron entry * radius / degree)
* x. The monomial coefficients printed below are expanded from the
recurrence.

On a distance-regular graph the family is the same at every vertex and
applying p_i to the adjacency matrix reproduces the distance-i matrix.
"""

import numpy as np

from pdrkit import (
    apply_poly_column,
    build_predistance,
    decompose,
    distance_matrices,
    generate_named,
    local_inner_product,
    local_spectrum,
)

np.set_printoptions(precision=6, suppress=True)


def show_system(name, g, u):
    dec = decompose(g)
    ls = local_spectrum(dec, u)
    system = build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))
    print(f"\n{name}, vertex {u}:")
    print(f"  support {ls.values.round(6)}, weights {ls.support_weights.round(6)}")
    for i, p in enumerate(system.polys):
        print(f"  p_{i} coeffs {np.array(p.coeffs)}  p_{i}(radius) = {system.values_at_radius[i]:.6f}")
    print("  recurrence (prev, same, next) per degree:")
    for i, triple in enumerate(system.recurrence):
        print(f"    x*p_{i}: {np.array(triple)}")
    return dec, system


# On the triangle everything collapses to p_0 = 1, p_1 = x.
show_system("K_3", generate_named("complete", 3), 0)

# At the center of the 3-path the constants pick up the Perron weight:
# p_0 = 3/2 and p_1 = (3 sqrt(2) / 4) x.
show_system("3-path center", generate_named("path", 3), 1)

# Petersen: p_2 = x^2 - 3, because A^2 = 3I + A_2 there.
dec, system = show_system("Petersen", generate_named("petersen"), 0)

# ---------------------------------------------------------------------------
# Orthogonality under the local inner product, and the distance-matrix
# identity on a distance-regular graph.

petersen = generate_named("petersen")
ls = local_spectrum(dec, 0)
print("\npairwise inner products (Petersen, vertex 0):")
k = len(system.polys)
gram = np.array(
    [[local_inner_product(ls, system.polys[i], system.polys[j]) for j in range(k)] for i in range(k)]
)
print(gram.round(10))

print("\ncolumns of p_i(A) against the distance matrices:")
mats = distance_matrices(petersen)
for i, p in enumerate(system.polys):
    worst = max(
        float(np.max(np.abs(apply_poly_column(petersen, p, v) - mats[i][:, v])))
        for v in range(petersen.n)
    )
    print(f"  degree {i}: max |p_i(A) - A_i| column residual = {worst:.2e}")

# ---------------------------------------------------------------------------
# The recurrence coefficients regrouped per level are exactly the local
# intersection numbers when the graph is pseudo-distance-regular around the
# vertex -- compare with Petersen's intersection array {3,2;1,1}.

print("\nper-level (down, stay, up) from the recurrence:")
for i, triple in enumerate(system.level_triples()):
    print(f"  level {i}: {np.array(triple).round(9)}")
