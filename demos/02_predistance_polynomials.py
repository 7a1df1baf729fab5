#!/usr/bin/env python3
"""Orthogonal polynomials from a vertex's local spectrum.

Each vertex carries a discrete measure: its local multiplicities sitting on
its local eigenvalues. Lanczos on that measure gives the three-term
recurrence of an orthogonal polynomial family p_0, p_1, ..., one degree per
support point, normalized so that ||p_i||^2 equals
(Perron entry)^2 * p_i(spectral radius). Two closed forms drop out: p_0 is
the squared Perron entry, and p_1 is (squared Perron entry * radius / degree)
* x. The monomial coefficients printed below are expanded from the
recurrence, as ``pdrkit spectrum --vertex`` reports them.

On a distance-regular graph the family is the same at every vertex and
applying p_i to the adjacency matrix reproduces the distance-i matrix.
"""

import numpy as np

from pdrkit import (
    build_predistance,
    decompose,
    generate_named,
    local_spectrum,
)
from pdrkit.cli import _monomial_coefficients

np.set_printoptions(precision=6, suppress=True)


def show_system(name, g, u):
    dec = decompose(g)
    ls = local_spectrum(dec, u)
    system = build_predistance(ls, dec.spectral_radius, float(dec.perron[u]))
    print(f"\n{name}, vertex {u}:")
    print(f"  support {ls.values.round(6)}, weights {ls.support_weights.round(6)}")
    for i, coeffs in enumerate(_monomial_coefficients(system)):
        print(f"  p_{i} coeffs {np.array(coeffs)}  p_{i}(radius) = {system.values_at_radius[i]:.6f}")
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
vals = system.support_values  # p_i at each support value
gram = (vals * ls.support_weights) @ vals.T
print(gram.round(10))

# The distance-i matrix A_i has (A_i)_uv = 1 iff dist(u, v) = i. Column v
# of p_i(A) comes from vertex v's own family, the same at every vertex here.
print("\ncolumns of p_i(A) against the distance matrices:")
worst = np.zeros(len(vals))
for v in range(petersen.n):
    own = build_predistance(local_spectrum(dec, v), dec.spectral_radius, float(dec.perron[v]))
    for i, col in enumerate(own.columns(petersen)):
        worst[i] = max(worst[i], float(np.max(np.abs(col - (petersen.distances[:, v] == i)))))
for i, w in enumerate(worst):
    print(f"  degree {i}: max |p_i(A) - A_i| column residual = {w:.2e}")

# ---------------------------------------------------------------------------
# The recurrence coefficients regrouped per level are exactly the local
# intersection numbers when the graph is pseudo-distance-regular around the
# vertex -- compare with Petersen's intersection array {3,2;1,1}.

# Level i collects the coefficient of p_i in x * p_{i-1} (down), in x * p_i
# (stay), and in x * p_{i+1} (up).

print("\nper-level (down, stay, up) from the recurrence:")
prev, same, nxt = np.array(system.recurrence).T
for i in range(len(same)):
    triple = (nxt[i - 1] if i else 0.0, same[i], prev[i + 1] if i + 1 < len(same) else 0.0)
    print(f"  level {i}: {np.array(triple).round(9)}")
