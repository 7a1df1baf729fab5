#!/usr/bin/env python3
"""How a graph looks from one vertex: local multiplicities and local spectra.

The adjacency matrix of a connected graph splits into spectral idempotents,
one per distinct eigenvalue. The diagonal entry of idempotent i at vertex u
says how much of eigenvalue i the vertex "sees": these local multiplicities
are non-negative, sum to one, and reproduce the closed-walk counts of the
vertex at every length.
"""

import numpy as np

from pdrkit import (
    adjacency_powers,
    decompose,
    generate_named,
    local_spectrum,
)

np.set_printoptions(precision=6, suppress=True)

# ---------------------------------------------------------------------------
# The Petersen graph is vertex-transitive: every vertex sees the same thing,
# namely the global multiplicities divided by the number of vertices.

petersen = generate_named("petersen")
dec = decompose(petersen)
print("Petersen spectrum:", dict(zip(dec.eigenvalues.round(6), dec.multiplicities)))

ls = local_spectrum(dec, 0)
print("local multiplicities at vertex 0:", ls.local_mults)
print("global multiplicities / n:       ", dec.multiplicities / petersen.n)

# ---------------------------------------------------------------------------
# The 3-path is a different story. Its center never sees the middle
# eigenvalue 0: the corresponding eigenvector (1, 0, -1) vanishes there.
# The clamp in local_spectrum turns the 1e-17 rounding dust into an exact 0,
# and the local degree drops below the number of distinct eigenvalues.

path3 = generate_named("path", 3)
dec3 = decompose(path3)
print("\n3-path eigenvalues:", dec3.eigenvalues)
for u in range(3):
    ls = local_spectrum(dec3, u)
    print(f"vertex {u}: local mults {ls.local_mults}, local degree {ls.local_degree}")

# ---------------------------------------------------------------------------
# Walk counts. The number of u-v walks of length l is sum_i (E_i)_uv
# lambda_i^l, which for u = v is the sum over local multiplicities. It must
# agree with exact integer matrix powering -- here for closed walks at the
# center and walks between the two leaves.


def walk_count(dec, u, v, length):
    return float(np.dot(dec.idempotents[:, u, v], dec.eigenvalues**length))


powers = adjacency_powers(path3, 6)
print("\nwalk counts on the 3-path (spectral vs exact):")
for length in range(7):
    spectral = walk_count(dec3, 1, 1, length)
    exact = powers[length][1, 1]
    print(f"  closed, length {length}: {spectral:10.6f} vs {exact}")

for length in (2, 4, 6):
    spectral = walk_count(dec3, 0, 2, length)
    exact = powers[length][0, 2]
    print(f"  leaf to leaf, length {length}: {spectral:8.6f} vs {exact}")

# ---------------------------------------------------------------------------
# The Perron vector, normalized to squared norm n, weights every vertex so
# that the weighted average degree becomes the spectral radius everywhere --
# even for irregular graphs. That is the "regularization" the rest of the
# library builds on.

path4 = generate_named("path", 4)
dec4 = decompose(path4)
alpha = dec4.perron
print("\n4-path Perron vector:", alpha)
print("spectral radius:     ", dec4.spectral_radius)
print("weighted avg degrees:", (path4.adjacency_matrix() @ alpha) / alpha)
