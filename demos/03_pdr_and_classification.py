#!/usr/bin/env python3
"""Pseudo-distance-regularity around a vertex, and whole-graph verdicts.

A distance partition around a vertex is pseudo-regular when the
Perron-weighted neighbor counts (down a level, on the level, up a level)
are the same for every vertex of a level. The library decides this twice,
independently: once straight from the definition, once through the
orthogonal-polynomial characterization, and insists the answers agree.

Classifying every vertex yields one of three verdicts: distance-regular,
distance-biregular, or not pseudo-distance-regular at some vertex.
"""

import numpy as np

from pdrkit import (
    classify,
    decompose,
    generate_named,
    is_pdr_around,
    pseudo_regular_check,
)

np.set_printoptions(precision=6, suppress=True)

# ---------------------------------------------------------------------------
# Around a Petersen vertex: pseudo-regular with integer intersection
# numbers, since the graph is regular and the Perron vector is flat.

petersen = generate_named("petersen")
dec = decompose(petersen)
report = is_pdr_around(petersen, dec, 0)
print("Petersen, vertex 0:")
print("  pseudo-distance-regular:", report.is_pdr)
print("  extremal (eccentricity == local degree):", report.extremal)
for i, (down, stay, up) in enumerate(report.quotient.tridiagonal()):
    print(f"  level {i}: down {down:.6f}  stay {stay:.6f}  up {up:.6f}")

# ---------------------------------------------------------------------------
# The 4-path fails at its inner vertices. The witness pins down the failure:
# the two distance-1 neighbors of vertex 1 disagree in their weighted count
# back to level 0 -- by the golden ratio versus 1.

path4 = generate_named("path", 4)
dec4 = decompose(path4)
print("\n4-path Perron vector:", dec4.perron)
for u in range(4):
    rep = is_pdr_around(path4, dec4, u)
    line = f"  vertex {u}: pdr={rep.is_pdr}"
    if rep.witness is not None:
        w = rep.witness
        line += (
            f"  witness: level {w.cell} -> {w.target}, vertices {w.vertex_a}/{w.vertex_b}, "
            f"values {w.value_a:.6f} vs {w.value_b:.6f}"
        )
    print(line)

# Pseudo-regularity is a property of any partition, not just distance
# partitions: the center/leaves split of a star works too.
star = generate_named("complete_bipartite", 1, 2)
sdec = decompose(star)
quotient, _ = pseudo_regular_check(star, sdec, np.array([0, 1, 1]))  # cell of each vertex
print("\nstar center/leaves quotient:\n", quotient.entries)
print("spectral radius:", sdec.spectral_radius)

# ---------------------------------------------------------------------------
# Verdicts. A known dichotomy: a graph pseudo-distance-regular around every
# vertex is either distance-regular or distance-biregular. Regular examples
# land on the first branch, biregular bipartite ones on the second, and the
# 4-path on neither.

for name, g in [
    ("petersen", petersen),
    ("cycle:6", generate_named("cycle", 6)),
    ("complete_bipartite:2,3", generate_named("complete_bipartite", 2, 3)),
    ("path:4", path4),
]:
    cls = classify(g)
    print(f"\n{name}: {cls.verdict} ({cls.walk_regularity})")
    if cls.intersection_arrays:
        for arr in cls.intersection_arrays:
            part = "" if arr.part is None else f" part {arr.part}:"
            print(f" {part} b = {arr.b}, c = {arr.c}, a = {arr.a}")
        print("  Perron levels:", np.array(cls.alpha_levels))
    if cls.witness is not None:
        print("  first failing vertex:", cls.witness)

# For the biregular example, the Perron levels match the closed forms
# sqrt((d1 + d2) / (2 d2)) and sqrt((d1 + d2) / (2 d1)) with degrees 3 and 2.
d1, d2 = 3, 2
print("\nclosed-form Perron levels for K_{2,3}:", np.sqrt((d1 + d2) / (2 * d2)), np.sqrt((d1 + d2) / (2 * d1)))
