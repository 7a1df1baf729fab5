"""Benchmark inputs and the verdict oracle, written without pdrkit.

Graphs are lists of neighbour bitmasks: bit v of ``nbrs[u]`` is set when u
and v are adjacent. The oracle counts neighbours one level down, on the
level and one level up of every BFS level around every vertex (integer
intersection arrays). A graph whose vertices all have such arrays is
distance-regular when the arrays agree, and distance-biregular when it is
bipartite and they agree on each part (Godsil & Shawe-Taylor, 1987); any
other graph is ``not_pdr``.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations

DR = "distance_regular"
DBR = "distance_biregular"
NOT_PDR = "not_pdr"

# Connected labelled graphs on n vertices (OEIS A001187) and their oracle
# classes; set-up fails when the generator or the oracle disagrees.
EXPECTED = {
    5: {"total": 728, DR: 13, DBR: 15},
    6: {"total": 26704, DR: 86, DBR: 21},
}


class OracleError(RuntimeError):
    """The oracle met a graph that contradicts the theorem it relies on."""


# ---------------------------------------------------------------------------
# graphs as neighbour bitmasks


def from_edges(n: int, edges) -> list[int]:
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


def is_connected(nbrs: list[int]) -> bool:
    full = (1 << len(nbrs)) - 1
    seen = frontier = 1
    while frontier:
        reach = 0
        f = frontier
        while f:
            low = f & -f
            reach |= nbrs[low.bit_length() - 1]
            f ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == full


def levels(nbrs: list[int], u: int) -> list[int]:
    """BFS levels around u as vertex bitmasks (the graph is connected)."""
    out = [1 << u]
    seen = 1 << u
    while True:
        reach = 0
        f = out[-1]
        while f:
            low = f & -f
            reach |= nbrs[low.bit_length() - 1]
            f ^= low
        nxt = reach & ~seen
        if not nxt:
            return out
        out.append(nxt)
        seen |= nxt


def intersection_array(nbrs: list[int], u: int) -> tuple | None:
    """((b_0..b_{D-1}), (c_1..c_D), (a_0..a_D)) around u, or None when irregular."""
    lv = levels(nbrs, u)
    depth = len(lv)
    b, c, a = [], [], []
    for i, cell in enumerate(lv):
        below = lv[i - 1] if i > 0 else 0
        above = lv[i + 1] if i + 1 < depth else 0
        counts = None
        f = cell
        while f:
            low = f & -f
            nb = nbrs[low.bit_length() - 1]
            mine = ((nb & below).bit_count(), (nb & cell).bit_count(), (nb & above).bit_count())
            if counts is None:
                counts = mine
            elif mine != counts:
                return None
            f ^= low
        c.append(counts[0])
        a.append(counts[1])
        b.append(counts[2])
    return tuple(b[:-1]), tuple(c[1:]), tuple(a)


def two_colouring(nbrs: list[int]) -> int | None:
    """Bitmask of the side not holding vertex 0, or None when not bipartite."""
    odd = 0
    for i, cell in enumerate(levels(nbrs, 0)):
        if i % 2:
            odd |= cell
    for v, nb in enumerate(nbrs):
        side = odd if odd >> v & 1 else ~odd
        if nb & side:
            return None
    return odd


def classify(nbrs: list[int]) -> tuple[str, tuple | None]:
    """(verdict, arrays): one array for DR, (part-0 array, part-1 array) for DBR."""
    arrays = []
    for u in range(len(nbrs)):
        arr = intersection_array(nbrs, u)
        if arr is None:
            return NOT_PDR, None
        arrays.append(arr)
    if all(arr == arrays[0] for arr in arrays):
        return DR, (arrays[0],)
    odd = two_colouring(nbrs)
    if odd is not None:
        parts = ([arrays[v] for v in range(len(nbrs)) if not odd >> v & 1],
                 [arrays[v] for v in range(len(nbrs)) if odd >> v & 1])
        if all(all(arr == part[0] for arr in part) for part in parts):
            return DBR, (parts[0][0], parts[1][0])
    raise OracleError("every vertex is distance-regular around, yet the graph is neither DR nor DBR")


# ---------------------------------------------------------------------------
# graph6 encoding (short form), independent of pdrkit's codec


def graph6(nbrs: list[int]) -> str:
    n = len(nbrs)
    bits = [(nbrs[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        v = 0
        for bit in bits[k:k + 6]:
            v = v << 1 | bit
        chars.append(chr(63 + v))
    return "".join(chars)


# ---------------------------------------------------------------------------
# the corpora of all connected graphs on n vertices, and seeded samples


def connected_graphs(n: int) -> list[list[int]]:
    """Every connected labelled graph on n vertices, by edge-subset bitmask."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        nbrs = [0] * n
        k = 0
        m = mask
        while m:
            if m & 1:
                i, j = pairs[k]
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
            m >>= 1
            k += 1
        if is_connected(nbrs):
            out.append(nbrs)
    return out


def classified(n: int) -> list[tuple[list[int], str]]:
    """(graph, oracle verdict) for the whole corpus on n vertices, in
    ascending edge-subset order; checks the known counts."""
    out = [(nbrs, classify(nbrs)[0]) for nbrs in connected_graphs(n)]
    got = {"total": len(out), DR: 0, DBR: 0}
    for _, verdict in out:
        if verdict != NOT_PDR:
            got[verdict] += 1
    if got != EXPECTED[n]:
        raise OracleError(f"n={n} corpus counts {got} differ from {EXPECTED[n]}")
    return out


def classes(n: int) -> dict[str, list[list[int]]]:
    """The corpus on n vertices split by oracle verdict."""
    out: dict[str, list[list[int]]] = {DR: [], DBR: [], NOT_PDR: []}
    for nbrs, verdict in classified(n):
        out[verdict].append(nbrs)
    return out


def stratified_sample(classes: dict[str, list[list[int]]], size: int, seed: int) -> list[tuple[str, str]]:
    """(graph6, expected verdict) pairs, each class in its corpus share.

    Shares are rounded by largest remainder, so every seed draws the same
    number of graphs from each class and only which graphs differs.
    """
    total = sum(len(v) for v in classes.values())
    quotas = {k: size * len(v) / total for k, v in classes.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    for k in sorted(quotas, key=lambda k: counts[k] - quotas[k])[: size - sum(counts.values())]:
        counts[k] += 1
    rng = random.Random(seed)
    picked = [(graph6(nbrs), k) for k in sorted(classes) for nbrs in rng.sample(classes[k], counts[k])]
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------------------
# named families with closed-form intersection arrays


def named_graph(spec: str) -> list[int]:
    """The pdrkit catalog labelling of a named family, rebuilt here."""
    name, _, tail = spec.partition(":")
    p = [int(x) for x in tail.split(",")] if tail else []
    if name == "path":
        return from_edges(p[0], [(i, i + 1) for i in range(p[0] - 1)])
    if name == "cycle":
        return from_edges(p[0], [(i, (i + 1) % p[0]) for i in range(p[0])])
    if name == "complete":
        return from_edges(p[0], combinations(range(p[0]), 2))
    if name == "complete_bipartite":
        a, b = p
        return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if name == "hypercube":
        n = 1 << p[0]
        return from_edges(n, [(v, v ^ 1 << k) for v in range(n) for k in range(p[0]) if v < v ^ 1 << k])
    if name == "petersen":
        return from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    raise ValueError(f"unknown family {name!r}")


def closed_form(spec: str) -> tuple[str, tuple | None, tuple[int, ...] | None]:
    """(verdict, arrays, part sizes) from the textbook formulas.

    Arrays are ((b), (c), (a)) triples. For a distance-biregular graph the
    first array belongs to the part of the first ``part sizes`` vertices in
    the catalog labelling.
    """
    name, _, tail = spec.partition(":")
    p = [int(x) for x in tail.split(",")] if tail else []
    if name == "path":
        if p[0] < 4:
            raise ValueError("closed forms cover path:k for k >= 4 only")
        return NOT_PDR, None, None
    if name == "cycle":
        k = p[0]
        d = k // 2
        b = (2,) + (1,) * (d - 1)
        c = (1,) * (d - 1) + ((2,) if k % 2 == 0 else (1,))
        a = (0,) * d + ((1,) if k % 2 else (0,))
        return DR, ((b, c, a),), None
    if name == "complete":
        k = p[0]
        return DR, (((k - 1,), (1,), (0, k - 2)),), None
    if name == "hypercube":
        d = p[0]
        return DR, ((tuple(d - i for i in range(d)), tuple(range(1, d + 1)), (0,) * (d + 1)),), None
    if name == "petersen":
        return DR, (((3, 2), (1, 1), (0, 0, 2)),), None
    if name == "complete_bipartite":
        a, b = p

        def side(own: int, other: int):
            # From a vertex of the part of size `own`: all `other` vertices at
            # distance 1, the rest of its own part at distance 2.
            if own == 1:
                return (other,), (1,), (0, 0)
            return (other, own - 1), (1, other), (0, 0, 0)

        if a == b:
            return DR, (side(a, b),), None
        return DBR, (side(a, b), side(b, a)), (a, b)
    raise ValueError(f"unknown family {name!r}")


def relabel(nbrs: list[int], perm: list[int]) -> list[int]:
    """The graph with vertex v renamed perm[v]."""
    out = [0] * len(nbrs)
    for v, nb in enumerate(nbrs):
        m = 0
        f = nb
        while f:
            low = f & -f
            m |= 1 << perm[low.bit_length() - 1]
            f ^= low
        out[perm[v]] = m
    return out


def main(argv: list[str]) -> int:
    """``corpus.py sample N SIZE SEED``: print a stratified sample as JSON.

    The benchmark builds its n = 6 sample in a child process, so the corpus
    does not count towards the benchmark process's peak memory.
    """
    if len(argv) != 4 or argv[0] != "sample":
        print("usage: corpus.py sample N SIZE SEED", file=sys.stderr)
        return 2
    n, size, seed = (int(a) for a in argv[1:])
    json.dump(stratified_sample(classes(n), size, seed), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
