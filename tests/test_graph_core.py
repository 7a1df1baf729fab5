"""Graph primitives: graph6 codec, distance rows, generators, enumeration."""

import hashlib
from itertools import combinations

import numpy as np
import pytest

from pdrkit import (
    ConnectivityError,
    Graph,
    Graph6Error,
    UnsupportedSizeError,
    adjacency_powers,
    bipartition,
    distances_from,
    enumerate_connected,
    generate_named,
    parse_graph6,
    serialize_graph6,
)


def reference_decode(s: str) -> set[tuple[int, int]]:
    # Independent bit-string decoder: no shared code with the library path.
    n = ord(s[0]) - 63
    stream = "".join(format(ord(ch) - 63, "06b") for ch in s[1:])
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if stream[k] == "1":
                edges.add((i, j))
            k += 1
    return edges


def graph_edges(g: Graph) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(g.adjacency)))}


# --- graph6 parsing -------------------------------------------------------


def test_parse_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edge_count == 1
    assert graph_edges(g) == {(0, 1)}


def test_parse_k3():
    g = parse_graph6("Bw")
    assert g.n == 3 and graph_edges(g) == {(0, 1), (0, 2), (1, 2)}


def test_parse_path3():
    g = parse_graph6("Bg")
    assert graph_edges(g) == {(0, 1), (1, 2)}


def test_parse_accepts_bytes():
    assert parse_graph6(b"Bw") == parse_graph6("Bw")


def test_parse_matches_reference_decoder():
    for s in ["A_", "Bw", "Bg", "DQc", "E?~o", "C]"]:
        assert graph_edges(parse_graph6(s)) == reference_decode(s)


def test_parse_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    for n in [1, 2, 5, 13, 30, 62]:
        adj = np.zeros((n, n), dtype=bool)
        iu = np.triu_indices(n, 1)
        bits = rng.random(len(iu[0])) < 0.4
        adj[iu] = bits
        adj |= adj.T
        g = Graph.from_adjacency(adj)
        s = serialize_graph6(g)
        h = nx.from_graph6_bytes(s.encode("ascii"))
        assert h.number_of_nodes() == n
        assert {tuple(sorted(e)) for e in h.edges()} == graph_edges(g)


@pytest.mark.parametrize(
    "data, offset",
    [
        ("", 0),
        ("~??", 0),  # long form prefix
        ("?", 0),  # zero vertices
        ("B", 1),  # payload too short
        ("A__", 2),  # payload too long
        ("B\x20w", 1),  # byte below 63
        ("B\x7fw", 1),  # byte above 126
    ],
)
def test_parse_errors_carry_offsets(data, offset):
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(data)
    assert exc.value.offset == offset


# --- graph6 serialization -------------------------------------------------


def test_stack_decoder_matches_parse_graph6():
    # Row by row, on every connected graph with n <= 5 and every 50th with n = 6.
    from pdrkit.graph_core import _graph6_order, _graph6_stack

    for n in range(1, 7):
        strings = [serialize_graph6(g) for g in enumerate_connected(n)][:: 50 if n == 6 else 1]
        assert {_graph6_order(s)[1] for s in strings} == {n}
        stack = _graph6_stack(strings, n)
        assert stack.shape == (len(strings), n, n) and stack.dtype == bool
        for s, adj in zip(strings, stack):
            assert np.array_equal(adj, parse_graph6(s).adjacency)


def test_serialize_known_strings():
    assert serialize_graph6(generate_named("complete", 2)) == "A_"
    assert serialize_graph6(generate_named("complete", 3)) == "Bw"
    assert serialize_graph6(generate_named("complete", 1)) == "@"


def test_serialize_rejects_large_graphs():
    with pytest.raises(UnsupportedSizeError):
        serialize_graph6(generate_named("complete_bipartite", 31, 32))


def test_round_trip_exhaustive_small():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            assert parse_graph6(serialize_graph6(g)) == g


def test_round_trip_random_up_to_62():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 63))
        adj = np.zeros((n, n), dtype=bool)
        iu = np.triu_indices(n, 1)
        adj[iu] = rng.random(len(iu[0])) < 0.3
        adj |= adj.T
        g = Graph.from_adjacency(adj)
        assert parse_graph6(serialize_graph6(g)) == g


def test_round_trip_seven_vertex_sample():
    # Codec round trips need no connectivity: stride through the 2^21 edge
    # subsets on 7 vertices directly, independent of the enumerator.
    from itertools import combinations

    pairs = list(combinations(range(7), 2))
    for mask in range(0, 1 << 21, 997):
        adj = np.zeros((7, 7), dtype=bool)
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                adj[i, j] = adj[j, i] = True
        g = Graph.from_adjacency(adj)
        again = parse_graph6(serialize_graph6(g))
        assert again == g


def test_errors_survive_pickling():
    # Worker processes hand exceptions back through pickle.
    import pickle

    try:
        parse_graph6("B")
    except Graph6Error as exc:
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.offset == 1 and str(clone) == str(exc)
    try:
        distances_from(Graph.from_edges(3, [(0, 1)]), 0)
    except ConnectivityError as exc:
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.unreachable == 2 and str(clone) == str(exc)


# --- Graph invariants -----------------------------------------------------


def test_graph_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph.from_adjacency(np.ones((2, 2), dtype=bool))  # diagonal set
    asym = np.zeros((2, 2), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=asym, edge_count=1)
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_adjacency_is_frozen():
    g = generate_named("cycle", 4)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = False


# --- Breadth-first distance rows and distance matrices -------------------
#
# distances_from(g, u) is the distance partition around u as a label row:
# entry v is the cell of v, and the row's maximum is u's eccentricity.


def test_bfs_petersen():
    g = generate_named("petersen")
    for u in range(10):
        row = distances_from(g, u)
        assert list(np.bincount(row)) == [1, 3, 6]
        assert row.max() == 2


def test_bfs_cycle4_and_k3():
    assert list(np.bincount(distances_from(generate_named("cycle", 4), 2))) == [1, 2, 1]
    row = distances_from(generate_named("complete", 3), 0)
    assert list(np.bincount(row)) == [1, 2] and row.max() == 1


def test_bfs_cell_structure():
    # Every vertex at level i+1 has a neighbor at level i, none at level i-1
    # or below; cells 0..eccentricity are all non-empty and {u} is cell 0.
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for u in range(g.n):
                row = distances_from(g, u)
                sizes = np.bincount(row)
                assert sizes.all() and sizes.sum() == g.n and list(np.flatnonzero(row == 0)) == [u]
                if len(sizes) > 1:
                    assert sizes[1] == g.degree(u)
                for v in range(g.n):
                    steps = set((row[g.neighbors(v)] - row[v]).tolist())
                    assert steps <= {-1, 0, 1} and (row[v] == 0 or -1 in steps)


def test_bfs_disconnected_names_unreachable_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ConnectivityError) as exc:
        distances_from(g, 0)
    assert exc.value.unreachable == 2
    assert "2" in str(exc.value)


def test_bfs_disconnected_names_lowest_unreachable_from_source():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    with pytest.raises(ConnectivityError) as exc:
        distances_from(g, 3)
    assert exc.value.unreachable == 0
    assert list(g.distances[3]) == [-1, -1, 1, 0, 1]


def test_distance_matrix_is_computed_once_and_frozen():
    g = generate_named("petersen")
    assert g.distances is g.distances
    assert not g.distances.flags.writeable
    assert distances_from(g, 4).base is g.distances


# Connected members of every catalog family, up to the largest it builds.
NAMED_SPECS = [
    ("petersen",),
    ("path", 1),
    ("path", 2),
    ("path", 22),
    ("path", 40),
    ("cycle", 3),
    ("cycle", 40),
    ("complete", 1),
    ("complete", 30),
    ("complete_bipartite", 1, 3),
    ("complete_bipartite", 10, 20),
    ("hypercube", 0),
    ("hypercube", 6),
]


def test_distance_matrix_and_bipartition_match_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += [generate_named(*spec) for spec in NAMED_SPECS]
    for g in graphs:
        h = nx.from_numpy_array(g.adjacency.astype(int))
        want = np.full((g.n, g.n), -1)
        for u, lengths in nx.all_pairs_shortest_path_length(h):
            want[u, list(lengths)] = list(lengths.values())
        assert np.array_equal(g.distances, want)
        assert (bipartition(g) is not None) == nx.is_bipartite(h)


def distance_matrices(g):
    """0/1 matrices A_0..A_D with (A_i)_uv = 1 iff dist(u, v) = i."""
    return [g.distances == i for i in range(int(g.distances.max()) + 1)]


def test_distance_matrices_basics():
    g = generate_named("complete", 3)
    mats = distance_matrices(g)
    assert len(mats) == 2
    assert np.array_equal(mats[0], np.eye(3, dtype=bool))
    assert np.array_equal(mats[1], ~np.eye(3, dtype=bool))

    c4 = distance_matrices(generate_named("cycle", 4))
    assert np.array_equal(c4[2].sum(axis=1), np.ones(4))

    pet = distance_matrices(generate_named("petersen"))
    assert np.array_equal(pet[2].sum(axis=1), np.full(10, 6))
    assert np.array_equal(sum(m.astype(int) for m in pet), np.ones((10, 10), dtype=int))
    assert np.array_equal(pet[1], generate_named("petersen").adjacency)


# --- named generators ------------------------------------------------------


def test_generate_named_catalog():
    pet = generate_named("petersen")
    assert pet.n == 10 and pet.edge_count == 15
    assert set(pet.degrees) == {3}

    k23 = generate_named("complete_bipartite", 2, 3)
    assert sorted(k23.degrees) == [2, 2, 2, 3, 3]

    c4 = generate_named("cycle", 4)
    assert c4.n == 4 and set(c4.degrees) == {2}

    q3 = generate_named("hypercube", 3)
    assert q3.n == 8 and set(q3.degrees) == {3}

    p1 = generate_named("path", 1)
    assert p1.n == 1 and p1.edge_count == 0


def test_generate_named_errors():
    with pytest.raises(ValueError):
        generate_named("moebius", 5)
    with pytest.raises(ValueError):
        generate_named("cycle", 2)
    with pytest.raises(ValueError):
        generate_named("petersen", 5)
    with pytest.raises(ValueError):
        generate_named("complete_bipartite", 3)


# --- enumeration -----------------------------------------------------------


def connected_by_union_find(n: int) -> int:
    # Independent count: union-find over the same bitmask space.
    from itertools import combinations

    pairs = list(combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                parent[find(i)] = find(j)
        if len({find(v) for v in range(n)}) == 1:
            count += 1
    return count


@pytest.mark.parametrize("n, expected", [(1, 1), (2, 1), (3, 4), (4, 38)])
def test_enumeration_counts(n, expected):
    graphs = list(enumerate_connected(n))
    assert len(graphs) == expected
    assert connected_by_union_find(n) == expected


def plain_loop_graph6(n: int) -> list[str]:
    """graph6 strings of the connected graphs on n vertices, one mask at a time in ascending order."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        adj = np.zeros((n, n), dtype=bool)
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                adj[i, j] = adj[j, i] = True
        reached, frontier = {0}, [0]
        while frontier:
            frontier = [w for v in frontier for w in range(n) if adj[v, w] and w not in reached]
            reached.update(frontier)
        if len(reached) == n:
            out.append(serialize_graph6(Graph.from_adjacency(adj)))
    return out


# sha256 of the graph6 strings of enumerate_connected(6), one per line,
# as the per-mask loop that the chunked sweep replaced yielded them.
ENUMERATE_6_GRAPH6_SHA256 = "65aefcada5c11024107999c7eb8ea657e6173af2d67e9a4e0581403bf4e7e20c"


def test_enumeration_matches_plain_loop():
    for n in range(1, 6):
        assert [serialize_graph6(g) for g in enumerate_connected(n)] == plain_loop_graph6(n)
    digest = hashlib.sha256()
    for g in enumerate_connected(6):
        digest.update((serialize_graph6(g) + "\n").encode("ascii"))
    assert digest.hexdigest() == ENUMERATE_6_GRAPH6_SHA256


def test_enumeration_n3_members():
    edge_sets = [graph_edges(g) for g in enumerate_connected(3)]
    assert edge_sets == [
        {(0, 1), (0, 2)},
        {(0, 1), (1, 2)},
        {(0, 2), (1, 2)},
        {(0, 1), (0, 2), (1, 2)},
    ]


def test_enumeration_range_guard():
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(8))


# --- bipartiteness ---------------------------------------------------------


def test_bipartition_examples():
    assert bipartition(generate_named("cycle", 5)) is None

    bp = bipartition(generate_named("complete_bipartite", 2, 3))
    assert tuple(np.bincount(bp.side)) == (2, 3)
    assert bp.biregular and bp.part_degrees == (3, 2)

    bp = bipartition(generate_named("path", 4))
    assert tuple(np.bincount(bp.side)) == (2, 2)
    assert bp.degrees == ((1, 2), (1, 2))
    assert not bp.biregular and bp.part_degrees is None


def test_bipartition_part_zero_first():
    bp = bipartition(generate_named("path", 3))
    assert bp.side[0] == 0


def test_bipartition_matches_odd_walk_criterion():
    # Bipartite iff every odd power of the adjacency has zero diagonal.
    for n in range(1, 6):
        for g in enumerate_connected(n):
            powers = adjacency_powers(g, 7)
            has_odd_closed = any(np.trace(powers[k]) > 0 for k in (1, 3, 5, 7))
            assert (bipartition(g) is None) == has_odd_closed
            if bipartition(g) is not None:
                bp = bipartition(g)
                cross = g.adjacency.copy()
                for p in (0, 1):
                    part = np.flatnonzero(bp.side == p)
                    cross[np.ix_(part, part)] = False
                assert cross.sum() == 2 * g.edge_count
