"""Graph primitives: adjacency storage, the graph6 codec, hop distances, a
small generator catalog, and exhaustive enumeration.

Vertices are dense 0-based integers everywhere. Every structure is frozen
after construction and safe to share across threads. Disconnected input is
always an error, never a silent per-component analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

GRAPH6_MAX_N = 62


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the position of the bad byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self._message = message
        self.offset = offset

    def __reduce__(self):  # survives process boundaries
        return type(self), (self._message, self.offset)


class UnsupportedSizeError(ValueError):
    """Graph too large for the short graph6 form (n > 62)."""


class ConnectivityError(ValueError):
    """An operation that assumes a connected graph met one that is not."""

    def __init__(self, message: str, unreachable: int | None = None):
        super().__init__(message)
        self.unreachable = unreachable

    def __reduce__(self):
        return type(self), (self.args[0], self.unreachable)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adjacency`` is a symmetric boolean matrix with an all-false diagonal,
    made read-only on construction.
    """

    n: int
    adjacency: np.ndarray
    edge_count: int

    def __post_init__(self):
        adj = self.adjacency
        if adj.ndim != 2 or adj.shape != (self.n, self.n):
            raise ValueError("adjacency must be an n x n matrix")
        if self.n < 1:
            raise ValueError("a graph needs at least one vertex")
        if adj.dtype != np.bool_:
            raise ValueError("adjacency must be boolean")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not (adj == adj.T).all():
            raise ValueError("adjacency must be symmetric")
        if self.edge_count != np.count_nonzero(adj) // 2:
            raise ValueError("edge_count does not match the adjacency matrix")
        adj.setflags(write=False)

    @classmethod
    def from_adjacency(cls, adjacency) -> "Graph":
        adj = np.array(adjacency, dtype=bool)
        n = adj.shape[0] if adj.ndim == 2 else 0
        return cls(n=n, adjacency=adj, edge_count=np.count_nonzero(adj) // 2)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for a graph on {n} vertices")
            adj[u, v] = adj[v, u] = True
        return cls.from_adjacency(adj)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.adjacency, other.adjacency)
        )

    def neighbors(self, u: int) -> np.ndarray:
        return np.nonzero(self.adjacency[u])[0]

    def degree(self, u: int) -> int:
        return int(self.adjacency[u].sum())

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(np.int64)

    def adjacency_matrix(self) -> np.ndarray:
        """The adjacency as a fresh, writable 0/1 float matrix."""
        return self.adjacency.astype(float)

    @cached_property
    def distances(self) -> np.ndarray:
        """All-pairs hop distances, computed on first use; see :func:`all_pairs_distances`."""
        return all_pairs_distances(self)

    @cached_property
    def bipartition(self) -> "Bipartition | None":
        """The 2-coloring, computed on first use; see :func:`bipartition`."""
        return bipartition(self)


@dataclass(frozen=True, eq=False)
class Bipartition:
    """Two-coloring of a connected bipartite graph.

    ``side`` is the label row of the two parts: ``side[v]`` is 0 on the part
    containing vertex 0, else 1. ``degrees`` holds the sorted degree
    multiset of each part; ``biregular`` is true when both parts (nonempty)
    have constant degree.
    """

    side: np.ndarray
    degrees: tuple[tuple[int, ...], tuple[int, ...]]
    biregular: bool

    @property
    def part_degrees(self) -> tuple[int, int] | None:
        """(delta_1, delta_2) when biregular, else None."""
        if not self.biregular:
            return None
        return self.degrees[0][0], self.degrees[1][0]


# ---------------------------------------------------------------------------
# graph6 codec (short form only)
#
# First byte is n + 63 with n <= 62.  The remaining bytes pack the strict
# upper triangle read column by column -- (0,1), (0,2), (1,2), (0,3), ... --
# six bits per byte, most significant bit first, each byte offset by 63.
# Encoding and decoding work on stacks of graphs of one order, one byte row
# per graph; the one-graph functions are their B = 1 case.


@lru_cache(maxsize=GRAPH6_MAX_N)
def _pair_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row/column indices of the upper triangle in graph6 bit order."""
    cols = np.repeat(np.arange(1, n), np.arange(1, n))
    rows = np.concatenate([np.arange(j) for j in range(1, n)]) if n > 1 else np.array([], dtype=int)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


# The weight of each of a byte's six payload bits, most significant first.
_BIT_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
_BIT_WEIGHTS.setflags(write=False)


def _graph6_codes(adjacency: np.ndarray) -> np.ndarray:
    """(B, 1 + payload) uint8 graph6 bytes of a (B, n, n) boolean stack, zero padding bits."""
    B, n, _ = adjacency.shape
    rows, cols = _pair_order(n)
    nbytes = (len(rows) + 5) // 6
    bits = np.zeros((B, 6 * nbytes), dtype=np.uint8)
    bits[:, : len(rows)] = adjacency[:, rows, cols]
    codes = np.empty((B, 1 + nbytes), dtype=np.uint8)
    codes[:, 0] = n
    codes[:, 1:] = bits.reshape(B, nbytes, 6) @ _BIT_WEIGHTS
    codes += 63
    return codes


def _graph6_strings(codes: np.ndarray) -> list[str]:
    """The rows of :func:`_graph6_codes` as strings."""
    width = codes.shape[1]
    text = codes.tobytes().decode("ascii")
    return [text[i : i + width] for i in range(0, len(text), width)]


@lru_cache(maxsize=GRAPH6_MAX_N)
def _bit_positions(n: int) -> np.ndarray:
    """Read-only (n, n) positions of each pair's bit among the unpacked bits of a graph6 row.

    A row less 63 unpacks to eight bits a byte, most significant first.
    Each byte is then below 64, so its first two bits are zero: pair p of
    :func:`_pair_order` is bit 2 + p % 6 of payload byte p // 6, and a
    diagonal entry points at the first bit of the size byte.
    """
    rows, cols = _pair_order(n)
    p = np.arange(len(rows))
    positions = np.zeros((n, n), dtype=np.int64)
    positions[rows, cols] = positions[cols, rows] = 8 * (1 + p // 6) + 2 + p % 6
    positions.setflags(write=False)
    return positions


def _graph6_adjacency(codes: np.ndarray, n: int) -> np.ndarray:
    """(B, n, n) boolean stack of well-formed short graph6 byte rows of order n; padding bits are ignored."""
    return np.unpackbits(codes - 63, axis=1)[:, _bit_positions(n)].view(bool)


def _graph6_order(data: str | bytes) -> tuple[bytes, int]:
    """The bytes and the order n of a well-formed short-form graph6 string.

    The one home of graph6's validation rules: raises :class:`Graph6Error`
    with the byte offset on malformed input.
    """
    if isinstance(data, str):
        try:
            raw = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII character", exc.start) from None
    else:
        raw = bytes(data)
    if not raw:
        raise Graph6Error("empty input", 0)
    if min(raw) < 63 or max(raw) > 126:
        k = next(i for i, byte in enumerate(raw) if not 63 <= byte <= 126)
        raise Graph6Error(f"byte {raw[k]} outside the printable range [63, 126]", k)
    if raw[0] == 126:
        raise Graph6Error("long-form size prefix '~' is not supported", 0)
    n = raw[0] - 63
    if n == 0:
        raise Graph6Error("a zero-vertex graph cannot be represented", 0)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(raw) - 1 != nbytes:
        raise Graph6Error(
            f"payload for n={n} needs {nbytes} bytes, got {len(raw) - 1}",
            min(len(raw), 1 + nbytes),
        )
    return raw, n


def _graph6_stack(strings: list[str], n: int) -> np.ndarray:
    """(B, n, n) boolean stack of a nonempty list of graph6 strings of order n
    that :func:`_graph6_order` has accepted."""
    codes = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8).reshape(len(strings), -1)
    return _graph6_adjacency(codes, n)


def parse_graph6(data: str | bytes) -> Graph:
    """Decode a short-form graph6 byte string into a :class:`Graph`.

    Raises :class:`Graph6Error` with the byte offset on malformed input.
    """
    raw, n = _graph6_order(data)
    adj = _graph6_adjacency(np.frombuffer(raw, dtype=np.uint8)[None], n)[0]
    return Graph(n=n, adjacency=adj, edge_count=np.count_nonzero(adj) // 2)


def _require_short_graph6(n: int) -> None:
    if n > GRAPH6_MAX_N:
        raise UnsupportedSizeError(f"short graph6 form supports at most {GRAPH6_MAX_N} vertices, got {n}")


def serialize_graph6(g: Graph) -> str:
    """Encode a graph (n <= 62) as a short-form graph6 string.

    Inverse of :func:`parse_graph6`; padding bits are zero, so the encoding
    is canonical and round-trips bit-exactly.
    """
    _require_short_graph6(g.n)
    return _graph6_strings(_graph6_codes(g.adjacency[None]))[0]


# ---------------------------------------------------------------------------
# distances


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Read-only n x n matrix of hop distances, -1 for unreachable pairs.

    Use ``g.distances``, which computes it once per graph. The B = 1 case
    of :func:`_distance_stack`.
    """
    dist = _distance_stack(g.adjacency[None])[0].copy()
    dist.setflags(write=False)
    return dist


def _cache_distances(g: Graph, dist: np.ndarray) -> None:
    """Keep a distance matrix computed for g in a stack as ``g.distances``, unless g has one."""
    g.__dict__.setdefault("distances", dist)


def _distance_stack(adjacency: np.ndarray) -> np.ndarray:
    """Read-only (B, n, n) hop distances of a stack of adjacency matrices, -1 for unreachable pairs.

    One breadth-first sweep from every source of every graph at once: level
    d+1 is the set of unseen neighbors of level d.
    """
    B, n, _ = adjacency.shape
    A = adjacency.astype(float)
    dist = np.full((B, n, n), -1, dtype=np.int64)
    frontier = np.zeros((B, n, n), dtype=bool)
    frontier.reshape(B, n * n)[:, :: n + 1] = True
    seen = frontier.copy()
    d = 0
    while frontier.any():
        dist[frontier] = d
        frontier = (frontier @ A > 0) > seen  # reached and not seen before
        seen |= frontier
        d += 1
    dist.setflags(write=False)
    return dist


def distances_from(g: Graph, u: int) -> np.ndarray:
    """Row u of ``g.distances``: the distance partition around u as a label row.

    Entry v is the cell of v, its distance from u; u's eccentricity is the
    row's maximum. Raises :class:`ConnectivityError` naming the lowest
    vertex unreachable from u when the graph is disconnected.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range for a graph on {g.n} vertices")
    dist = g.distances[u]
    if dist.min() < 0:
        v = int(np.argmin(dist))
        raise ConnectivityError(f"graph is disconnected: vertex {v} is unreachable from {u}", unreachable=v)
    return dist


# ---------------------------------------------------------------------------
# generators

NAMED_FAMILIES = ("path", "cycle", "complete", "complete_bipartite", "hypercube", "petersen")


def generate_named(family: str, *params: int) -> Graph:
    """Build a graph from the named catalog.

    Vertex labelings:
      path(k)                 0-1-...-(k-1)
      cycle(k)                0-1-...-(k-1)-0, k >= 3
      complete(k)             all pairs adjacent
      complete_bipartite(a,b) first part 0..a-1, second part a..a+b-1
      hypercube(d)            vertices are d-bit labels, edges flip one bit
      petersen                outer 5-cycle 0..4, inner pentagram 5..9,
                              spokes i ~ i+5
    """
    params = tuple(int(p) for p in params)
    if family == "path":
        (k,) = _check_params(family, params, 1)
        if k < 1:
            raise ValueError("path needs at least 1 vertex")
        return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
    if family == "cycle":
        (k,) = _check_params(family, params, 1)
        if k < 3:
            raise ValueError("cycle length must be at least 3")
        return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])
    if family == "complete":
        (k,) = _check_params(family, params, 1)
        if k < 1:
            raise ValueError("complete graph needs at least 1 vertex")
        return Graph.from_edges(k, combinations(range(k), 2))
    if family == "complete_bipartite":
        a, b = _check_params(family, params, 2)
        if a < 1 or b < 1:
            raise ValueError("complete_bipartite needs two positive part sizes")
        return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if family == "hypercube":
        (d,) = _check_params(family, params, 1)
        if d < 0:
            raise ValueError("hypercube dimension must be non-negative")
        verts = range(1 << d)
        return Graph.from_edges(1 << d, [(v, v ^ (1 << k)) for v in verts for k in range(d) if v < v ^ (1 << k)])
    if family == "petersen":
        _check_params(family, params, 0)
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return Graph.from_edges(10, edges)
    raise ValueError(f"unknown family {family!r}; known: {', '.join(NAMED_FAMILIES)}")


def _check_params(family: str, params: tuple[int, ...], want: int) -> tuple[int, ...]:
    if len(params) != want:
        raise ValueError(f"family {family!r} takes {want} parameter(s), got {len(params)}")
    return params


# ---------------------------------------------------------------------------
# enumeration


# enumerate_connected tests this many edge masks per array sweep.
_ENUMERATION_CHUNK = 1 << 14


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Stream every connected labeled simple graph on n vertices.

    Visits all 2^(n(n-1)/2) edge subsets in ascending bitmask order (bit k
    is the k-th pair in lexicographic order) and yields the connected ones.
    Masks are tested a chunk at a time: each vertex's neighborhood is an
    int64 bitmask, and a breadth-first sweep grows the set reached from
    vertex 0 in every mask of the chunk together. Guarded to n <= 7 against
    blow-up.
    """
    for adj in _connected_stacks(n):
        for a, edges in zip(adj, (np.count_nonzero(adj, axis=(1, 2)) // 2).tolist()):
            yield Graph(n=n, adjacency=a.copy(), edge_count=edges)


def _connected_stacks(n: int) -> Iterator[np.ndarray]:
    """The graphs of :func:`enumerate_connected`, in its order, as one
    (B, n, n) boolean adjacency stack per chunk of masks."""
    if not 1 <= n <= 7:
        raise ValueError(f"enumeration supports 1 <= n <= 7, got {n}")
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)
    full = (1 << n) - 1
    for start in range(0, 1 << len(pairs), _ENUMERATION_CHUNK):
        masks = np.arange(start, min(1 << len(pairs), start + _ENUMERATION_CHUNK), dtype=np.int64)
        nbr = np.zeros((n, len(masks)), dtype=np.int64)
        for k, (i, j) in enumerate(pairs.tolist()):
            bit = (masks >> k) & 1
            nbr[i] |= bit << j
            nbr[j] |= bit << i
        seen, frontier = np.ones_like(masks), np.ones_like(masks)
        while frontier.any():
            reached = np.zeros_like(masks)
            for v in range(n):
                reached |= np.where((frontier >> v) & 1, nbr[v], 0)
            frontier = reached & ~seen
            seen |= frontier
        kept = masks[seen == full]
        bits = ((kept[:, None] >> np.arange(len(pairs))) & 1).astype(bool)
        adj = np.zeros((len(kept), n, n), dtype=bool)
        adj[:, pairs[:, 0], pairs[:, 1]] = bits
        adj[:, pairs[:, 1], pairs[:, 0]] = bits
        yield adj


# ---------------------------------------------------------------------------
# bipartiteness


def bipartition(g: Graph) -> Bipartition | None:
    """The unique 2-coloring of a connected bipartite graph, else None.

    The part containing vertex 0 comes first. ``biregular`` requires both
    parts nonempty with constant degree. Use ``g.bipartition``, which
    computes it once per graph.
    """
    side = distances_from(g, 0) % 2
    if (g.adjacency & (side[:, None] == side[None, :])).any():
        return None
    side.setflags(write=False)
    degrees = tuple(tuple(sorted(g.degrees[side == p].tolist())) for p in (0, 1))
    biregular = all(len(set(ds)) == 1 for ds in degrees)
    return Bipartition(side=side, degrees=degrees, biregular=biregular)
