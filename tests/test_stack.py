"""verify_graphs on whole stacks against verify_graph one graph at a time.

The one-graph path is the oracle: every result of a stack must equal the
result of the same graph checked alone, violations included (tag and detail
text, in order), and the stacked decompositions must equal decompose bit for
bit.
"""

import dataclasses

import numpy as np
import pytest

from pdrkit import (
    DEFAULT_TOL,
    Graph,
    GroupingAmbiguityError,
    IllConditionedMeasureError,
    decompose,
    enumerate_connected,
    generate_named,
    parse_graph6,
    serialize_graph6,
    verify_graph,
    verify_graphs,
)
from pdrkit import pdr
from pdrkit.spectral import _decompose_stack

N6_SAMPLE = 1000


def as_tuple(result):
    return result.graph6, result.verdict, result.all_pdr, tuple((v.check, v.detail) for v in result.violations)


def assert_stack_matches_one_at_a_time(graphs):
    stacked = verify_graphs(graphs)
    assert len(stacked) == len(graphs)
    assert [as_tuple(r) for r in stacked] == [as_tuple(verify_graph(g)) for g in graphs]
    return stacked


def test_stack_matches_one_graph_at_a_time_up_to_five_vertices():
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    results = assert_stack_matches_one_at_a_time(graphs)
    assert [r.graph6 for r in results] == [serialize_graph6(g) for g in graphs]
    assert sum(r.all_pdr for r in results) == 1 + 1 + 4 + 8 + 28


def test_stack_matches_one_graph_at_a_time_on_a_six_vertex_sample():
    six = [serialize_graph6(g) for g in enumerate_connected(6)]
    rng = np.random.default_rng(20261018)
    sample = [parse_graph6(six[i]) for i in sorted(rng.choice(len(six), N6_SAMPLE, replace=False))]
    assert_stack_matches_one_at_a_time(sample)


def test_stack_of_graphs_that_each_span_several_blocks():
    # Past n = 20 a graph's vertices fill several blocks, and at n = 25 and
    # 30 a stack still holds several graphs.
    rng = np.random.default_rng(3)

    def relabelled(g):
        p = rng.permutation(g.n)
        return Graph.from_adjacency(g.adjacency[np.ix_(p, p)])

    graphs = [generate_named("cycle", 30), generate_named("path", 30)]
    graphs += [relabelled(g) for g in graphs]
    graphs += [generate_named("complete_bipartite", 10, 15), generate_named("complete_bipartite", 12, 13)]
    assert pdr._stack_size(30) > 1 and pdr._stack_size(25) > 1
    results = assert_stack_matches_one_at_a_time(graphs)
    assert [r.verdict for r in results] == ["distance_regular", "not_pdr"] * 2 + ["distance_biregular"] * 2


def test_stacked_decompositions_equal_decompose_bit_for_bit():
    for n in range(1, 6):
        graphs = list(enumerate_connected(n))
        stack = _decompose_stack(np.stack([g.adjacency_matrix() for g in graphs]), DEFAULT_TOL)
        for b, g in enumerate(graphs):
            got, want = stack.decomposition(b), decompose(g)
            for field in ("eigenvalues", "multiplicities", "idempotents", "perron"):
                a, w = getattr(got, field), getattr(want, field)
                assert a.dtype == w.dtype and a.shape == w.shape and a.tobytes() == w.tobytes(), (g, field)


def test_mixed_stack_keeps_each_error_with_its_graph(monkeypatch):
    # Orders 3 to 6 interleaved, a disconnected graph, a graph whose grouping
    # is forced ambiguous, and one whose Lanczos loses rank at one vertex:
    # each failure stays with its graph, and every other graph of its stack
    # gets the result it gets alone.
    disconnected = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    ambiguous = generate_named("cycle", 5)
    rank_loss = generate_named("complete", 5)  # the only spectral radius 4 below
    graphs = list(enumerate_connected(5))[:40] + [disconnected, ambiguous, rank_loss]
    graphs += list(enumerate_connected(4))[:10] + list(enumerate_connected(6))[:20] + list(enumerate_connected(3))
    graphs = graphs[::2] + [generate_named("petersen")] + graphs[1::2]

    decompose_stack = pdr._decompose_stack

    def forced_grouping(adjacency, tol):
        stack = decompose_stack(adjacency, tol)
        for b in range(len(adjacency)):
            if adjacency.shape[1] == 5 and np.array_equal(adjacency[b], ambiguous.adjacency_matrix()):
                stack.errors[b] = GroupingAmbiguityError("forced ambiguous gap")
        return stack

    build = pdr._predistance_block

    def forced_rank_loss(vertices, support, weights, sizes, alphas):
        block = build(vertices, support, weights, sizes, alphas)
        hit = (np.abs(support[:, 0] - 4.0) < 1e-9) & (vertices == 2)
        forced = IllConditionedMeasureError("forced rank loss at vertex 2")
        errors = [forced if h else e for h, e in zip(hit, block.errors)]
        return dataclasses.replace(block, errors=errors)

    monkeypatch.setattr(pdr, "_decompose_stack", forced_grouping)
    monkeypatch.setattr(pdr, "_predistance_block", forced_rank_loss)
    results = assert_stack_matches_one_at_a_time(graphs)
    by_graph = {r.graph6: r for r in results}
    assert by_graph[serialize_graph6(disconnected)].violations[0].check == "connectivity"
    assert [(v.check, v.detail) for v in by_graph[serialize_graph6(ambiguous)].violations] == [
        ("decompose", "forced ambiguous gap")
    ]
    assert [(v.check, v.detail) for v in by_graph[serialize_graph6(rank_loss)].violations] == [
        ("numerical", "forced rank loss at vertex 2")
    ]
    clean = [r for r in results if r.graph6 not in {serialize_graph6(g) for g in (disconnected, ambiguous, rank_loss)}]
    assert all(r.violations == () and r.verdict is not None for r in clean)


def test_eigensolver_failure_stays_with_its_graph(monkeypatch):
    # When the stacked eigensolver fails, each graph is solved alone: the
    # graph whose own solve fails gets the tagged error, and the others of
    # its stack get the results they get alone.
    graphs = list(enumerate_connected(4))[:6]
    want = [as_tuple(verify_graph(g)) for g in graphs]
    chosen = graphs[2].adjacency_matrix()
    eigh = np.linalg.eigh

    def failing_eigh(a):
        if a.ndim == 3 or np.array_equal(a, chosen):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    error = ("decompose", "eigensolver did not converge: Eigenvalues did not converge")
    want[2] = (serialize_graph6(graphs[2]), None, False, (error,))
    assert [as_tuple(r) for r in verify_graphs(graphs)] == want


def test_verify_graphs_past_short_graph6():
    # cycle:63 is named by graph6's '~' long form.
    graphs = [generate_named("petersen"), generate_named("cycle", 63)]
    want = [(serialize_graph6(g), "distance_regular", True, ()) for g in graphs]
    assert [as_tuple(r) for r in verify_graphs(graphs)] == want
    assert want[1][0].startswith("~") and verify_graphs([]) == []


def test_classify_reads_read_only_distances(monkeypatch):
    # A graph that leaves the stack before the vertex pass (CQ is
    # disconnected) makes the stack's distances a fancy-indexed copy; the
    # graph that goes on to classify must still see read-only distances.
    writeable = []
    classify = pdr.classify

    def record(g, *args, **kwargs):
        writeable.append(g.distances.flags.writeable)
        return classify(g, *args, **kwargs)

    monkeypatch.setattr(pdr, "classify", record)
    for corpus in (["CQ", "C~"], ["C~"]):
        assert verify_graphs([parse_graph6(s) for s in corpus])[-1].verdict == "distance_regular"
    assert writeable == [False, False]


def test_stacks_follow_the_entry_budget(monkeypatch):
    sizes = []
    stack = pdr._verify_stack

    def record(adjacency, tol):
        sizes.append((adjacency.shape[1], len(adjacency)))
        return stack(adjacency, tol)

    monkeypatch.setattr(pdr, "_verify_stack", record)
    graphs = list(enumerate_connected(5)) + [generate_named("cycle", 40)] * 3
    verify_graphs(graphs)
    per_stack = pdr._STACK_ENTRIES // 5**3
    assert sizes == [(5, per_stack), (5, len(graphs) - 3 - per_stack), (40, 1), (40, 1), (40, 1)]


# Mean call and c_call events per verify_graph on the graphs of the test
# below, counted with sys.setprofile: 931 while each stage looped over
# eigenvalue-group sizes and ran its error loops empty, 409 with each stage
# a short, fixed sequence of array operations.
CALLS_PER_GRAPH = 409


def test_one_graph_stays_within_its_call_budget():
    import sys

    graphs = list(enumerate_connected(6))[::267]
    graphs += [generate_named("complete", 6), generate_named("complete_bipartite", 2, 4)]  # DR and DBR
    for g in graphs:  # first-call imports and caches stay out of the count
        verify_graph(g)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        for g in graphs:
            verify_graph(g)
    finally:
        sys.setprofile(None)
    assert calls / len(graphs) <= 1.1 * CALLS_PER_GRAPH
