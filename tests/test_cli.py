"""CLI surface: subcommands, JSON output, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import pdrkit
from pdrkit import InternalCheckError, enumerate_connected, generate_named, serialize_graph6
from pdrkit.cli import main
from test_vertex_pass import DOCTORED_PATH3_ERRORS, doctored_decomposition

# sha256 of the stdout of `pdrkit verify --enumerate 5 --per-graph`. No
# record holds a real number, so the hash is the same on every platform.
ENUMERATE_5_SHA256 = "b30efa653b463f07505e917f5070424051dddf03fa00a02b9982ba45acc32f52"

# sha256 of the stdout of `pdrkit verify --enumerate 6 --per-graph --jobs 2`.
# As at n = 5, no record holds a real number.
ENUMERATE_6_SHA256 = "040860b6533cd3a520b957bf3daaedb36540676ea30c1a73b6177be7cdb38fbc"

# sha256 of the stdout of `pdrkit analyze G`, concatenated over every
# connected graph G with n <= 5 in enumeration order. It pins the per-vertex
# witness and quotient fields, which the verify hash does not cover. Reals
# render with 12 significant digits, so a different BLAS could in principle
# move a last digit.
ANALYZE_5_SHA256 = "de4ccc844c9d0f3b60bd591600f57aa3f7a041a4b464a0ca43a0dfc2df2d9daf"

# sha256 of the stdout of `pdrkit spectrum --named S --vertex v`, concatenated
# over S in SPECTRUM_GRAPHS and v in (0, 1), in that order. It pins the local
# spectrum, the recurrence and the monomial expansion of the polynomials,
# up to local degree 39 (path:40, vertex 0).
SPECTRUM_GRAPHS = ("petersen", "cycle:13", "path:5", "complete_bipartite:2,3", "hypercube:3", "path:40")
SPECTRUM_VERTEX_SHA256 = "41cbc83b66aa682eba5f5e11342a35940e937b02ca4d05992225ac016fdbb232"

# sha256 of the stdout of `pdrkit analyze --named S`, concatenated over S in
# ANALYZE_LARGE_GRAPHS, in that order. It pins what the n <= 5 hash never
# reaches: partition checks over many cells and long lists of reals, up to
# n = 62 and local degree 61.
ANALYZE_LARGE_GRAPHS = (
    "petersen", "complete:30", "complete_bipartite:10,20", "hypercube:5", "cycle:27", "cycle:40", "path:22",
    "path:29", "path:40", "cycle:62", "path:62",
)
ANALYZE_LARGE_SHA256 = "3abbf3f0d78e06c9ef58e3b77766486ad9ca4ce20f8f0e6a9008957163b260f8"

# The public API, in pdrkit.__all__ order: adding or removing a name is a
# deliberate edit of this list.
PUBLIC_API = [
    "Bipartition", "Classification", "ConnectivityError", "DEFAULT_TOL", "Graph", "Graph6Error",
    "GraphCheckResult", "GroupingAmbiguityError", "IllConditionedMeasureError", "InternalCheckError",
    "IntersectionArray", "LocalSpectrum", "NAMED_FAMILIES", "NumericalError", "PartitionWitness", "PdrVertexReport",
    "PredistanceSystem", "QuotientMatrix", "SpectralDecomposition", "ToleranceConfig",
    "VERDICT_DISTANCE_BIREGULAR", "VERDICT_DISTANCE_REGULAR", "VERDICT_NOT_PDR", "Violation", "WALK_BIREGULAR",
    "WALK_NEITHER", "WALK_REGULAR", "adjacency_powers", "bipartition", "build_predistance", "classify",
    "combinatorial_intersection_array", "decompose", "distances_from", "enumerate_connected", "generate_named",
    "is_pdr_around", "local_spectrum", "parse_graph6", "pseudo_regular_check", "serialize_graph6", "verify_graph",
    "verify_graphs", "walk_formula_check", "walk_regularity",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- analyze ---------------------------------------------------------------


def test_analyze_petersen(capsys):
    doc = run_json(capsys, "analyze", "--named", "petersen")
    assert doc["n"] == 10 and doc["edge_count"] == 15
    assert doc["classification"]["verdict"] == "distance_regular"
    (arr,) = doc["classification"]["intersection_arrays"]
    assert arr["b"] == [3, 2] and arr["c"] == [1, 1]
    assert doc["classification"]["walk_regularity"] == "walk_regular"
    assert doc["spectrum"] == [
        {"eigenvalue": 3, "multiplicity": 1},
        {"eigenvalue": 1, "multiplicity": 5},
        {"eigenvalue": -2, "multiplicity": 4},
    ]
    assert all(v["is_pdr"] for v in doc["per_vertex"])
    nums = doc["per_vertex"][0]["intersection_numbers"]
    assert nums == {"c": [0, 1, 1], "a": [0, 0, 2], "b": [3, 2, 0]}
    assert doc["tolerances"]["eps_pdr"] == 1e-7


def test_analyze_k3_from_graph6(capsys):
    doc = run_json(capsys, "analyze", "Bw")
    assert doc["input"] == "Bw"
    assert doc["classification"]["verdict"] == "distance_regular"
    (arr,) = doc["classification"]["intersection_arrays"]
    assert arr["b"] == [2] and arr["c"] == [1]


def test_analyze_p3_biregular(capsys):
    doc = run_json(capsys, "analyze", "Bg")
    assert doc["classification"]["verdict"] == "distance_biregular"
    assert len(doc["classification"]["intersection_arrays"]) == 2


def test_analyze_not_pdr_witness(capsys):
    p4 = serialize_graph6(generate_named("path", 4))
    doc = run_json(capsys, "analyze", p4)
    assert doc["classification"]["verdict"] == "not_pdr"
    assert doc["classification"]["witness"] == 1
    inner = doc["per_vertex"][1]
    assert not inner["is_pdr"]
    assert inner["witness"]["cell"] == 1 and inner["witness"]["target"] == 0


def test_analyze_cycle45_high_local_degree(capsys):
    # Local degree 22: the polynomial and partition characterizations must agree.
    doc = run_json(capsys, "analyze", "--named", "cycle:45")
    assert doc["classification"]["verdict"] == "distance_regular"


def test_analyze_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--named", "complete_bipartite:2,3")
    _, out2, _ = run_cli(capsys, "analyze", "--named", "complete_bipartite:2,3")
    assert out1 == out2


# --- spectrum ----------------------------------------------------------------


def test_spectrum_petersen_vertex(capsys):
    doc = run_json(capsys, "spectrum", "--named", "petersen", "--vertex", "0")
    assert doc["local_spectrum"]["local_mults"] == [0.1, 0.5, 0.4]
    assert doc["local_spectrum"]["local_degree"] == 2
    assert doc["predistance"]["polynomials"][0] == [1]


def test_spectrum_path3_center_clamped_zero(capsys):
    doc = run_json(capsys, "spectrum", "Bg", "--vertex", "1")
    mults = doc["local_spectrum"]["local_mults"]
    assert mults[1] == 0  # exactly zero after clamp
    assert doc["local_spectrum"]["local_degree"] == 1


def test_spectrum_vertex_golden(capsys):
    digest = hashlib.sha256()
    for spec in SPECTRUM_GRAPHS:
        for vertex in ("0", "1"):
            code, out, err = run_cli(capsys, "spectrum", "--named", spec, "--vertex", vertex)
            assert code == 0, err
            digest.update(out.encode("ascii"))
    assert digest.hexdigest() == SPECTRUM_VERTEX_SHA256


def test_spectrum_k3_global_only(capsys):
    doc = run_json(capsys, "spectrum", "Bw")
    assert doc["spectrum"] == [
        {"eigenvalue": 2, "multiplicity": 1},
        {"eigenvalue": -1, "multiplicity": 2},
    ]
    assert "local_spectrum" not in doc


def test_spectrum_c4_zero_eigenvalue_is_clean(capsys):
    doc = run_json(capsys, "spectrum", "--named", "cycle:4")
    assert doc["spectrum"] == [
        {"eigenvalue": 2, "multiplicity": 1},
        {"eigenvalue": 0, "multiplicity": 2},
        {"eigenvalue": -2, "multiplicity": 1},
    ]


# --- verify -------------------------------------------------------------------


def test_verify_enumerate_4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--enumerate", "4")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["total"] == 38
    assert summary["violations"] == 0
    assert summary["distance_regular"] + summary["distance_biregular"] + summary["not_pdr"] == 38
    assert summary["all_pdr"] == summary["distance_regular"] + summary["distance_biregular"]


def test_verify_enumerate_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--enumerate", "1")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary == {
        "total": 1,
        "all_pdr": 1,
        "distance_regular": 1,
        "distance_biregular": 0,
        "not_pdr": 0,
        "violations": 0,
    }


def test_verify_corpus_file(capsys, tmp_path):
    catalog = [
        generate_named("petersen"),
        generate_named("cycle", 4),
        generate_named("cycle", 5),
        generate_named("complete", 4),
        generate_named("complete_bipartite", 3, 3),
    ]
    corpus = tmp_path / "catalog.g6"
    lines = ["# five distance-regular graphs", ""]
    lines += [serialize_graph6(g) for g in catalog]
    corpus.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "verify", str(corpus))
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["total"] == 5
    assert summary["distance_regular"] == 5
    assert summary["violations"] == 0


def test_verify_per_graph_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--enumerate", "2", "--per-graph")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["graph6"] == "A_" and record["verdict"] == "distance_regular"


def test_analyze_small_corpus_golden(capsys):
    digest = hashlib.sha256()
    for n in range(1, 6):
        for g in enumerate_connected(n):
            code, out, err = run_cli(capsys, "analyze", serialize_graph6(g))
            assert code == 0, err
            digest.update(out.encode("ascii"))
    assert digest.hexdigest() == ANALYZE_5_SHA256


def test_analyze_large_graphs_golden(capsys):
    digest = hashlib.sha256()
    for spec in ANALYZE_LARGE_GRAPHS:
        code, out, err = run_cli(capsys, "analyze", "--named", spec)
        assert code == 0, (spec, err)
        digest.update(out.encode("ascii"))
    assert digest.hexdigest() == ANALYZE_LARGE_SHA256


def test_verify_enumerate_5_golden(capsys):
    code, out, _ = run_cli(capsys, "verify", "--enumerate", "5", "--per-graph")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == ENUMERATE_5_SHA256


def test_verify_enumerate_6_golden(capsys):
    code, out, _ = run_cli(capsys, "verify", "--enumerate", "6", "--per-graph", "--jobs", "2")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == ENUMERATE_6_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_corpus_survives_disconnected_graph(capsys, tmp_path, jobs):
    corpus = tmp_path / "mixed.g6"
    corpus.write_text("Bw\nCQ\nBw\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "verify", str(corpus), "--jobs", jobs)
    assert code == 1
    *records, summary = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["graph6"], r["verdict"], r["all_pdr"]) for r in records] == [("CQ", None, False)]
    assert records[0]["violations"] == ["connectivity: graph is disconnected: vertex 1 is unreachable from 0"]
    assert summary == {
        "total": 3,
        "all_pdr": 2,
        "distance_regular": 2,
        "distance_biregular": 0,
        "not_pdr": 0,
        "violations": 1,
    }


# K4 + P9, K5 + P7 and K6 + P6: cliques with a path hanging off one vertex,
# whose path end has a spectral-radius weight alpha_u^2 / n below eps_mult.
LOLLIPOPS = ("L~CGGC@?G?_@?@", "K~{GGC@?G?_@", "K~~wGC@?G?_@")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_corpus_keeps_the_spectral_radius_in_every_local_measure(capsys, tmp_path, jobs):
    corpus = tmp_path / "lollipops.g6"
    corpus.write_text("\n".join(["Bw", *LOLLIPOPS, "C~"]) + "\n", encoding="ascii")
    code, out, err = run_cli(capsys, "verify", str(corpus), "--jobs", jobs, "--per-graph")
    assert (code, err) == (0, "")
    *records, summary = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["graph6"], r["verdict"], r["violations"]) for r in records] == [
        ("Bw", "distance_regular", []),
        *((s, "not_pdr", []) for s in LOLLIPOPS),
        ("C~", "distance_regular", []),
    ]
    assert summary["total"] == 5 and summary["violations"] == 0


def count_graphs(monkeypatch) -> list[int]:
    """A list that gets the order of each Graph constructed from now on."""
    built: list[int] = []
    init = pdrkit.Graph.__post_init__

    def counting(g):
        built.append(g.n)
        init(g)

    monkeypatch.setattr(pdrkit.Graph, "__post_init__", counting)
    return built


def test_verify_batch_builds_a_graph_only_for_a_graph_that_reaches_classify(monkeypatch):
    from itertools import islice

    from pdrkit.cli import _verify_batch
    from pdrkit.pdr import _stack_size

    strings = [serialize_graph6(g) for g in islice(enumerate_connected(6), _stack_size(6))]
    built = count_graphs(monkeypatch)
    records = _verify_batch((6, strings, pdrkit.DEFAULT_TOL))
    assert len(records) == 303
    classified = sum(r["all_pdr"] for r in records)
    assert 0 < classified < len(records) and len(built) == classified


def test_verify_corpus_builds_no_graph_per_line(capsys, monkeypatch, tmp_path):
    corpus = tmp_path / "mixed.g6"
    lines = ["Bw", "C~", "CQ", *LOLLIPOPS, serialize_graph6(generate_named("petersen")), "Bw", "Ch"]
    corpus.write_text("\n".join(lines) + "\n", encoding="ascii")
    names = [serialize_graph6(pdrkit.parse_graph6(s)) for s in lines]
    built = count_graphs(monkeypatch)
    code, out, err = run_cli(capsys, "verify", str(corpus), "--per-graph")
    assert (code, err) == (1, "")  # CQ is disconnected
    *records, summary = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["graph6"] for r in records] == names
    assert summary["all_pdr"] == 4  # Bw twice, C~ and the Petersen graph
    assert sorted(built) == [3, 3, 4, 10]


def test_analyze_lollipop_is_not_pdr(capsys):
    doc = run_json(capsys, "analyze", LOLLIPOPS[1])
    assert doc["classification"]["verdict"] == "not_pdr" and doc["classification"]["witness"] == 0
    assert all(v["local_mults"][0] > 0 for v in doc["per_vertex"])


def test_verify_corpus_comments_may_hold_any_bytes(capsys, tmp_path):
    corpus = tmp_path / "commented.g6"
    corpus.write_bytes("# café\nBw\n".encode("utf-8"))
    code, out, _ = run_cli(capsys, "verify", str(corpus))
    assert code == 0 and json.loads(out)["total"] == 1


def test_verify_corpus_names_a_non_ascii_graph_line(capsys, tmp_path):
    corpus = tmp_path / "accented.g6"
    corpus.write_bytes("Bw\nC~é\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "verify", str(corpus))
    assert (code, out) == (2, "")
    assert err == f"{corpus}:2: non-ASCII character (byte offset 2)\n"


def test_verify_jobs_output_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--enumerate", "4", "--per-graph")
    _, out2, _ = run_cli(capsys, "verify", "--enumerate", "4", "--per-graph", "--jobs", "2")
    assert out1 == out2


def test_verify_corpus_mixes_short_and_long_lines(capsys, tmp_path):
    # Runs of one order alternate between graph6's short and '~' forms.
    long = [serialize_graph6(generate_named(*spec)) for spec in [("cycle", 63), ("hypercube", 6)]]
    lines = ["Bw", long[0], long[0], "C~", long[1], "Bw"]
    corpus = tmp_path / "mixed.g6"
    corpus.write_text("\n".join(lines) + "\n", encoding="ascii")
    runs = [run_cli(capsys, "verify", str(corpus), "--per-graph", "--jobs", jobs) for jobs in ("1", "2")]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, err) == (0, "")
    *records, summary = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["graph6"], r["verdict"], r["violations"]) for r in records] == [
        (s, "distance_regular", []) for s in lines
    ]
    assert summary["total"] == 6 and summary["distance_regular"] == 6


# --- exit codes ----------------------------------------------------------------


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "B")
    assert code == 2 and "offset" in err


def test_exit_code_connectivity(capsys):
    code, _, err = run_cli(capsys, "analyze", "A?")  # two isolated vertices
    assert code == 3 and "disconnected" in err


def test_exit_code_numerical(capsys):
    code, _, err = run_cli(capsys, "analyze", "--named", "petersen", "--eps-group", "1.0")
    assert code == 4
    assert "grouping" in err.lower() or "factor 10" in err


def test_exit_code_internal_check(capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise InternalCheckError("characterizations disagree at vertex 0")

    monkeypatch.setattr(pdrkit.cli, "classify", disagree)
    code, out, err = run_cli(capsys, "analyze", "--named", "petersen")
    assert code == 5 and out == ""
    assert err == "internal check error: characterizations disagree at vertex 0\n"


@pytest.mark.parametrize(
    "doctored, want_code, kind",
    zip(DOCTORED_PATH3_ERRORS, (4, 5), ("numerical error", "internal check error")),
    ids=["rank_loss", "disagreement"],
)
def test_analyze_exits_with_the_vertex_pass_error(capsys, monkeypatch, doctored, want_code, kind):
    eigenvalues, mults, _, message = doctored
    dec = doctored_decomposition(generate_named("path", 3), eigenvalues, mults)
    monkeypatch.setattr(pdrkit.cli, "decompose", lambda g, tol: dec)
    code, out, err = run_cli(capsys, "analyze", "--named", "path:3")
    assert (code, out, err) == (want_code, "", f"{kind}: {message}\n")


def test_exit_code_bad_vertex(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "Bw", "--vertex", "7")
    assert code == 2


def test_exit_code_missing_corpus(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/corpus.g6")
    assert code == 2 and "corpus" in err


def test_exit_code_corpus_parse_error(capsys, tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("Bw\nB\n", encoding="ascii")
    code, _, err = run_cli(capsys, "verify", str(corpus))
    assert code == 2 and ":2:" in err


def test_exit_code_bad_named(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--named", "moebius")
    assert code == 2


@pytest.mark.parametrize("spec", ["path:x", "cycle:5,", "complete_bipartite:2,3.5"])
def test_non_integer_named_parameter_names_the_spec(capsys, spec):
    code, out, err = run_cli(capsys, "analyze", "--named", spec)
    assert (code, out) == (2, "")
    assert err == f"input error: named spec '{spec}': parameters must be integers\n"


@pytest.mark.parametrize("spec", ["hypercube:7", "cycle:63"])
def test_analyze_past_short_graph6(capsys, spec):
    # Past n = 62 the report echoes its input in graph6's '~' long form,
    # and that string reads back to the same report.
    family, params = spec.split(":")
    g = generate_named(family, int(params))
    code, out, err = run_cli(capsys, "analyze", "--named", spec)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["input"] == serialize_graph6(g) and doc["input"].startswith("~")
    assert doc["n"] == g.n and doc["classification"]["verdict"] == "distance_regular"
    assert run_cli(capsys, "analyze", doc["input"]) == (0, out, "")


def test_spectrum_past_short_graph6(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--named", "cycle:63", "--vertex", "0")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["input"] == serialize_graph6(generate_named("cycle", 63)) and doc["local_spectrum"]["eccentricity"] == 31


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "argv, workers",
    [
        (["--enumerate", "3", "--jobs", "64"], [4]),  # 4 graphs: 4 workers, not 64
        (["--enumerate", "3", "--jobs", "2"], [2]),
        (["--enumerate", "2", "--jobs", "8"], []),  # one graph: in-process
    ],
)
def test_verify_never_starts_more_workers_than_graphs(capsys, monkeypatch, argv, workers):
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(pdrkit.cli, "ProcessPoolExecutor", RecordingExecutor)
    code, out, _ = run_cli(capsys, "verify", *argv, "--per-graph")
    assert RecordingExecutor.sizes == workers
    monkeypatch.setattr(pdrkit.cli, "ProcessPoolExecutor", None)  # in-process from here
    assert (code, out) == run_cli(capsys, "verify", *argv[:2], "--per-graph")[:2]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("n", ["0", "8"])
def test_verify_enumerate_out_of_range_exits_2_before_any_worker(capsys, monkeypatch, n, jobs):
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(pdrkit.cli, "ProcessPoolExecutor", RecordingExecutor)
    code, out, err = run_cli(capsys, "verify", "--enumerate", n, "--jobs", jobs)
    assert (code, out) == (2, "") and "1 <= n <= 7" in err
    assert RecordingExecutor.sizes == []


def test_connected_count_sizes_the_enumeration_without_listing_it():
    from pdrkit.cli import _connected_count

    assert [_connected_count(n) for n in range(1, 8)] == [1, 1, 4, 38, 728, 26704, 1866256]  # OEIS A001187
    assert all(_connected_count(n) == sum(1 for _ in enumerate_connected(n)) for n in range(1, 6))


def test_verify_empty_corpus_with_jobs(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(pdrkit.cli, "ProcessPoolExecutor", None)  # must not be used
    corpus = tmp_path / "empty.g6"
    corpus.write_text("# nothing\n\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "verify", str(corpus), "--jobs", "4")
    assert code == 0
    assert json.loads(out) == {
        "total": 0,
        "all_pdr": 0,
        "distance_regular": 0,
        "distance_biregular": 0,
        "not_pdr": 0,
        "violations": 0,
    }


def test_verify_violations_exit_1(capsys):
    # An absurdly tight walk tolerance turns eigensolver rounding into
    # violations; each offending graph6 string must be printed and the
    # summary must count them.
    code, out, _ = run_cli(capsys, "verify", "--enumerate", "3", "--eps-walk", "1e-30")
    assert code == 1
    lines = [json.loads(s) for s in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["violations"] > 0
    offenders = {rec["graph6"] for rec in lines[:-1]}
    assert offenders and all(rec["violations"] for rec in lines[:-1])


def test_input_mutual_exclusion(capsys):
    code, _, _ = run_cli(capsys, "analyze")
    assert code == 2
    code, _, _ = run_cli(capsys, "analyze", "Bw", "--named", "petersen")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify")
    assert code == 2


# --- environment fallback --------------------------------------------------------


def test_env_tolerance_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PDRKIT_EPS_PDR", "2e-7")
    doc = run_json(capsys, "analyze", "Bw")
    assert doc["tolerances"]["eps_pdr"] == 2e-7
    # Flags win over the environment.
    doc = run_json(capsys, "analyze", "Bw", "--eps-pdr", "3e-7")
    assert doc["tolerances"]["eps_pdr"] == 3e-7


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("name", ["eps_group", "eps_mult", "eps_pdr", "eps_walk"])
@pytest.mark.parametrize("value", ["0", "-1", "-0.0", "nan", "inf", "-inf"])
def test_bad_tolerance_is_an_input_error(capsys, monkeypatch, source, name, value):
    # Only a finite tolerance > 0 is accepted, from a flag or the environment;
    # anything else exits 2 before any output, naming where it came from.
    flag, var = "--" + name.replace("_", "-"), "PDRKIT_" + name.upper()
    argv = ["analyze", "Bw"]
    if source == "flag":
        argv.append(f"{flag}={value}")
    else:
        monkeypatch.setenv(var, value)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {flag if source == 'flag' else var} must be a finite number > 0")


def test_bad_tolerance_stops_every_subcommand(capsys, monkeypatch, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nC~\n")
    for argv in (
        ["verify", str(corpus), "--eps-walk", "nan"],
        ["verify", "--enumerate", "3", "--eps-pdr", "-1"],
        ["analyze", "--named", "petersen", "--eps-pdr", "0"],
        ["spectrum", "--named", "petersen", "--vertex", "0", "--eps-mult", "nan"],
    ):
        assert run_cli(capsys, *argv)[:2] == (2, ""), argv
    # A value that is not a number reaches only the environment: argparse refuses it as a flag.
    monkeypatch.setenv("PDRKIT_EPS_GROUP", "tiny")
    code, out, err = run_cli(capsys, "verify", str(corpus))
    assert (code, out) == (2, "")
    assert err == "input error: PDRKIT_EPS_GROUP must be a finite number > 0, got tiny\n"


@pytest.mark.parametrize("source", ["enumerate", "corpus"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_bad_jobs_is_an_input_error(capsys, monkeypatch, tmp_path, source, jobs):
    # A worker count below 1 exits 2 before any output, as a bad tolerance does.
    monkeypatch.setattr(pdrkit.cli, "ProcessPoolExecutor", None)  # must not be used
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nC~\n")
    argv = ["--enumerate", "3"] if source == "enumerate" else [str(corpus)]
    code, out, err = run_cli(capsys, "verify", *argv, "--per-graph", f"--jobs={jobs}")
    assert (code, out) == (2, "")
    assert err == f"input error: --jobs must be at least 1, got {jobs}\n"


# --- module entry point -----------------------------------------------------------


def test_python_dash_m_entry():
    # The child imports the same pdrkit as this process, installed or not.
    src = os.path.dirname(os.path.dirname(pdrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pdrkit", "analyze", "--named", "cycle:4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["classification"]["verdict"] == "distance_regular"


def test_main_calls_in_one_process_match_separate_processes(capsys):
    # main keeps one parser per process: a flag given to one call must not
    # reach the next, whichever subcommand the next one runs.
    argvs = [
        ["analyze", "--named", "petersen", "--eps-pdr", "3e-7"],
        ["spectrum", "--named", "path:3", "--vertex", "1", "--eps-mult", "1e-6"],
        ["analyze", "--named", "petersen"],
        ["verify", "--enumerate", "4", "--per-graph", "--eps-walk=1e-30"],
        ["verify", "--enumerate", "4", "--per-graph"],
        ["analyze", "Bw", "--named", "petersen"],
        ["spectrum", "--named", "path:3"],
    ]
    in_process = [run_cli(capsys, *argv)[:2] for argv in argvs]
    src = os.path.dirname(os.path.dirname(pdrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    separate = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "pdrkit", *argv], capture_output=True, text=True, env=env)
        separate.append((proc.returncode, proc.stdout))
    assert in_process == separate
    assert [code for code, _ in in_process] == [0, 0, 0, 1, 0, 2, 0]
    assert in_process[0][1] != in_process[2][1] and in_process[3][1] != in_process[4][1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_exits_quietly_when_stdout_closes(jobs):
    # The reader takes one line and goes away, as `| head -1` does; n = 6
    # prints far more than a pipe buffers, so the next flush meets the closed pipe.
    src = os.path.dirname(os.path.dirname(pdrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "pdrkit", "verify", "--enumerate", "6", "--per-graph", "--jobs", jobs]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    # The first graph is the star K_{1,5}.
    assert first == {"graph6": "Esa?", "verdict": "distance_biregular", "all_pdr": True, "violations": []}
    assert proc.returncode == pdrkit.cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv", [["analyze", "--named", "petersen"], ["spectrum", "--named", "petersen", "--vertex", "0"]]
)
def test_single_graph_subcommands_exit_quietly_when_stdout_is_closed(argv):
    # The read end is closed before the child starts, so its first write
    # meets a pipe without a reader, however little it prints.
    src = os.path.dirname(os.path.dirname(pdrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pdrkit", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write_end)
    assert proc.returncode == pdrkit.cli.EXIT_BROKEN_PIPE
    assert proc.stderr == b""


def test_traced_cli_matches_the_plain_cli_and_leaves_worker_spans(tmp_path):
    # The benchmark runs verify under its outside-in tracer, which sees only
    # public pdrkit functions, and needs every run to leave worker spans; on
    # the n = 5 corpus the workers' spans come from classify and the walk
    # formulas on the all-PDR graphs. The tracer must not change the output.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(pdrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["verify", "--enumerate", "5", "--jobs", "2", "--per-graph"]
    script = os.path.join(root, "perfbench", "traced_cli.py")
    plain = subprocess.run([sys.executable, "-m", "pdrkit", *argv], capture_output=True, env=env, timeout=120)
    traced = subprocess.run([sys.executable, script, str(tmp_path), *argv], capture_output=True, env=env, timeout=120)
    assert (traced.returncode, plain.returncode) == (0, 0), traced.stderr
    assert traced.stdout == plain.stdout
    workers = list(tmp_path.glob("worker-*.jsonl"))
    names = {json.loads(line)[0] for path in workers for line in path.read_text().splitlines()}
    assert "pdr.classify" in names


def test_render_rejects_non_finite():
    from pdrkit.cli import _render_json

    with pytest.raises(ValueError):
        _render_json(float("nan"))
    assert _render_json({"x": [1.5, True, None, "s"]}) == '{"x":[1.5,true,null,"s"]}'


def test_render_contract():
    # Bytes and exceptions of the renderer, whichever path a value takes:
    # exact Python types, all-float lists in one join, and the general path
    # for numpy scalars, mixed lists and errors.
    from pdrkit.cli import _render_json

    cases = {
        "0": -0.0,
        "[0,1.5,0,0]": [-0.0, 1.5, 0.0, -0.0],
        "[0]": [-0.0],
        "0.1": np.float64(0.1),
        "[0,2.5]": [np.float64(-0.0), 2.5],
        "7": np.int64(7),
        "[7,0.333333333333]": [np.int64(7), 1 / 3],
        "[1.5,true,2,false]": [1.5, True, 2, False],
        "[true,1]": [True, 1],
        "[1,false]": [1.0, False],
        "[1.5,2.5]": (1.5, 2.5),
        '[1,"a",null,[]]': (1, "a", None, ()),
        "[1,2.5,3]": [1, 2.5, 3],
        "[1000000000000000,1e+15]": [10**15, 1e15],
        "[0.333333333333,-2.5e-07,1.23456789012e+20]": [1 / 3, -2.5e-7, 123456789012345678901.0],
        '{"a":[1,2],"b\\u00e9":{"c":-2.5}}': {"a": [1, 2], "b\u00e9": {"c": -2.5}},
    }
    assert {text: _render_json(obj) for text, obj in cases.items()} == {text: text for text in cases}
    for bad in ([1.0, float("inf")], [float("nan")], [-float("inf"), 2.0], (0.5, float("nan")), float("-inf")):
        with pytest.raises(ValueError, match="non-finite value in report"):
            _render_json(bad)
    for bad in ({1: 2.0}, {"a": {(1, 2): "b"}}, {None: [1.5]}):
        with pytest.raises(TypeError, match="JSON keys must be strings"):
            _render_json(bad)
    for bad in (np.bool_(True), [np.bool_(False)], [1.5, np.bool_(True)], {"x": np.bool_(False)}):
        with pytest.raises(TypeError, match="cannot render"):
            _render_json(bad)


def test_package_exports_no_modules():
    assert not [name for name in pdrkit.__all__ if isinstance(getattr(pdrkit, name), types.ModuleType)]
    assert pdrkit.__all__ == PUBLIC_API
