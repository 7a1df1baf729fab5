"""CLI surface: subcommands, JSON output, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

import pdrkit
from pdrkit import InternalCheckError, enumerate_connected, generate_named, serialize_graph6
from pdrkit.cli import main

# sha256 of the stdout of `pdrkit verify --enumerate 5 --per-graph`. No
# record holds a real number, so the hash is the same on every platform.
ENUMERATE_5_SHA256 = "b30efa653b463f07505e917f5070424051dddf03fa00a02b9982ba45acc32f52"

# sha256 of the stdout of `pdrkit analyze G`, concatenated over every
# connected graph G with n <= 5 in enumeration order. It pins the per-vertex
# witness and quotient fields, which the verify hash does not cover. Reals
# render with 12 significant digits, so a different BLAS could in principle
# move a last digit.
ANALYZE_5_SHA256 = "de4ccc844c9d0f3b60bd591600f57aa3f7a041a4b464a0ca43a0dfc2df2d9daf"


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


def test_verify_enumerate_5_golden(capsys):
    code, out, _ = run_cli(capsys, "verify", "--enumerate", "5", "--per-graph")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == ENUMERATE_5_SHA256


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


def test_verify_jobs_output_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--enumerate", "4", "--per-graph")
    _, out2, _ = run_cli(capsys, "verify", "--enumerate", "4", "--per-graph", "--jobs", "2")
    assert out1 == out2


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


def test_exit_code_unsupported_size(capsys):
    # 128 vertices exceeds the short graph6 form used in reports.
    code, _, _ = run_cli(capsys, "analyze", "--named", "hypercube:7")
    assert code == 2


def test_analyze_past_short_graph6_does_no_spectral_work(capsys, monkeypatch):
    # n = 63 is past the short graph6 form that the report echoes its input in.
    called = []
    for name in ("decompose", "classify"):
        monkeypatch.setattr(pdrkit.cli, name, lambda *args, _name=name, **kwargs: called.append(_name))
    code, out, err = run_cli(capsys, "analyze", "--named", "cycle:63")
    assert code == 2 and out == "" and "62" in err
    assert called == []


def test_spectrum_past_short_graph6_does_no_spectral_work(capsys, monkeypatch):
    called = []
    for name in ("decompose", "local_spectrum", "build_predistance"):
        monkeypatch.setattr(pdrkit.cli, name, lambda *args, _name=name, **kwargs: called.append(_name))
    code, out, err = run_cli(capsys, "spectrum", "--named", "cycle:63", "--vertex", "0")
    assert code == 2 and out == "" and "62" in err
    assert called == []


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


def test_render_rejects_non_finite():
    from pdrkit.cli import _render_json

    with pytest.raises(ValueError):
        _render_json(float("nan"))
    assert _render_json({"x": [1.5, True, None, "s"]}) == '{"x":[1.5,true,null,"s"]}'


def test_package_exports_no_modules():
    assert not [name for name in pdrkit.__all__ if isinstance(getattr(pdrkit, name), types.ModuleType)]
    assert {"verify_graph", "walk_count", "distance_matrices"} <= set(pdrkit.__all__)
