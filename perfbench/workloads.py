"""The benchmark workloads.

Each workload builds its inputs from the seed (``build``), names a small
piece of the same work for a fresh interpreter to do (``probe_argv``), and
then runs rounds until the run length is used. A round is one pass over
every input, so every round has the same mix, and a round that starts runs
to its end. Rounds repeat the same inputs, except that ``named_large``
relabels its graphs in each round. The untraced run reports the end-to-end
metrics. The traced run alternates untraced and traced rounds, checks that
both give the same outputs, and reports the per-layer metrics.

Every operation is checked against the oracle in ``corpus``. A failure is
an exception, a non-zero exit, an invariant violation, or an output the
oracle rejects. It is counted and tagged, and never ends the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import time
from pathlib import Path

import corpus
from tracer import Profile, Tracer, read_spans

# 636 graphs hold 2 distance-regular and 1 distance-biregular graph: every
# seed takes the all-PDR branch on both kinds. The sample is small so that a
# run repeats each graph many times (see ``InProcess.measure``).
SAMPLE_SIZE = 636
WARM_UP_S = 1.0
CLI_JOBS = 2
# cli_jobs2 verifies every connected graph on 5 vertices (728): the whole
# --enumerate path at a size whose sweep takes a few seconds, where n = 6
# takes over a minute.
CLI_ENUMERATE_N = 5
GRAPH6_MAX_N = 62
# named_large relabels every graph anew in each round, cycling through this
# many relabellings drawn from the seed: a graph's time depends on its
# labelling by up to 40 % (cycle:30, path:29), so a run times each graph under
# several labellings rather than the one a seed happens to draw.
LABELLINGS = 16

# From n = 8 up to the largest graph the catalog builds (n = 64). It holds
# many-edge all-PDR graphs, high-local-degree cycles and paths, and graphs
# past each measured breakdown: verify fails on cycle:40, path:22 and
# hypercube:6, path:29 fails the equivalence check and path:40 loses rank.
# Graphs near the onset (cycle:38, path:19, path:20) are left out: whether
# they fail depends on the vertex labelling, so on the seed.
CATALOG = (
    "petersen",
    "complete:8",
    "complete:16",
    "complete:30",
    "complete_bipartite:4,4",
    "complete_bipartite:3,7",
    "complete_bipartite:10,20",
    "hypercube:3",
    "hypercube:4",
    "hypercube:5",
    "hypercube:6",
    "cycle:8",
    "cycle:13",
    "cycle:20",
    "cycle:27",
    "cycle:30",
    "cycle:40",
    "path:8",
    "path:13",
    "path:16",
    "path:22",
    "path:29",
    "path:40",
)


class SetupError(RuntimeError):
    pass


class Outcome:
    """One operation: its input key, time, failure tags and comparable output."""

    __slots__ = ("key", "seconds", "tags", "output")

    def __init__(self, key, seconds, tags, output):
        self.key = key
        self.seconds = seconds
        self.tags = tags
        self.output = output


class RunLog:
    """Counts of measured operations, and each failing input with its tags."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.silent_wrong = 0  # wrong outputs the program did not flag itself
        self.trace_mismatches = 0  # rounds whose traced outputs differ from untraced ones
        self.failures: dict[str, dict] = {}

    def record(self, out: Outcome, silent_wrong: bool) -> None:
        self.attempted += 1
        if out.tags:
            self.failed += 1
            entry = self.failures.setdefault(out.key, {"tags": [], "count": 0})
            entry["tags"] = sorted(set(entry["tags"]) | set(out.tags))
            entry["count"] += 1
        self.silent_wrong += silent_wrong


def _ranked(values: list[float | None]) -> list[float | None]:
    """Successes by time, then failures (None), which rank slower than any success."""
    return sorted(values, key=lambda v: (v is None, v or 0.0))


def median_ranked(values: list[float | None]) -> float:
    ranked = _ranked(values)
    pick = ranked[(len(ranked) - 1) // 2], ranked[len(ranked) // 2]
    if None in pick:
        raise RuntimeError("half or more of the operations failed; the median is undefined")
    return (pick[0] + pick[1]) / 2


def quantile_ranked(values: list[float | None], q: float) -> float | None:
    """Nearest-rank quantile; None when it lands on a failure."""
    ranked = _ranked(values)
    return ranked[min(len(ranked), max(1, round(q * len(ranked)))) - 1]


# (metric, span field, span names); values are per graph.
LAYERS = (
    ("graph_core.bfs.calls_per_graph", "calls", ("graph_core.bfs",)),
    ("graph_core.bfs.self_us_per_graph", "self", ("graph_core.bfs",)),
    ("graph_core.codec.self_us_per_graph", "self",
     ("graph_core.parse_graph6", "graph_core.serialize_graph6")),
    ("graph_core.bipartition.calls_per_graph", "calls", ("graph_core.bipartition",)),
    ("spectral.decompose.self_us_per_graph", "self", ("spectral.decompose",)),
    ("spectral.local_spectrum.calls_per_graph", "calls", ("spectral.local_spectrum",)),
    ("spectral.adjacency_powers.self_us_per_graph", "self", ("spectral.adjacency_powers",)),
    ("predistance.build_predistance.self_us_per_graph", "self", ("predistance.build_predistance",)),
    ("predistance.apply_poly_column.matvecs_per_graph", "units", ("predistance.apply_poly_column",)),
    ("predistance.apply_poly_column.self_us_per_graph", "self", ("predistance.apply_poly_column",)),
    ("pdr.verify_graph.self_us_per_graph", "self", ("pdr.verify_graph",)),
    ("pdr.pseudo_regular_check.calls_per_graph", "calls", ("pdr.pseudo_regular_check",)),
    ("pdr.pseudo_regular_check.self_us_per_graph", "self", ("pdr.pseudo_regular_check",)),
    ("pdr.is_pdr_around.self_us_per_graph", "self", ("pdr.is_pdr_around",)),
    ("pdr.classify.self_us_per_graph", "self", ("pdr.classify",)),
    ("pdr.combinatorial_intersection_array.calls_per_graph", "calls",
     ("pdr.combinatorial_intersection_array",)),
    ("pdr.walk_formula_check.calls_per_graph", "calls", ("pdr.walk_formula_check",)),
    ("pdr.walk_formula_check.self_us_per_graph", "self", ("pdr.walk_formula_check",)),
    ("pdr.perron_transform_consistency.self_us_per_graph", "self",
     ("pdr.perron_transform_consistency",)),
)
# The enumeration share and the cli.* and trace.* per-layer metrics are
# derived in TraceTotals.metrics.


class TraceTotals:
    """What the traced rounds of one run add up to."""

    def __init__(self):
        self.profile = Profile()
        self.graphs = 0
        self.op_seconds = 0.0
        self.render = 0.0
        self.plain: list[float] = []
        self.traced: list[float] = []
        self.busy: list[float] = []

    def add_spans(self, spans: list[tuple]) -> None:
        self.profile.add(spans)
        self.render += main_minus_report(spans)

    def details(self) -> dict:
        p, g = self.profile, self.graphs
        return {
            "graphs_traced": g,
            "untraced_round_s": self.plain,
            "traced_round_s": self.traced,
            "per_span_per_graph": {
                name: {"calls": p.calls[name] / g, "total_us": 1e6 * p.total[name] / g,
                       "self_us": 1e6 * p.self_time[name] / g}
                for name in sorted(p.calls)
            },
        }

    def metrics(self) -> dict:
        p, g = self.profile, self.graphs
        out = {}
        for metric, field, names in LAYERS:
            if field == "calls":
                out[metric] = sum(p.calls[n] for n in names) / g
            elif field == "units":
                out[metric] = sum(p.units[n] for n in names) / g
            else:
                out[metric] = 1e6 * sum(p.self_time[n] for n in names) / g
        out["graph_core.enumerate_connected.share"] = p.total["graph_core.enumerate_connected"] / self.op_seconds
        out["cli.analysis_report.self_share"] = p.self_time["cli.analysis_report"] / self.op_seconds
        out["cli.render_share"] = self.render / self.op_seconds
        out["cli.core_utilization"] = statistics.median(self.busy)
        out["trace.overhead_ratio"] = statistics.median(self.traced) / statistics.median(self.plain)
        return out


def main_minus_report(spans: list[tuple]) -> float:
    """Time in ``cli.main`` calls that built an analysis report, minus the report."""
    report: dict[int, float] = {}
    for name, start, end, parent, _graph, _work in spans:
        if name == "cli.analysis_report" and parent >= 0 and spans[parent][0] == "cli.main":
            report[parent] = report.get(parent, 0.0) + end - start
    return sum(spans[i][2] - spans[i][1] - t for i, t in report.items())


# ---------------------------------------------------------------------------


class InProcess:
    """A workload that runs one operation per input inside the benchmark process."""

    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.pk = ctx.pdrkit
        self.log = RunLog()
        self.inputs: list = []
        self.extra: dict = {}

    def op(self, item) -> Outcome:
        raise NotImplementedError

    def check(self, item, out: Outcome) -> bool:
        """Add oracle tags to ``out``; True when an output is wrong and unflagged."""
        raise NotImplementedError

    def warm_up(self) -> None:
        end = time.perf_counter() + WARM_UP_S
        for item in self.inputs:
            self.op(item)
            if time.perf_counter() > end:
                break

    def inputs_for(self, k: int) -> list:
        """The inputs of round k; the same ones in every round unless overridden."""
        return self.inputs

    def round(self, k: int, tracer: Tracer | None = None) -> tuple[float, list[Outcome]]:
        outs = []
        t0 = time.perf_counter()
        for idx, item in enumerate(self.inputs_for(k)):
            if tracer is not None:
                tracer.graph = idx
            out = self.op(item)
            self.log.record(out, self.check(item, out))
            outs.append(out)
        return time.perf_counter() - t0, outs

    def measure(self) -> dict:
        """End-to-end metrics from untraced rounds.

        Rounds spread over the whole run, because other tenants of a shared
        host slow it by up to 1.7x for seconds to minutes at a stretch.
        Throughput takes each input's median time over the rounds; latency
        percentiles are over every operation of the run.
        """
        times = [[] for _ in self.inputs]
        ok = [True] * len(self.inputs)
        samples: list[float | None] = []
        round_s = []
        for k in self.ctx.rounds():
            _, outs = self.round(k)
            round_s.append(sum(o.seconds for o in outs))
            for i, out in enumerate(outs):
                times[i].append(out.seconds)
                ok[i] = ok[i] and not out.tags
                samples.append(None if out.tags else out.seconds)
        p99 = quantile_ranked(samples, 0.99)
        self.extra = {
            "inputs": len(self.inputs),
            "rounds": len(round_s),
            "round_s": round_s,
            "operations": len(samples),
            "graph_p99_ms": None if p99 is None else 1000 * p99,
            "graph_p99_samples_beyond": len(samples) - round(0.99 * len(samples)),
        }
        return {
            "graphs_per_s": sum(ok) / sum(statistics.median(t) for t in times),
            "graph_p50_ms": 1000 * median_ranked(samples),
            "success_ratio": 1 - self.log.failed / self.log.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def measure_traced(self) -> dict:
        """Per-layer metrics from traced rounds, each paired with an untraced one.

        Every round takes the inputs of round 0, so that the count metrics
        repeat exactly for a seed however many rounds fit the run.
        """
        totals = TraceTotals()
        tracer = Tracer()
        for k in self.ctx.rounds(minimum=1):
            # Alternate which round goes first, so drift in host speed cancels.
            for traced_turn in (k % 2 == 1, k % 2 == 0):
                if traced_turn:
                    tracer.install()
                    try:
                        t_traced, outs_traced = self.round(0, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    cpu0 = time.process_time()
                    t_plain, outs_plain = self.round(0)
                    totals.busy.append((time.process_time() - cpu0) / t_plain)
            if [o.output for o in outs_plain] != [o.output for o in outs_traced]:
                self.log.trace_mismatches += 1
            totals.plain.append(t_plain)
            totals.traced.append(t_traced)
            totals.add_spans(tracer.spans)
            totals.op_seconds += sum(o.seconds for o in outs_traced)
            totals.graphs += len(outs_traced)
            self.ctx.keep_spans(tracer)
        self.extra = totals.details()
        return totals.metrics()


class Sweep6(InProcess):
    """A seeded sample of the n = 6 corpus: parse_graph6, then verify_graph."""

    name = "sweep6"

    def build(self) -> None:
        run = self.ctx.spawn([str(Path(corpus.__file__)), "sample", "6", str(SAMPLE_SIZE), str(self.ctx.seed)])
        if run["code"] != 0:
            raise SetupError(f"corpus.py exited with {run['code']}: {run['stderr'][-500:]!r}")
        self.inputs = [tuple(item) for item in json.loads(run["stdout"])]

    def probe_argv(self) -> list[str]:
        return ["-c", "import pdrkit; pdrkit.verify_graph(pdrkit.parse_graph6('Bw'))"]

    def op(self, item) -> Outcome:
        g6, _ = item
        t0 = time.perf_counter()
        try:
            res = self.pk.verify_graph(self.pk.parse_graph6(g6))
        except Exception as exc:  # one bad graph never ends the run
            return Outcome(g6, time.perf_counter() - t0, [f"exception:{type(exc).__name__}"], repr(exc))
        seconds = time.perf_counter() - t0
        violations = tuple((v.check, v.detail) for v in res.violations)
        tags = sorted({f"violation:{check}" for check, _ in violations})
        return Outcome(g6, seconds, tags, (res.graph6, res.verdict, res.all_pdr, violations))

    def check(self, item, out) -> bool:
        g6, expected = item
        if not isinstance(out.output, tuple):
            return False
        got_g6, verdict, _, violations = out.output
        if got_g6 == g6 and verdict == expected:
            return False
        out.tags.append(f"oracle:{expected}->{verdict}")
        return not violations


class NamedLarge(InProcess):
    """The named catalog: ``pdrkit analyze`` in-process, then verify_graph."""

    name = "named_large"

    def build(self) -> None:
        rng = random.Random(self.ctx.seed)
        self.labellings = [[self.relabelled(spec, rng) for spec in CATALOG] for _ in range(LABELLINGS)]
        self.inputs = self.labellings[0]

    def inputs_for(self, k: int) -> list:
        return self.labellings[k % LABELLINGS]

    @staticmethod
    def relabelled(spec: str, rng: random.Random) -> dict:
        nbrs = corpus.named_graph(spec)
        n = len(nbrs)
        verdict, arrays, parts = corpus.closed_form(spec)
        perm = list(range(n))
        rng.shuffle(perm)
        g = corpus.relabel(nbrs, perm)
        if n <= GRAPH6_MAX_N:
            argv = ["analyze", corpus.graph6(g)]
            if parts is not None and perm.index(0) >= parts[0]:
                arrays = arrays[::-1]  # the new vertex 0 lies in the second catalog part
        else:
            argv = ["analyze", "--named", spec]  # past graph6: the catalog labelling
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g[u] >> v & 1]
        return {"spec": spec, "n": n, "edges": edges, "argv": argv, "verdict": verdict, "arrays": arrays}

    def probe_argv(self) -> list[str]:
        return ["-m", "pdrkit", "analyze", "--named", "petersen"]

    def op(self, item) -> Outcome:
        pk = self.pk
        tags = []
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = pk.cli.main(item["argv"])
        except Exception as exc:
            code = None
            tags.append(f"analyze:exception:{type(exc).__name__}")
        if code:
            tags.append(f"analyze:exit:{code}")
        try:
            if item["n"] <= GRAPH6_MAX_N:
                g = pk.parse_graph6(item["argv"][1])
            else:
                g = pk.Graph.from_edges(item["n"], item["edges"])
            res = pk.verify_graph(g)
        except Exception as exc:
            res = None
            tags.append(f"verify:exception:{type(exc).__name__}")
        seconds = time.perf_counter() - t0
        verified = None
        if res is not None:
            verified = (res.verdict, tuple((v.check, v.detail) for v in res.violations))
            tags += sorted({f"verify:violation:{check}" for check, _ in verified[1]})
        return Outcome(item["spec"], seconds, tags, (code, stdout.getvalue(), verified))

    def check(self, item, out) -> bool:
        code, text, verified = out.output
        wrong = False
        if code == 0:
            want = (item["n"], len(item["edges"]), item["verdict"], item["arrays"])
            try:
                doc = json.loads(text)
                cls = doc["classification"]
                arrays = cls["intersection_arrays"]
                if arrays is not None:
                    arrays = tuple((tuple(a["b"]), tuple(a["c"]), tuple(a["a"])) for a in arrays)
                got = (doc["n"], doc["edge_count"], cls["verdict"], arrays)
            except (ValueError, KeyError, TypeError):
                got = None
            if got != want:
                out.tags.append("analyze:oracle")
                wrong = True
        if verified is not None and verified[0] != item["verdict"]:
            out.tags.append(f"verify:oracle:{item['verdict']}->{verified[0]}")
            wrong = wrong or not verified[1]
        return wrong


class CliJobs2:
    """``python -m pdrkit verify --enumerate 5 --jobs 2 --per-graph`` as a subprocess.

    The input is the whole n = 5 corpus, so it is the same for every seed.
    """

    name = "cli_jobs2"

    def __init__(self, ctx):
        self.ctx = ctx
        self.log = RunLog()
        self.extra: dict = {}
        self.args = ["verify", "--enumerate", str(CLI_ENUMERATE_N), "--jobs", str(CLI_JOBS), "--per-graph"]

    def build(self) -> None:
        # pdrkit enumerates in ascending edge-subset order, as the oracle does.
        self.sample = [(corpus.graph6(nbrs), verdict) for nbrs, verdict in corpus.classified(CLI_ENUMERATE_N)]

    def probe_argv(self) -> list[str]:
        return ["-m", "pdrkit", "verify", "--enumerate", "3", "--jobs", str(CLI_JOBS), "--per-graph"]

    def warm_up(self) -> None:
        pass  # every invocation starts a fresh interpreter

    def invoke(self, span_dir: Path | None = None) -> dict:
        if span_dir is None:
            run = self.ctx.spawn(["-m", "pdrkit", *self.args])
        else:
            run = self.ctx.spawn([str(Path(__file__).with_name("traced_cli.py")), str(span_dir), *self.args])
        run["ok"] = self.check(run)
        return run

    def check(self, run: dict) -> int:
        """Log one outcome per graph from the JSON lines; returns the successes.

        The i-th line must be the i-th graph of the oracle's enumeration, so
        a graph that is missing, repeated or out of order fails.
        """
        records = []
        for line in run["stdout"].decode("ascii", "replace").splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
        summary = records.pop() if records and "total" in records[-1] else None
        ok = 0
        expected_counts: dict[str, int] = {}
        for idx, (g6, expected) in enumerate(self.sample):
            expected_counts[expected] = expected_counts.get(expected, 0) + 1
            rec = records[idx] if idx < len(records) else None
            tags, wrong = [], False
            if rec is None:
                tags.append(f"exit:{run['code']}")
            else:
                tags += sorted({"violation:" + v.partition(":")[0] for v in rec["violations"]})
                if rec["graph6"] != g6 or rec["verdict"] != expected:
                    tags.append(f"oracle:{expected}->{rec['verdict']}")
                    wrong = not rec["violations"]
            ok += not tags
            self.log.record(Outcome(g6, None, tags, None), wrong)
        if run["code"] == 0 and (
            summary is None
            or len(records) != len(self.sample)
            or summary["total"] != len(self.sample)
            or any(summary[k] != v for k, v in expected_counts.items())
        ):
            self.log.silent_wrong += 1  # a clean exit with extra lines or a wrong summary
        return ok

    def measure(self) -> dict:
        runs = [self.invoke() for _ in self.ctx.rounds()]
        n = len(self.sample)
        self.extra = {"inputs": n, "invocations": len(runs), "wall_s": [r["wall"] for r in runs]}
        return {
            "graphs_per_s": statistics.median(r["ok"] / r["wall"] for r in runs),
            "graph_p50_ms": statistics.median(1000 * r["wall"] / n for r in runs),
            "success_ratio": 1 - self.log.failed / self.log.attempted,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in runs),
        }

    def measure_traced(self) -> dict:
        totals = TraceTotals()
        for k in self.ctx.rounds(minimum=1):
            span_dir = self.ctx.out / f"spans-cli_jobs2-{self.ctx.seed}-{k}"
            span_dir.mkdir(exist_ok=True)
            for old in span_dir.glob("*.jsonl"):
                old.unlink()
            # Alternate which invocation goes first, so drift in host speed cancels.
            if k % 2:
                traced = self.invoke(span_dir)
                plain = self.invoke()
            else:
                plain = self.invoke()
                traced = self.invoke(span_dir)
            totals.busy.append(plain["cpu"] / (plain["wall"] * CLI_JOBS))
            if (traced["stdout"], traced["code"]) != (plain["stdout"], plain["code"]):
                self.log.trace_mismatches += 1
            files = sorted(span_dir.glob("*.jsonl"))
            if not any(f.name.startswith("worker-") for f in files):
                raise RuntimeError("the traced CLI left no worker spans")
            for path in files:
                totals.add_spans(read_spans(path))
            totals.plain.append(plain["wall"])
            totals.traced.append(traced["wall"])
            totals.op_seconds += traced["wall"]
            totals.graphs += len(self.sample)
        self.extra = totals.details()
        return totals.metrics()


WORKLOADS = {w.name: w for w in (Sweep6, NamedLarge, CliJobs2)}
