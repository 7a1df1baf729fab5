"""Command-line front end.

Three subcommands: ``analyze`` (full per-graph report), ``spectrum``
(global and per-vertex spectra), and ``verify`` (stream a corpus through
the classification and invariant suite). All output is JSON on stdout,
one document per invocation and JSON lines in corpus mode; diagnostics go
to stderr. Reals render with 12 significant digits so identical
invocations produce byte-identical output.

Exit codes: 0 success, 1 corpus verification found violations, 2 parse or
input error, 3 disconnected input, 4 numerical failure, 5 internal check
failure (two characterizations that must agree disagreed: a bug, not bad
input), 141 standard output closed before the output was all written (as
when piped into ``head``; 128 + SIGPIPE, what a shell reports for a filter
killed by a broken pipe): any subcommand stops quietly, and ``verify``
cancels its pending batches.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph_core import (
    ConnectivityError,
    Graph,
    Graph6Error,
    NAMED_FAMILIES,
    _connected_stacks,
    _graph6_codes,
    _graph6_order,
    _graph6_stack,
    _graph6_strings,
    distances_from,
    generate_named,
    parse_graph6,
    serialize_graph6,
)
from .spectral import (
    DEFAULT_TOL,
    NumericalError,
    ToleranceConfig,
    decompose,
    local_spectrum,
)
from .predistance import PredistanceSystem, build_predistance
from .pdr import InternalCheckError, _stack_size, _verify_stack, _vertex_pass, classify

# Exit code of every subcommand when standard output is closed before it finishes.
EXIT_BROKEN_PIPE = 141

# The ToleranceConfig fields the CLI exposes, with their help texts. Field
# eps_X is set by --eps-X, falling back to the PDRKIT_EPS_X variable.
_EXPOSED_TOLERANCES = {
    "eps_group": "eigenvalue grouping threshold",
    "eps_mult": "local multiplicity clamp",
    "eps_pdr": "pseudo-intersection spread threshold",
    "eps_walk": "walk-count residual threshold",
}


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x}")
    if x == 0.0:
        return "0"
    return format(x, ".12g")


def _render_json(obj) -> str:
    # Exact types first, in the order reports hold them most; numpy scalars,
    # subclasses and every error take the general path after them.
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is int:
        return str(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # what json.dumps gives a str
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds == {float}:
            # One join for an all-float list. Adding 0.0 turns -0.0 into 0.0
            # and keeps every other float; only inf and nan render with an
            # "n", and they are left to the general path, which refuses them.
            text = ",".join(map(format, map((0.0).__add__, obj), repeat(".12g")))
            if "n" not in text:
                return "[" + text + "]"
        elif kinds == {int}:
            return "[" + ",".join(map(str, obj)) + "]"
        return "[" + ",".join(map(_render_json, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join([_render_key(k) + ":" + _render_json(v) for k, v in obj.items()]) + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _render_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON keys must be strings, got {key!r}")
    return encode_basestring_ascii(key)


def _round_if_close(xs: Sequence[float], eps: float = 1e-6) -> list:
    """Each of xs as an integer when within eps of one, as a raw real otherwise."""
    return [r if abs(x - r) <= eps else x for x, r in zip(xs, map(round, xs))]


# ---------------------------------------------------------------------------
# input handling


def _parse_named_spec(spec: str) -> Graph:
    name, _, tail = spec.partition(":")
    try:
        params = [int(p) for p in tail.split(",")] if tail else []
    except ValueError:
        raise ValueError(f"named spec {spec!r}: parameters must be integers") from None
    return generate_named(name, *params)


def _load_graph(args) -> Graph:
    if args.named is not None:
        return _parse_named_spec(args.named)
    return parse_graph6(args.graph6)


def _tolerances(args) -> ToleranceConfig:
    """The exposed tolerances from their flags, else their environment
    variables; a value that is not a finite number > 0 raises ValueError
    naming its flag or variable."""
    values = {}
    for name in _EXPOSED_TOLERANCES:
        flag, var = getattr(args, name), "PDRKIT_" + name.upper()
        source, text = ("--" + name.replace("_", "-"), flag) if flag is not None else (var, os.environ.get(var))
        if text is None:
            continue
        try:
            values[name] = float(text)
        except ValueError:
            values[name] = math.nan
        if not 0 < values[name] < math.inf:  # false for nan too
            raise ValueError(f"{source} must be a finite number > 0, got {text}")
    return ToleranceConfig(**values) if values else DEFAULT_TOL


def _read_corpus(path: str) -> list[tuple[int, str]]:
    """(line number, graph6 string) pairs from a one-graph-per-line file;
    '#' lines and blanks skipped, line numbers counted from 1. Comment lines
    may hold any bytes: a non-ASCII byte becomes a lone surrogate, which
    :func:`parse_graph6` reports with its offset on a graph line."""
    out = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            out.append((lineno, s))
    return out


# ---------------------------------------------------------------------------
# report builders


def _spectrum_block(dec) -> list[dict]:
    return [
        {"eigenvalue": float(ev), "multiplicity": int(m)}
        for ev, m in zip(dec.eigenvalues, dec.multiplicities)
    ]


def _witness_block(w) -> dict:
    return {
        "cell": w.cell,
        "target": w.target,
        "vertex_a": w.vertex_a,
        "vertex_b": w.vertex_b,
        "value_a": float(w.value_a),
        "value_b": float(w.value_b),
    }


def _triples_block(quotient) -> dict:
    c, a, b = zip(*quotient.tridiagonal())
    return {"c": _round_if_close(c), "a": _round_if_close(a), "b": _round_if_close(b)}


def _classification_block(cls) -> dict:
    arrays = None
    if cls.intersection_arrays is not None:
        arrays = []
        for arr in cls.intersection_arrays:
            block = {"b": list(arr.b), "c": list(arr.c), "a": list(arr.a)}
            if arr.part is not None:
                block["part"] = arr.part
            arrays.append(block)
    return {
        "verdict": cls.verdict,
        "walk_regularity": cls.walk_regularity,
        "intersection_arrays": arrays,
        "alpha_levels": list(cls.alpha_levels) if cls.alpha_levels is not None else None,
        "witness": cls.witness,
    }


def _tolerance_block(tol: ToleranceConfig) -> dict:
    return {name: getattr(tol, name) for name in _EXPOSED_TOLERANCES}


def analysis_report(g: Graph, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Full analysis of one graph as a plain JSON-ready dict."""
    g6 = serialize_graph6(g)
    dec = decompose(g, tol)
    reports = _vertex_pass(g, dec, tol)
    cls = classify(g, tol, dec=dec, reports=reports)
    per_vertex = []
    for r in reports:
        entry = {
            "vertex": r.vertex,
            "local_degree": r.local_degree,
            "eccentricity": r.eccentricity,
            "local_mults": r.spectrum.local_mults.tolist(),
            "is_pdr": r.is_pdr,
        }
        if r.is_pdr:
            entry["intersection_numbers"] = _triples_block(r.quotient)
        else:
            entry["witness"] = _witness_block(r.witness)
        per_vertex.append(entry)
    return {
        "input": g6,
        "n": g.n,
        "edge_count": g.edge_count,
        "spectrum": _spectrum_block(dec),
        "perron": dec.perron.tolist(),
        "per_vertex": per_vertex,
        "classification": _classification_block(cls),
        "tolerances": _tolerance_block(tol),
    }


def _monomial_coefficients(system: PredistanceSystem) -> list[list[float]]:
    """Each p_i's monomial coefficients in ascending degree, from the recurrence
    run on coefficient vectors, where x shifts a vector up one degree: a
    reporting expansion that loses accuracy as the local degree grows."""
    coeffs = system._run(np.arange(len(system.recurrence)) == 0, lambda c: np.roll(c, 1, axis=0))
    return [c[: i + 1].tolist() for i, c in enumerate(coeffs)]


def spectrum_report(g: Graph, vertex: int | None, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Global spectrum, plus the local spectrum and polynomials of one vertex."""
    g6 = serialize_graph6(g)
    dec = decompose(g, tol)
    out = {
        "input": g6,
        "n": g.n,
        "spectrum": _spectrum_block(dec),
    }
    if vertex is not None:
        if not 0 <= vertex < g.n:
            raise ValueError(f"vertex {vertex} out of range for a graph on {g.n} vertices")
        ls = local_spectrum(dec, vertex, tol)
        system = build_predistance(ls, dec.spectral_radius, float(dec.perron[vertex]))
        out["vertex"] = vertex
        out["local_spectrum"] = {
            "values": [float(v) for v in ls.values],
            "local_mults": [float(m) for m in ls.local_mults],
            "local_degree": ls.local_degree,
            "eccentricity": int(distances_from(g, vertex).max()),
        }
        out["predistance"] = {
            "polynomials": _monomial_coefficients(system),
            "recurrence": [list(t) for t in system.recurrence],
            "values_at_radius": list(system.values_at_radius),
        }
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    print(_render_json(analysis_report(g, _tolerances(args))))
    return 0


def _cmd_spectrum(args) -> int:
    g = _load_graph(args)
    print(_render_json(spectrum_report(g, args.vertex, _tolerances(args))))
    return 0


def _verify_batch(item: tuple[int, list[str], ToleranceConfig]) -> list[dict]:
    """The records of one batch of graph6 strings of order n, in order."""
    n, sources, tol = item
    return [
        {
            "graph6": result.graph6,
            "verdict": result.verdict,
            "all_pdr": result.all_pdr,
            "violations": [f"{v.check}: {v.detail}" for v in result.violations],
        }
        for result in _verify_stack(_graph6_stack(sources, n), tol)
    ]


def _connected_count(n: int) -> int:
    """Number of connected labeled graphs on n vertices (OEIS A001187), from
    the count of all graphs by the size of vertex 0's component."""
    counts = [0]
    for m in range(1, n + 1):
        counts.append(2 ** comb(m, 2) - sum(comb(m - 1, k - 1) * counts[k] * 2 ** comb(m - k, 2) for k in range(1, m)))
    return counts[n]


def _batches(runs: Iterable[tuple[int, list[str]]], total: int, jobs: int) -> Iterator[tuple[int, list[str]]]:
    """The ``(n, strings)`` runs of graph6 strings of order n cut into
    batches, each no larger than one stack of that order, and small enough
    that ``total`` graphs make at least min(total, 8 * jobs) batches, so
    that every worker gets work."""
    share = max(1, total // (8 * jobs))
    for n, strings in runs:
        size = min(share, _stack_size(n))
        for lo in range(0, len(strings), size):
            yield n, strings[lo : lo + size]


def _in_windows(pool, items: Iterator, window: int) -> Iterator:
    """``pool.map`` over ``items`` in order, with at most two windows of
    ``window`` items submitted at once, so that a long stream stays in
    bounded memory and the workers never wait for the next window."""
    pending: deque = deque()
    while chunk := list(islice(items, window)):
        pending.append(pool.map(_verify_batch, chunk))
        if len(pending) == 2:
            yield from pending.popleft()
    while pending:
        yield from pending.popleft()


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.enumerate is not None:
        if not 1 <= args.enumerate <= 7:
            print("--enumerate supports 1 <= n <= 7", file=sys.stderr)
            return 2
        total = _connected_count(args.enumerate)
        # The strings are encoded a chunk of edge masks at a time, as batches are taken.
        runs = ((args.enumerate, _graph6_strings(_graph6_codes(adj))) for adj in _connected_stacks(args.enumerate))
    else:
        try:
            lines = _read_corpus(args.corpus)
        except OSError as exc:
            print(f"cannot read corpus: {exc}", file=sys.stderr)
            return 2
        runs = []  # (n, strings) for each run of consecutive lines of one order
        for lineno, s in lines:
            try:
                _, n = _graph6_order(s)
            except Graph6Error as exc:
                print(f"{args.corpus}:{lineno}: {exc}", file=sys.stderr)
                return 2
            if not runs or runs[-1][0] != n:
                runs.append((n, []))
            runs[-1][1].append(s)
        total = len(lines)

    counts = {
        "total": 0,
        "all_pdr": 0,
        "distance_regular": 0,
        "distance_biregular": 0,
        "not_pdr": 0,
        "violations": 0,
    }

    def consume(batches: Iterable[list[dict]]) -> None:
        for records in batches:
            for record in records:
                counts["total"] += 1
                if record["all_pdr"]:
                    counts["all_pdr"] += 1
                if record["verdict"] in ("distance_regular", "distance_biregular", "not_pdr"):
                    counts[record["verdict"]] += 1
                if record["violations"]:
                    counts["violations"] += 1
                    print(_render_json(record))
                elif args.per_graph:
                    print(_render_json(record))
        print(_render_json(counts))
        sys.stdout.flush()

    # The pool starts all its workers at once, so never more than there are graphs.
    jobs = min(args.jobs, total)
    items = ((n, batch, tol) for n, batch in _batches(runs, total, max(1, jobs)))
    if jobs <= 1:
        consume(map(_verify_batch, items))
    else:
        # Workers stream results back in input order, so output stays deterministic.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            try:
                consume(_in_windows(pool, items, 4 * jobs))
            except BrokenPipeError:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    return 1 if counts["violations"] else 0


# ---------------------------------------------------------------------------
# parser


def _add_tolerance_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("tolerances (fall back to PDRKIT_EPS_* environment variables)")
    for name, text in _EXPOSED_TOLERANCES.items():
        group.add_argument("--" + name.replace("_", "-"), type=float, default=None, help=text)


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph6", nargs="?", default=None, help="graph6 string")
    p.add_argument(
        "--named",
        default=None,
        metavar="SPEC",
        help=f"named graph, e.g. petersen or cycle:5 ({', '.join(NAMED_FAMILIES)})",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse starts
    from a new namespace, so no flag carries over from one call to the next."""
    parser = argparse.ArgumentParser(prog="pdrkit", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full spectral / classification report for one graph")
    _add_graph_input(p_an)
    _add_tolerance_flags(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_sp = sub.add_parser("spectrum", help="global spectrum, optionally one vertex's local data")
    _add_graph_input(p_sp)
    p_sp.add_argument("--vertex", type=int, default=None, help="vertex for local spectrum output; its recurrence "
                      "is exact, its monomial polynomials are expanded from it for reporting and lose accuracy as "
                      "local degree grows")
    _add_tolerance_flags(p_sp)
    p_sp.set_defaults(func=_cmd_spectrum)

    p_ve = sub.add_parser("verify", help="run the classification and invariant suite over a corpus")
    p_ve.add_argument("corpus", nargs="?", default=None, help="graph6-per-line file ('#' comments allowed)")
    p_ve.add_argument("--enumerate", type=int, default=None, metavar="N", help="all connected graphs on N vertices")
    p_ve.add_argument("--jobs", type=int, default=1, help="worker processes (output order is preserved)")
    p_ve.add_argument("--per-graph", action="store_true", help="emit one JSON line per graph, not just violations")
    _add_tolerance_flags(p_ve)
    p_ve.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) in ("analyze", "spectrum"):
        if (args.graph6 is None) == (args.named is None):
            print("provide exactly one of a graph6 string or --named", file=sys.stderr)
            return 2
    if args.command == "verify" and (args.corpus is None) == (args.enumerate is None):
        print("provide exactly one of a corpus file or --enumerate", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing more can be written; point stdout at devnull so that the
        # interpreter's last flush stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Graph6Error as exc:
        print(f"graph6 parse error: {exc}", file=sys.stderr)
        return 2
    except ConnectivityError as exc:
        print(f"connectivity error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except InternalCheckError as exc:
        print(f"internal check error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
