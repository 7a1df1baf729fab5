"""Acceptance suite.

Eight criteria, each printed as one pass/fail line (run with ``-s`` to see
them on success). Criteria 1-4, 7, and 8 sweep every connected labeled
graph on up to six vertices through the whole-graph invariant suite once
(shared session fixture); criteria 5 and 6 are named-graph regressions.

Tolerances are pinned here to their contract values: walk identities at
1e-6 * max(1, radius^l), local-multiplicity sums at n * 1e-8, the
predistance contract at 1e-8 (relative), pseudo-intersection spreads at
1e-7 * max(1, radius), the level sum rule at 1e-7, Perron-entry
comparisons at 1e-9. The sweep must also finish in under five minutes
single-threaded.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

from pdrkit import (
    ToleranceConfig,
    classify,
    decompose,
    enumerate_connected,
    generate_named,
    is_pdr_around,
    local_spectrum,
    build_predistance,
    parse_graph6,
    serialize_graph6,
    verify_graph,
)

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
MAX_N = 6
TIME_BUDGET_SECONDS = 300.0

# The suite runs at the library defaults, which are exactly the contract
# tolerances listed in the module docstring.
TOL = ToleranceConfig(
    eps_group=1e-8,
    eps_mult=1e-8,
    eps_num=1e-7,
    eps_pdr=1e-7,
    eps_walk=1e-6,
    eps_orth=1e-8,
    eps_alpha=1e-9,
)

CRITERION_CHECKS = {
    1: ("decompose", "connectivity", "numerical", "dichotomy", "classification_internal", "fourier_match"),
    2: ("equivalence",),
    3: ("closed_walk_identity", "multiplicity_sum"),
    4: ("pd_orthogonality", "pd_normalization", "pd_closed_forms", "pd_recurrence"),
    7: ("walk_formula", "sum_rule"),
    8: ("round_trip",),
}
ALL_TAGGED = tuple(t for tags in CRITERION_CHECKS.values() for t in tags) + (
    "weighted_degree",
    "idempotents",
)


class SweepResult:
    def __init__(self):
        self.counts = Counter()
        self.verdicts = Counter()
        self.all_pdr = 0
        self.violations = defaultdict(list)  # check tag -> [(graph6, detail)]
        self.elapsed = 0.0

    def failures(self, tags) -> list:
        return [v for tag in tags for v in self.violations.get(tag, [])]


@pytest.fixture(scope="session")
def sweep() -> SweepResult:
    result = SweepResult()
    start = time.perf_counter()
    for n in range(1, MAX_N + 1):
        for g in enumerate_connected(n):
            result.counts[n] += 1
            outcome = verify_graph(g, TOL)
            result.verdicts[outcome.verdict] += 1
            result.all_pdr += outcome.all_pdr
            for violation in outcome.violations:
                result.violations[violation.check].append((outcome.graph6, violation.detail))
    result.elapsed = time.perf_counter() - start
    return result


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_exhaustive_dichotomy(sweep):
    count_ok = all(sweep.counts[n] == EXPECTED_COUNTS[n] for n in EXPECTED_COUNTS)
    bad = sweep.failures(CRITERION_CHECKS[1])
    in_time = sweep.elapsed < TIME_BUDGET_SECONDS
    total = sum(sweep.counts.values())
    dichotomy_ok = sweep.all_pdr == (
        sweep.verdicts["distance_regular"] + sweep.verdicts["distance_biregular"]
    )
    report(
        1,
        count_ok and not bad and in_time and dichotomy_ok,
        f"{total} graphs, counts {dict(sweep.counts)}, "
        f"{sweep.verdicts['distance_regular']} distance-regular, "
        f"{sweep.verdicts['distance_biregular']} distance-biregular, "
        f"{len(bad)} violations, {sweep.elapsed:.1f}s",
    )


def test_criterion_2_characterization_equivalence(sweep):
    bad = sweep.failures(CRITERION_CHECKS[2])
    report(2, not bad, f"{len(bad)} disagreements; sample {bad[:3]}")


def test_criterion_3_walk_identities(sweep):
    bad = sweep.failures(CRITERION_CHECKS[3])
    report(3, not bad, f"{len(bad)} residual failures; sample {bad[:3]}")


def test_criterion_4_predistance_contract(sweep):
    bad = sweep.failures(CRITERION_CHECKS[4])
    report(4, not bad, f"{len(bad)} contract failures; sample {bad[:3]}")


def test_criterion_5_named_regressions():
    expected = {
        "petersen": ((3, 2), (1, 1)),
        "cycle:5": ((2, 1), (1, 1)),
        "complete:4": ((3,), (1,)),
        "cycle:6": ((2, 1, 1), (1, 1, 2)),
    }
    builders = {
        "petersen": generate_named("petersen"),
        "cycle:5": generate_named("cycle", 5),
        "complete:4": generate_named("complete", 4),
        "cycle:6": generate_named("cycle", 6),
    }
    problems = []
    for name, (b, c) in expected.items():
        g = builders[name]
        cls = classify(g, TOL)
        if cls.verdict != "distance_regular":
            problems.append(f"{name}: verdict {cls.verdict}")
            continue
        (arr,) = cls.intersection_arrays
        if (arr.b, arr.c) != (b, c):
            problems.append(f"{name}: array {(arr.b, arr.c)} != {(b, c)}")
        # Distance polynomials reproduce the distance matrices columnwise.
        dec = decompose(g, TOL)
        worst = np.zeros(len(b) + 1)
        for v in range(g.n):
            system = build_predistance(local_spectrum(dec, v, TOL), dec.spectral_radius, float(dec.perron[v]))
            for i, col in enumerate(system.columns(g)):
                worst[i] = max(worst[i], float(np.max(np.abs(col - (g.distances[:, v] == i)))))
        for i in np.flatnonzero(worst > 1e-7):
            problems.append(f"{name}: distance polynomial {i} residual {worst[i]:.2e}")

    for name, g, sizes in [
        ("complete_bipartite:2,3", generate_named("complete_bipartite", 2, 3), (3, 2)),
        ("complete_bipartite:1,2", generate_named("complete_bipartite", 1, 2), (2, 1)),
    ]:
        cls = classify(g, TOL)
        if cls.verdict != "distance_biregular":
            problems.append(f"{name}: verdict {cls.verdict}")
            continue
        d1, d2 = sizes
        want = (np.sqrt((d1 + d2) / (2.0 * d2)), np.sqrt((d1 + d2) / (2.0 * d1)))
        got = cls.alpha_levels
        if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > 1e-9:
            problems.append(f"{name}: alpha levels {got} != {want}")
    report(5, not problems, "; ".join(problems) if problems else "6 named graphs as expected")


def test_criterion_6_negative_control():
    g = generate_named("path", 4)
    cls = classify(g, TOL)
    dec = decompose(g, TOL)
    rep = is_pdr_around(g, dec, 1, TOL)
    ok = (
        cls.verdict == "not_pdr"
        and cls.witness in (1, 2)
        and rep.witness is not None
        and rep.witness.gap >= 0.5
    )
    report(
        6,
        ok,
        f"verdict {cls.verdict}, witness vertex {cls.witness}, "
        f"weighted-count gap {rep.witness.gap:.6f}" if rep.witness else "no witness",
    )


def test_criterion_7_structural_identities(sweep):
    bad = sweep.failures(CRITERION_CHECKS[7])
    report(7, not bad, f"{len(bad)} identity failures; sample {bad[:3]}")


def test_criterion_8_graph6_round_trip(sweep):
    bad = sweep.failures(CRITERION_CHECKS[8])
    # Round-trip is also asserted directly on a fresh pass, independent of
    # the sweep bookkeeping.
    mismatch = 0
    for n in range(1, MAX_N + 1):
        for g in enumerate_connected(n):
            if parse_graph6(serialize_graph6(g)) != g:
                mismatch += 1
    report(8, not bad and mismatch == 0, f"{len(bad)} sweep failures, {mismatch} direct mismatches")


def test_no_untagged_violations(sweep):
    # Nothing outside the criterion mapping may fail either.
    unknown = {tag: v for tag, v in sweep.violations.items() if v}
    assert not unknown, f"violations recorded: {dict((k, len(v)) for k, v in unknown.items())}"
    assert set(sweep.violations) <= set(ALL_TAGGED)


# The n = 7 counts in closed form. There are 1,866,256 connected labeled
# graphs on 7 vertices (OEIS A001187). The distance-regular ones are K7 (one
# labeling) and C7 (7!/14 = 360): a regular graph on 7 vertices has even
# degree, and neither 4-regular graph (the complements of C7 and of C3 + C4)
# is strongly regular. The distance-biregular ones are bipartite with two
# constant degrees, so K_{1,6}, K_{2,5} and K_{3,4} (7 + 21 + 35 labelings).
N7_SUMMARY = {
    "total": 1866256,
    "all_pdr": 424,
    "distance_regular": 361,
    "distance_biregular": 63,
    "not_pdr": 1866256 - 424,
    "violations": 0,
}


@pytest.mark.n7
def test_enumerate_7_acceptance():
    # Opt-in (pytest -m n7): a few minutes on two cores.
    import pdrkit

    src = os.path.dirname(os.path.dirname(pdrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pdrkit", "verify", "--enumerate", "7", "--jobs", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=1800,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.count("\n") == 1  # no violating graph printed
    assert json.loads(proc.stdout) == N7_SUMMARY
    report(9, True, f"n = 7: {N7_SUMMARY['total']} graphs, no violations, {elapsed:.0f} s with --jobs 2")
