"""Self-test of the benchmark: pinned exact counts and the oracle.

    python3 -m pytest bench -q

The counts are deterministic, so an enumeration or one-pass change shows up
here as a deliberate diff to the pinned table.
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import morsekit as mk  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# support, cones, vertices, calls of cones.feasible
PINNED = [
    ([1, 2, 3, 4], 8, 5, 26),
    ([2, 3, 4, 6], 10, 5, 27),
    ([-6, -4, -3, -2], 10, 5, 27),
    ([1, 2, 3, 4, 5], 81, 10, 480),
    ([-3, -1, 1, 2, 4], 105, 16, 663),
]


def traced_polytope(support):
    tracer = Tracer().install()
    try:
        tracer.enabled = True
        code, stdout = workloads.call_cli(
            ["polytope", json.dumps({"A": support}), "--format", "json"]
        )
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return tracer, code, stdout


@pytest.mark.parametrize("support,cones,vertices,solves", PINNED)
def test_pinned_counts(support, cones, vertices, solves):
    tracer, code, stdout = traced_polytope(support)
    got = json.loads(stdout)
    assert code == 0
    assert len(got["cones"]) == cones
    assert len(got["vertices"]) == vertices
    assert tracer.summary()["cones.feasible"]["calls"] == solves


def test_polytope_per_layer_counts():
    workload = workloads.PolytopeWorkload([[-3, -1, 1, 2, 4]], 1)
    tracer = Tracer()
    untraced, traced, _ = run.traced_passes(workload, tracer, 0)
    metrics = run.per_layer(tracer, traced, untraced)
    assert [op.error for p in untraced + traced for op in p] == [None, None]
    assert metrics["polytope.vertices"][0] == 16
    assert metrics["cones.feasible.calls"][0] == 663
    assert metrics["cones.leaves"][0] == 105


def test_extract_calls_per_query_and_seed_independence():
    verdicts = []
    for seed in (1, 2):
        workload = workloads.QueryWorkload(seed)
        tracer = Tracer()
        untraced, traced, _ = run.traced_passes(workload, tracer, 0)
        metrics = run.per_layer(tracer, traced, untraced)
        assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
        assert metrics["tropical.extract.calls_per_query"][0] == 5
        assert metrics["fiber.area_newton.calls_per_query"][0] == 2
        verdicts.append([op.error for p in untraced + traced for op in p])
    assert verdicts[0] == verdicts[1] == [None] * 20


def test_end_to_end_metrics_match_benchmark_json():
    workload = workloads.VerifyWorkload(5)
    passes = run.run_passes(workload, 0)
    setup = run.setup_ops(workloads.EXPECTED["readme_extract"])
    assert [op.error for op in setup] == [None] * (run.SETUP_RUNS + 1)
    metrics = run.end_to_end(passes, setup)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())
    assert [op.error for p in passes for op in p] == [None]
    assert passes[0][0].info["samples"] == workloads.VERIFY_SAMPLES
    assert workloads.check_verify(3, "", workloads.VERIFY_SAMPLES) == "exit code 3"


def test_uninstall_restores_every_binding():
    originals = (mk.extract, mk.tropical.extract, mk.cones.extract, mk.fiber.extract,
                 mk.cones.StrictSystem.extended, mk.cones._genericize)
    tracer = Tracer().install()
    assert mk.cones.extract is not originals[2]
    assert mk.cones.extract is mk.fiber.extract is mk.extract
    tracer.uninstall()
    assert (mk.extract, mk.tropical.extract, mk.cones.extract, mk.fiber.extract,
            mk.cones.StrictSystem.extended, mk.cones._genericize) == originals


def test_polytope_oracle_catches_a_wrong_vertex_set():
    support = [-3, -1, 1, 2, 4]
    code, stdout = workloads.call_cli(["polytope", json.dumps({"A": support}), "--format", "json"])
    key = json.dumps(support)
    pinned = workloads.EXPECTED["polytopes"][key]
    assert [37, 15, 2, 33, 39] in pinned["vertices"]
    assert [58, 0, 0, 0, 68] in pinned["vertices"]
    assert (pinned["d1"], pinned["d2"]) == (126, 98)
    assert workloads.check_polytope(support, code, stdout) is None

    wrong = copy.deepcopy(workloads.EXPECTED)
    wrong["polytopes"][key]["vertices"][0][0] += 1
    assert workloads.check_polytope(support, code, stdout, wrong) is not None
    wrong = copy.deepcopy(workloads.EXPECTED)
    wrong["polytopes"][key]["d1"] += 1
    assert workloads.check_polytope(support, code, stdout, wrong) is not None
    assert workloads.check_polytope(support, 1, stdout) == "exit code 1"


def test_harness_genericity_matches_extract():
    """The harness decides genericity without the library; on a coarse grid,
    where walls are common, it must agree with `extract` exactly."""
    rng = random.Random(0)
    support = mk.validate_support([-3, -1, 1, 2, 4])
    seen = set()
    for _ in range(400):
        values = [rng.randint(0, 6) for _ in support.points]
        try:
            mk.extract(support, mk.covector_from_values(support, values))
            accepted = True
        except mk.errors.DegeneracyError:
            accepted = False
        assert workloads.is_generic(support.points, values) == accepted, values
        seen.add(accepted)
    assert seen == {True, False}
