"""Tiny-size runs of every workload through the benchmark harness.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import dataclasses
import json
import os

import pytest

import harness

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Small cells keep each run well under a second; cli-uni keeps one n = 16
# census cell so that the known IdenticallySingular exit is exercised.
TINY = {
    "uni-enum": dict(timed=((2, 1), (3, 1)), census=((2, 1), (3, 1)), copies=1),
    "multi": dict(timed=((2, 2), (3, 3)), census=((2, 2), (3, 3)), copies=1),
    "cli-uni": dict(timed=((2, 1), (3, 1)), census=((2, 1), (3, 1), (16, 1)), copies=1),
}


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], **TINY[name])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert names == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_smoke_emits_every_metric(name, trace, tmp_path):
    work = tiny(name)
    out = harness.run(work, seed=3, seconds=0.05, trace=trace, out_dir=str(tmp_path))
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    stem = tmp_path / f"{name}-seed3-trace{int(trace)}"
    rows = (stem.parent / f"{stem.name}.rows.jsonl").read_text().splitlines()
    census = [json.loads(line) for line in rows[1:]]
    assert len(census) == 2 * work.copies * len(work.census)
    assert (stem.parent / f"{stem.name}.spans.jsonl").exists() == trace
    assert not (stem.parent / f"{stem.name}.work").exists()


def test_known_defect_is_a_census_failure(tmp_path):
    out = harness.run(tiny("cli-uni"), seed=3, seconds=0.05, trace=True, out_dir=str(tmp_path))
    metrics = out["result"]["metrics"]
    assert out["summary"]["census_failed"] == 2
    assert metrics["cli.exit_1"]["value"] == 2
    assert metrics["polymatrix.identically_singular"]["value"] == 2


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_perturbed_unknown_fails_every_op(name, tmp_path):
    work = tiny(name)

    def perturbed(inst, raw):
        xs = work.read(inst, raw)
        xs[0, 0, 0, 0] += 1e-3
        return xs

    good = harness.run(work, seed=3, seconds=0.05, trace=False, out_dir=str(tmp_path))
    bad = harness.run(
        dataclasses.replace(work, read=perturbed),
        seed=3,
        seconds=0.05,
        trace=False,
        out_dir=str(tmp_path),
    )
    assert good["result"]["failed"] == 0
    assert bad["result"]["failed"] == bad["result"]["attempted"]
    assert bad["result"]["correct"] is False
    assert bad["result"]["metrics"]["solved_frac"]["value"] == 0.0


def test_times_are_scaled_by_the_speed_gauge(tmp_path):
    out = harness.run(tiny("uni-enum"), seed=3, seconds=0.05, trace=False, out_dir=str(tmp_path))
    assert out["summary"]["gauge_samples"] >= 3
    rows = (tmp_path / "uni-enum-seed3-trace0.rows.jsonl").read_text().splitlines()
    for row in map(json.loads, rows[1:]):
        # the factor is reference over current speed: near 1 on any machine
        # that is not grossly slower or faster than the reference
        assert 0.05 < row["scaled_seconds"] / row["seconds"] < 20
