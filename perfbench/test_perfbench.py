"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import NullTracer, Tracer
from teamtl import AX, EU, EX, And, BoolOr, CNeg, NegProp, Prop, Split, expand_shorthand

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_serialised_inputs(workload):
    first = json.dumps(workloads.build(workload, 7, 5))
    assert json.dumps(workloads.build(workload, 7, 5)) == first
    assert json.dumps(workloads.build(workload, 8, 5)) != first


def test_setup_step_writes_identical_bytes(tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
             "--workload", "ltl_mix", "--seed", "3", "--out", str(out)],
            env=run.child_env(), check=True, timeout=120,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])) == workloads.POOL["ltl_mix"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_every_reference(workload):
    pool = workloads.build(workload, 11, 2 * len(workloads.WORKLOADS[workload]))
    for tracer in (NullTracer(), Tracer()):
        for i, inst in enumerate(pool):
            assert not workloads.is_wrong(inst, workloads.decide(inst, tracer, i))


def test_flat_generator_stays_in_the_flat_fragment():
    allowed = {"Prop", "NegProp", "And", "Split", "EX", "AX", "ER", "AR"}
    rng = random.Random(0)
    for _ in range(500):
        phi = workloads.flat_ctl_formula(rng, rng.randint(*workloads.CTL_BUDGET))
        assert workloads.is_flat_ctl(phi)
        stack = [phi]
        while stack:
            node = stack.pop()
            assert type(node).__name__ in allowed
            stack += [getattr(node, a) for a in ("left", "right", "child") if hasattr(node, a)]


@pytest.mark.parametrize("phi", [
    CNeg(Prop("p")),
    BoolOr(Prop("p"), Prop("q")),
    EU(Prop("p"), Prop("q")),
    expand_shorthand("EF", [Prop("p")]),
    expand_shorthand("AF", [Prop("p")]),
    EX(AX(And(Prop("p"), CNeg(NegProp("q"))))),
])
def test_flat_check_rejects_non_pointwise_formulas(phi):
    assert not workloads.is_flat_ctl(phi)


def test_flat_check_accepts_eg_and_ag():
    body = Split(EX(Prop("p")), AX(NegProp("q")))
    assert workloads.is_flat_ctl(expand_shorthand("EG", [body]))
    assert workloads.is_flat_ctl(expand_shorthand("AG", [body]))


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, None, 1],
        ["a", 1.0, 3.0, 0, 1],
        ["b", 4.0, 8.0, 0, 1],
        ["leaf", 5.0, 6.0, 2, 1],
    ]
    assert tracer.self_times() == [
        ("outer", 1, 4.0), ("a", 1, 2.0), ("b", 1, 3.0), ("leaf", 1, 1.0),
    ]


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_cli_sample_is_fixed_by_the_seed():
    for workload in workloads.WORKLOADS:
        sample = workloads.cli_sample(workload, 5, workloads.POOL[workload], run.ROUNDS)
        assert sample == workloads.cli_sample(workload, 5, workloads.POOL[workload], run.ROUNDS)
        assert set(sample) == set(workloads.WORKLOADS[workload])
        pool = workloads.build(workload, 5, workloads.POOL[workload])
        for family, indices in sample.items():
            assert len(set(indices)) == run.ROUNDS
            assert all(pool[i]["family"] == family for i in indices)


def test_times_are_divided_by_their_rounds_slowdown():
    ref = run.REFERENCE_SLICE_MS

    def outcome(n, seconds):
        return run.Outcome(n, n, (True,), seconds, None)

    rounds = [
        run.Round([outcome(0, 0.010), outcome(1, 0.030)], 0.040, [ref, ref], 1.0, {"f": 0.2}),
        run.Round([outcome(2, 0.040)], 0.040, [2 * ref, 2 * ref, 3 * ref], None, {"f": 0.4}),
    ]
    raw = run.figures(rounds, scaled=False)
    scaled = run.figures(rounds, scaled=True)
    assert raw["verdicts_per_s"] == pytest.approx(3 / 0.080)
    assert scaled["verdicts_per_s"] == pytest.approx(3 / 0.060)
    assert raw["verdict_p50_ms"] == pytest.approx(30)
    assert scaled["verdict_p50_ms"] == pytest.approx(20)
    assert scaled["cli_call_ms"] == pytest.approx(200) == scaled["cli_call_ms.f"]
    assert scaled["setup_s"] == raw["setup_s"] == 1.0


def test_a_run_with_no_verdict_still_prints_a_result(monkeypatch, tmp_path, capsys):
    def undecidable(inst, tracer, n):
        raise RuntimeError("cap")

    monkeypatch.setattr(run, "ROUNDS", 2)
    monkeypatch.setattr(workloads, "decide", undecidable)
    report = run.end_to_end_run("ctl_multiset", 1, 0.2, tmp_path)
    result = json.loads(report.result())
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["decided_ratio"]["value"] == 0
    assert result["metrics"]["verdict_p50_ms"]["value"] == 1000 * run.INSTANCE_LIMIT_S


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,units", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(trace, units):
    proc = _bench("--workload", "ltl_mix", "--seed", "1", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for name, unit in units.items():
        assert printed[name] == unit


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ltl_mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
