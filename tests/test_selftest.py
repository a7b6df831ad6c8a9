import hashlib
import random

import teamtl.selftest
from teamtl.parser import render
from teamtl.selftest import (
    random_kripke,
    random_ltl_formula,
    random_pl_formula,
    random_qbf,
    run_selftest,
)


def test_default_run_is_clean():
    report = run_selftest(seed=11, count=15)
    assert report.ok
    assert report.instances > 0


def test_fixed_seed_reproduces_the_stream():
    a = run_selftest(seed=5, count=10)
    b = run_selftest(seed=5, count=10)
    assert [(s.name, s.instances, s.mismatches) for s in a.suites] == \
        [(s.name, s.instances, s.mismatches) for s in b.suites]


def test_injected_mutant_is_detected(monkeypatch):
    check_team = teamtl.selftest.check_team
    monkeypatch.setattr(
        teamtl.selftest, "check_team", lambda *a, **kw: not check_team(*a, **kw)
    )
    report = run_selftest(seed=0, count=15)
    (ltl,) = [s for s in report.suites if s.name == "check_team vs naive_oracle"]
    assert any("check_team" in m for m in ltl.mismatches)


def test_benchmark_generator_streams_are_pinned():
    # perfbench draws its workloads from these four generators with these
    # arguments; a change to their streams changes the benchmark's inputs.
    rng = random.Random(2024)
    draws = []
    for i in range(20):
        draws.append(repr(random_qbf(rng, max_vars=4, max_clauses=3 + i % 3)))
        draws.append(repr(random_qbf(rng, max_vars=8 + i % 2, max_clauses=10 + i % 2)))
        k = random_kripke(rng, max_worlds=7)
        labels = sorted((w, sorted(ps)) for w, ps in k.labels.items())
        draws.append(repr((k.worlds, sorted(k.edges), labels)))
        draws.append(render(random_pl_formula(rng, 3 + i % 4, ("p", "q", "r"))))
        draws.append(render(random_ltl_formula(
            rng, 1 + i % 3, allow_split=False, allow_cneg=True, allow_boolor=True,
        )))
    assert hashlib.sha256("\n".join(draws).encode()).hexdigest() == \
        "7f63b04aeb3908f751715e76ac4d836f7a452149f1b27ee1a0551ad8f87e6751"
