"""Benchmark runner for teamtl.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src``.  Each workload is one closed loop: a single client in a single
process sends the next instance only after the previous verdict.  Every
verdict starts from text (load, parse, check) and is compared with an
independent reference outside the timed region.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times
are CPU seconds: of this process for verdicts, of the child for set-up
and CLI calls.  On an idle machine they equal wall time; on a shared one
they leave out the time the host gives the CPU to someone else.  They
are then scaled to a reference machine speed, measured by a fixed slice
of pure-Python work run between verdicts (see ``speed_slice_ms``); the
unscaled figures are printed as ``raw.<metric>``.
``--trace 1`` records a span around every library call the benchmark
makes and reports the per-layer metrics, plus the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "teamtl" / "__init__.py").is_file():
    fail(f"no teamtl sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (needs the source path above)
from spans import NullTracer, Tracer  # noqa: E402

# The end-to-end run is cut into rounds, each a slice of the timed loop
# and one CLI call per instance family; every other round starts with a
# fresh set-up.
ROUNDS = 10
SETUP_EVERY = 2
CLI_BASE_REPEATS = 5
# The speed slice: its length in loop steps, how often the loop runs it,
# and its CPU time on the reference machine the figures are scaled to.
SLICE_STEPS = 100_000
SLICE_EVERY_S = 0.25
REFERENCE_SLICE_MS = 5.0
# Far above the slowest instance of either workload, which takes under 2 s.
INSTANCE_LIMIT_S = 20.0
SUBPROCESS_TIMEOUT_S = 120

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
    "cli_call_ms": "ms",
    "setup_s": "s",
}

TPC = ("tpc_qbf", "tpc_plsim")

# Per-layer metric -> (phase, spans summed per instance, families counted;
# None counts every family).  The value is the median over instances.
SPAN_METRICS = {
    "selftest.gen_ms": ("setup", (
        "selftest.random_qbf", "selftest.random_pl_formula",
        "selftest.random_kripke", "selftest.random_ltl_formula",
    ), None),
    "qbf.reduce_ms": ("setup", (
        "qbf.reduce_to_tpc", "qbf.reduce_plsim_to_tpc", "qbf.reduce_to_tmc_ctl",
    ), None),
    "parser.render_ms": ("setup", ("parser.render",), None),
    "files.dumps_ms": ("setup", ("files.dumps_team", "files.dumps_kripke"), None),
    "files.loads_ms": ("loop", ("files.loads_team", "files.loads_kripke"), None),
    "parser.parse_ms": ("loop", ("parser.parse_ltl", "parser.parse_ctl"), None),
    "eval_team_ltl.check_ms": ("loop", ("eval_team_ltl.check_team",), ("tmc_horizon",)),
    "eval_team_ltl.check_ms.tpc_qbf": ("loop", ("eval_team_ltl.check_team",), ("tpc_qbf",)),
    "eval_team_ltl.check_ms.tpc_plsim": ("loop", ("eval_team_ltl.check_team",), ("tpc_plsim",)),
    "kripke.enumerate_ms": ("loop", ("kripke.enumerate_traces",), None),
    "tmc_splitfree.check_ms": ("loop", ("tmc_splitfree.check_model_splitfree",), None),
    "tmc_splitfree.flatten_ms": ("loop", ("tmc_splitfree.flatten",), None),
    "eval_team_ctl.check_ms.flat": ("loop", ("eval_team_ctl.mc_ctl",), ("ctl_flat",)),
    "eval_team_ctl.check_ms.qbf": ("loop", ("eval_team_ctl.mc_ctl",), ("ctl_qbf",)),
}
# Per-layer count -> (count recorded, families counted).
COUNT_METRICS = {
    "qbf.traces": ("qbf.traces", None),
    "qbf.worlds": ("qbf.worlds", None),
    "qbf.formula_len": ("qbf.formula_len", None),
    "files.bytes": ("files.bytes", None),
    "formula.length": ("formula.length", None),
    "trace.team_size.tpc_qbf": ("trace.team_size", ("tpc_qbf",)),
    "trace.team_size.tmc_horizon": ("trace.team_size", ("tmc_horizon",)),
    "trace.horizon.tpc_qbf": ("trace.horizon", ("tpc_qbf",)),
    "trace.horizon.tmc_horizon": ("trace.horizon", ("tmc_horizon",)),
    "kripke.traces": ("kripke.traces", None),
    "tmc_splitfree.stem": ("tmc_splitfree.stem", None),
    "tmc_splitfree.period": ("tmc_splitfree.period", None),
    "kripke.root_successors": ("kripke.root_successors", None),
}
PER_LAYER = {
    **{name: "ms" for name in SPAN_METRICS},
    "eval_team_ltl.check_ms.sat": "ms",
    "eval_team_ltl.check_ms.unsat": "ms",
    "eval_classical.residual_ms": "ms",
    **{name: "count" for name in COUNT_METRICS},
    "files.bytes": "B",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "perfbench.traced_verdicts_per_s": "1/s",
    "perfbench.tracing_overhead_verdicts_per_s": "1/s",
}


class InstanceTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout(f"over the {INSTANCE_LIMIT_S:g} s instance limit")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_call(argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
    """CPU seconds (user + system) of one child process run to completion,
    and the process; ``None`` if it ran past the subprocess timeout."""
    start = _children_cpu()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return SUBPROCESS_TIMEOUT_S, None
    return _children_cpu() - start, proc


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs
    this interpreter right now."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i
    return round(1000 * (time.perf_counter() - start), 2)


def speed_slice_ms() -> float:
    """CPU time of a fixed pure-Python loop.  A shared host runs the same
    code up to 1.7x slower for tens of seconds at a time, in CPU time as
    well as wall time; the slice measures that slowdown as it happens."""
    start = time.process_time()
    x = 0
    for i in range(SLICE_STEPS):
        x += i
    return 1000 * (time.process_time() - start)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "calibration_ms": calibration_ms(),
    }


# ---------------------------------------------------------------------------
# Set-up and the timed loop


def run_setup(workload: str, seed: int, work: Path) -> tuple[float, Path]:
    """Build the pool in a fresh interpreter: CPU seconds and the file the
    build wrote."""
    out = work / "pool.json"
    elapsed, proc = timed_call([
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(out),
    ])
    if proc is None or proc.returncode != 0:
        fail(f"set-up failed:\n{proc.stderr if proc else 'timed out'}")
    return elapsed, out


@dataclass(slots=True)
class Outcome:
    n: int  # verdict number within the run
    index: int  # pool index of the instance
    verdicts: tuple[bool, ...] | None  # None: undecided
    seconds: float  # CPU seconds
    error: str | None


def run_loop(pool, tracer, *, seconds, first=0, slices=None):
    """Decide instances one after another for ``seconds``, cycling through
    the pool and numbering verdicts from ``first``.  With a ``slices``
    list, run a speed slice every ``SLICE_EVERY_S`` between verdicts and
    append its time; slices are not part of the verdicts' time."""
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    spent = 0.0
    n = first
    sliced = -SLICE_EVERY_S
    while time.perf_counter() - start < seconds:
        if slices is not None and time.perf_counter() - start - sliced >= SLICE_EVERY_S:
            sliced = time.perf_counter() - start
            slices.append(speed_slice_ms())
        index = n % len(pool)
        inst = pool[index]
        error = None
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
        began = time.process_time()
        try:
            with tracer.span("perfbench.verdict", n):
                verdicts = workloads.decide(inst, tracer, n)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # a cap, the time limit or a crash: undecided
            signal.setitimer(signal.ITIMER_REAL, 0)
            verdicts, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.process_time() - began
        spent += elapsed
        outcomes.append(Outcome(n, index, verdicts, elapsed, error))
        if tracer.enabled and verdicts is not None:
            workloads.probe(inst, tracer, n)
        n += 1
    return outcomes, spent


def check_verdicts(pool, outcomes) -> tuple[dict, int]:
    """Expected verdict per pool index and the number of wrong verdicts."""
    expected: dict[int, bool] = {}
    wrong = 0
    for o in outcomes:
        if o.verdicts is None:
            continue
        if workloads.is_wrong(pool[o.index], o.verdicts):
            wrong += 1
        else:
            expected[o.index] = o.verdicts[0]
    return expected, wrong


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def cli_call(pool, index, work) -> tuple[float, int | None]:
    """Run ``teamtl.cli`` on one instance's files: CPU seconds and the
    exit code, ``None`` on a timeout."""
    directory = work / f"cli{index}"
    directory.mkdir()
    args = workloads.cli_args(pool[index], directory)
    elapsed, proc = timed_call([sys.executable, "-m", "teamtl.cli", *args])
    return elapsed, proc.returncode if proc else None


def median_call_ms(argv: list[str]) -> float:
    """Median CPU milliseconds of a child process over a few runs."""
    return 1000 * statistics.median(
        timed_call(argv)[0] for _ in range(CLI_BASE_REPEATS)
    )


# ---------------------------------------------------------------------------
# Runs


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    # Figures printed by name but not part of the JSON result.
    notes: dict[str, tuple[float, str]] = field(default_factory=dict)

    def lines(self) -> list[str]:
        rows = {**self.notes, **{n: (v, self.units[n]) for n, v in self.metrics.items()}}
        return [f"{name:44s} {value:14.4f} {unit}" for name, (value, unit) in rows.items()]

    def result(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in self.units.items()
            },
        })


def report_errors(outcomes):
    errors = defaultdict(int)
    for o in outcomes:
        if o.error is not None:
            errors[o.error.split(":")[0]] += 1
    for kind, number in sorted(errors.items()):
        print(f"undecided: {number} x {kind}")


@dataclass
class Round:
    outcomes: list[Outcome]
    spent: float  # CPU seconds of the round's verdicts
    slices: list[float]  # speed-slice times in ms, taken during the loop
    setup: float | None  # CPU seconds of the round's build, if it made one
    calls: dict[str, float]  # family -> CPU seconds of the round's CLI call

    @property
    def slowdown(self) -> float:
        """How many times slower than the reference machine this round ran."""
        return statistics.median(self.slices) / REFERENCE_SLICE_MS


def figures(rounds: list[Round], scaled: bool) -> dict[str, float]:
    """The end-to-end metrics but ``peak_rss_mb``, with every time divided
    by its round's slowdown if ``scaled``."""
    def slow(r: Round) -> float:
        return r.slowdown if scaled else 1.0

    outcomes = [o for r in rounds for o in r.outcomes]
    decided = sum(o.verdicts is not None for o in outcomes)
    spent = sum(r.spent / slow(r) for r in rounds)
    # An undecided instance misses every latency limit: charge it the limit.
    latencies = [
        1000 * (o.seconds / slow(r) if o.verdicts is not None else INSTANCE_LIMIT_S)
        for r in rounds for o in r.outcomes
    ]
    # Mean over families of the median call within the family: one median
    # over all calls would fall between the families' clusters.
    cli = {
        family: 1000 * statistics.median(r.calls[family] / slow(r) for r in rounds)
        for family in rounds[0].calls
    }
    return {
        "verdicts_per_s": decided / spent if spent > 0 else 0.0,
        "verdict_p50_ms": statistics.median(latencies),
        "verdict_p90_ms": p90(latencies),
        "decided_ratio": decided / len(outcomes),
        "cli_call_ms": statistics.mean(cli.values()),
        "setup_s": statistics.median(r.setup / slow(r) for r in rounds if r.setup is not None),
        **{f"cli_call_ms.{family}": ms for family, ms in cli.items()},
    }


def end_to_end_run(workload, seed, seconds, work) -> Report:
    """Rounds of set-up, timed loop and CLI calls, so that each figure
    samples the whole run rather than one stretch of it."""
    rounds: list[Round] = []
    identical, cli_codes, calibration = True, [], []
    sample = workloads.cli_sample(workload, seed, workloads.POOL[workload], ROUNDS)
    for r in range(ROUNDS):
        calibration.append(calibration_ms())
        setup = None
        if r % SETUP_EVERY == 0:
            setup, out = run_setup(workload, seed, work)
            # Compare digests: holding several copies of the pool text
            # would add tens of MB to the peak RSS, more or less at random.
            digest = hashlib.sha256(out.read_bytes()).digest()
            if r == 0:
                first_digest, pool = digest, json.loads(out.read_bytes())
            identical = identical and digest == first_digest
        slices: list[float] = []
        first = sum(len(done.outcomes) for done in rounds)
        segment, spent = run_loop(pool, NullTracer(), seconds=seconds / ROUNDS,
                                  first=first, slices=slices)
        calls = {}
        for family, indices in sample.items():
            calls[family], code = cli_call(pool, indices[r], work)
            cli_codes.append((indices[r], code))
        rounds.append(Round(segment, spent, slices, setup, calls))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "calibration_ms_by_round": calibration,
        "slowdown_by_round": [round(r.slowdown, 3) for r in rounds],
        "raw_setup_s_by_round": [round(r.setup, 4) for r in rounds if r.setup is not None],
        "raw_verdicts_per_s_by_round": [
            round(sum(o.verdicts is not None for o in r.outcomes) / r.spent, 3)
            for r in rounds
        ],
    }))
    outcomes = [o for r in rounds for o in r.outcomes]
    if len(outcomes) < 100:
        print(f"only {len(outcomes)} verdicts: fewer than 10 lie beyond the p90")
    report_errors(outcomes)
    if not identical:
        print("set-up is not deterministic: builds for one seed differ")
    expected, wrong = check_verdicts(pool, outcomes)
    cli_ok = True
    for index, code in cli_codes:
        verdict = expected[index] if index in expected else workloads.reference(pool[index])
        if code != (0 if verdict else 1):
            print(f"cli exit {code} disagrees with the verdict on instance {index}")
            cli_ok = False
    scaled, raw = figures(rounds, scaled=True), figures(rounds, scaled=False)
    metrics = {name: scaled[name] for name in END_TO_END if name != "peak_rss_mb"}
    metrics["peak_rss_mb"] = peak_rss_mb
    decided = sum(o.verdicts is not None for o in outcomes)
    notes = {
        "verdict_samples": (len(outcomes), "count"),
        "wrong_verdicts": (wrong, "count"),
        "slowdown": (statistics.median(r.slowdown for r in rounds), "ratio"),
    }
    for name, value in scaled.items():
        if name not in END_TO_END:
            notes[name] = (value, "ms")
    for name, value in raw.items():
        notes[f"raw.{name}"] = (value, END_TO_END.get(name, "ms"))
    return Report(
        # With no verdict at all there is nothing the references checked.
        correct=decided > 0 and wrong == 0 and identical and cli_ok,
        attempted=len(outcomes),
        failed=len(outcomes) - decided + wrong,
        metrics=metrics,
        units=END_TO_END,
        notes=notes,
    )


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(pool, setup_tr, loop_tr, outcomes) -> dict[str, float]:
    """Per-layer figures; a layer that no instance of the workload reaches
    reads 0."""
    by_n = {o.n: o for o in outcomes}
    tracers = {"setup": setup_tr, "loop": loop_tr}
    tables = {phase: tracer.self_ms_by_name() for phase, tracer in tracers.items()}

    def family(phase, instance) -> str:
        # Set-up spans carry the pool index, loop spans the verdict number.
        return pool[instance if phase == "setup" else by_n[instance].index]["family"]

    def verdict(n) -> bool | None:
        verdicts = by_n[n].verdicts
        return verdicts[0] if verdicts else None

    def per_instance(phase, names, families, sat=None) -> dict[int, float]:
        sums: dict[int, float] = defaultdict(float)
        for name in names:
            for instance, ms in tables[phase].get(name, ()):
                if families is not None and family(phase, instance) not in families:
                    continue
                if sat is not None and verdict(instance) is not sat:
                    continue
                sums[instance] += ms
        return sums

    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, (phase, names, families) in SPAN_METRICS.items():
        metrics[metric] = _median_or_zero(per_instance(phase, names, families).values())
    for label, sat in (("sat", True), ("unsat", False)):
        sums = per_instance("loop", ("eval_team_ltl.check_team",), TPC, sat)
        metrics[f"eval_team_ltl.check_ms.{label}"] = _median_or_zero(sums.values())
    checks = per_instance("loop", ("tmc_splitfree.check_model_splitfree",), None)
    flattens = per_instance("loop", ("tmc_splitfree.flatten",), None)
    metrics["eval_classical.residual_ms"] = _median_or_zero(
        checks[n] - flattens[n] for n in checks.keys() & flattens.keys()
    )
    for metric, (name, families) in COUNT_METRICS.items():
        metrics[metric] = float(_median_or_zero(
            value
            for phase, tracer in tracers.items()
            for count_name, value, instance in tracer.counts
            if count_name == name
            and (families is None or family(phase, instance) in families)
        ))
    return metrics


def tracing_overhead(pool, outcomes) -> tuple[float, float]:
    """Traced and untraced throughput on the first half of the traced
    run's decided instances.  Each is decided both ways back to back, in
    alternating order, so both sides see the same machine state."""
    again = [o for o in outcomes if o.verdicts is not None][: len(outcomes) // 2 or 1]
    if not again:
        return 0.0, 0.0
    spent = {True: 0.0, False: 0.0}
    for k, o in enumerate(again):
        for traced in ((True, False) if k % 2 else (False, True)):
            tracer = Tracer() if traced else NullTracer()
            start = time.process_time()
            with tracer.span("perfbench.verdict", o.n):
                workloads.decide(pool[o.index], tracer, o.n)
            spent[traced] += time.process_time() - start
    return len(again) / spent[True], len(again) / spent[False]


def traced_run(workload, seed, seconds, work) -> Report:
    setup_tr, loop_tr = Tracer(), Tracer()
    pool = workloads.build(workload, seed, workloads.POOL[workload], setup_tr)
    outcomes, _ = run_loop(pool, loop_tr, seconds=seconds / 2)
    report_errors(outcomes)
    _, wrong = check_verdicts(pool, outcomes)
    traced_vps, untraced_vps = tracing_overhead(pool, outcomes)
    metrics = layer_metrics(pool, setup_tr, loop_tr, outcomes)
    metrics["perfbench.traced_verdicts_per_s"] = traced_vps
    metrics["perfbench.tracing_overhead_verdicts_per_s"] = untraced_vps - traced_vps
    metrics["cli.interp_ms"] = median_call_ms([sys.executable, "-c", "pass"])
    metrics["cli.import_ms"] = median_call_ms([sys.executable, "-c", "import teamtl.cli"])
    header = {"workload": workload, "seed": seed, "metrics": metrics}
    trace_file = OUT / f"trace-{workload}-seed{seed}"
    setup_tr.write(trace_file.with_suffix(".setup.json"), header)
    loop_tr.write(trace_file.with_suffix(".loop.json"), header)
    decided = sum(o.verdicts is not None for o in outcomes)
    return Report(
        correct=wrong == 0,
        attempted=len(outcomes),
        failed=len(outcomes) - decided + wrong,
        metrics=metrics,
        units=PER_LAYER,
        notes={"verdict_samples": (len(outcomes), "count"),
               "wrong_verdicts": (wrong, "count"),
               "untraced_verdicts_per_s": (untraced_vps, "1/s")},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    print(json.dumps({"env": environment()}))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else end_to_end_run
        report = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(report.lines()))
    print(report.result())
    return 0


if __name__ == "__main__":
    sys.exit(main())
