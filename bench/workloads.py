"""The three benchmark workloads, their inputs, and how each is measured.

All workloads are closed loops with one caller: an operation starts when
the previous one ends.

* ``verify``: the user command ``gsbraid verify-gsb --n 6 --json --jobs 1``
  as a subprocess; one operation is one verdict.  Input is fixed by n = 6.
* ``nf_random``: ``braid_nf`` with the library default schedule on
  ``WORDS_PER_CELL`` seeded random Artin words in each cell of
  ``NF_RANDOM_CELLS``; one operation is one word.
* ``nf_long``: three power words whose normal forms are long, each under
  both schedules.  The words are fixed, so the seed does not change them.
  The rightmost schedule exhausts the default fuel on the k = 10 word; that
  operation is counted as failed, not dropped.

An untraced run (``*_end_to_end``) times at least one whole pass over the
input and keeps going until ``seconds`` have passed; an operation's
latency is the median over its repeats.  A traced run (``*_traced``)
records spans around the public calls into each layer and returns
per-layer numbers.  Set-up is always timed in fresh interpreters, because
``artin_markov`` is cached per process.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from gsbraid import (DEFAULT_FUEL, FuelExhausted, Word, artin_markov, artin_to_s,
                     braid_nf, braid_scheme, check_trivial, composition,
                     enumerate_ambiguities, verify_gsb)
from gsbraid.orders import compare_ids

from checks import VERIFY_EXPECTED, OracleCheck, check_verify_report
from stats import geometric_mean, median, tail_percentile
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NF_RANDOM_CELLS = ((4, 30), (5, 40), (6, 30))  # (strands, crossings)
WORDS_PER_CELL = 74
NF_LONG_WORDS = (
    (3, (1, -2) * 64),          # B3 (s1 s2^-1)^64: 87-letter normal form
    (4, (2, -1, -3, 2) * 8),    # B4 (s2 s1^-1 s3^-1 s2)^8: 824 letters
    (4, (2, -1, -3, 2) * 10),   # the same at k = 10: 4,766 letters
)
SCHEDULES = ("leftmost", "rightmost")
DEFAULT_SCHEDULE = "rightmost"  # braid_nf's default
VERIFY_N = 6
CLI_OVERHEAD_N = 2       # verification takes milliseconds here, so the CLI's own cost shows

SETUP_REPEATS = 9        # fresh interpreters per untraced run; setup_s is their median
TRACED_SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 170
# Tracing overhead: the shortest operations, up to OVERHEAD_OPS of them and
# OVERHEAD_BUDGET_S of work, run OVERHEAD_REPEATS times each untraced and
# traced, alternately.
OVERHEAD_OPS = 24
OVERHEAD_BUDGET_S = 10.0
OVERHEAD_REPEATS = 3
REDRIVE_REPEATS = 2      # untraced and traced re-drives of the verify loop, alternately
CLI_REPEATS = 2          # verify-gsb runs at VERIFY_N in a traced run
CLI_OVERHEAD_REPEATS = 5
# Steps are counted on a fixed subset: the first operations of the input set
# (on nf_random, the first rounds of the seeded words).  An operation counts
# its steps up to a cap, as a failed one counts the fuel it used, so that
# counting costs little on words with a heavy tail.
# (operations counted, fuel cap) per workload.
STEP_COUNT = {"nf_random": (30, 10_000), "nf_long": (6, DEFAULT_FUEL)}
CALIBRATION_ITERS = 100_000  # about 10 ms per loop
CALIBRATION_S = 0.1
CALIBRATE_EVERY_S = 1.0
COMPARE_PAIRS = 2000
COMPARE_REPEATS = 5

NfInput = tuple[int, tuple[int, ...], str]  # (n, Artin word, schedule)


@dataclass
class Result:
    """What one workload run measured.  ``metrics`` go into the JSON result
    line; ``extra`` numbers are printed but not gated."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    spans: Optional[Tracer] = None


@dataclass
class NfOp:
    n: int
    word: tuple[int, ...]
    strategy: str
    seconds: float
    nf: Optional[Word]  # None when the fuel ran out
    fuel_used: int = 0


# ---------------------------------------------------------------- inputs

def random_words(seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """The nf_random word set: WORDS_PER_CELL rounds, one word per cell each."""
    rng = random.Random(seed)
    gens = {n: [s * k for k in range(1, n) for s in (1, -1)] for n, _ in NF_RANDOM_CELLS}
    return [(n, tuple(rng.choice(gens[n]) for _ in range(crossings)))
            for _ in range(WORDS_PER_CELL) for n, crossings in NF_RANDOM_CELLS]


def nf_inputs(workload: str, seed: int) -> list[NfInput]:
    if workload == "nf_random":
        return [(n, w, DEFAULT_SCHEDULE) for n, w in random_words(seed)]
    if workload == "nf_long":
        return [(n, w, st) for n, w in NF_LONG_WORDS for st in SCHEDULES]
    raise ValueError(f"not a braid_nf workload: {workload!r}")


# ---------------------------------------------------------------- shared pieces

def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


_SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import gsbraid
t1 = time.perf_counter()
presentations = [gsbraid.artin_markov(n) for n in json.loads(sys.argv[1])]
t2 = time.perf_counter()
if sys.argv[2] == "verify":
    for S in presentations:
        gsbraid.verify_gsb(S, jobs=1)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "verify_s": t3 - t2}))
"""


def measure_setup(ns: list[int], repeats: int, verify: bool = False) -> list[dict[str, float]]:
    """Import gsbraid and build artin_markov(n) for each n, in fresh interpreters;
    with ``verify``, then also run verify_gsb on each."""
    out = []
    for _ in range(repeats):
        r = subprocess.run([sys.executable, "-c", _SETUP_CODE, json.dumps(ns),
                            "verify" if verify else "build"], env=_env(),
                           cwd=ROOT, capture_output=True, text=True, check=True,
                           timeout=SUBPROCESS_TIMEOUT_S)
        out.append(json.loads(r.stdout))
    return out


def _setup_s(setups: list[dict[str, float]]) -> float:
    return median([s["import_s"] + s["build_s"] for s in setups])


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _warm(ns: list[int]) -> None:
    """Build each presentation and its lazily built rewriting engine."""
    for n in ns:
        braid_nf((1,), n)


def compare_ids_us(tracer: Tracer, seed: int) -> float:
    """Median cost of one compare_ids call on seeded word pairs, B4 tower order."""
    sch = braid_scheme(4)
    rng = random.Random(seed)
    size = len(sch.alphabet)

    def word() -> tuple[int, ...]:
        return tuple(rng.randrange(size) for _ in range(rng.randint(2, 12)))

    pairs = [(word(), word()) for _ in range(COMPARE_PAIRS)]
    per_call = []
    for _ in range(COMPARE_REPEATS):
        with tracer.span("orders.compare_ids") as s:
            for u, v in pairs:
                compare_ids(sch.order, u, v)
        s.counts["calls"] = len(pairs)
        per_call.append(s.seconds / len(pairs))
    return median(per_call) * 1e6


# ---------------------------------------------------------------- braid_nf workloads

def run_nf_op(n: int, word: tuple[int, ...], strategy: str, fuel: int = DEFAULT_FUEL) -> NfOp:
    t0 = time.perf_counter()
    try:
        nf = braid_nf(word, n, fuel=fuel, strategy=strategy)
    except FuelExhausted as e:
        return NfOp(n, word, strategy, time.perf_counter() - t0, None, e.fuel_used)
    return NfOp(n, word, strategy, time.perf_counter() - t0, nf)


def check_nf_ops(ops: list[NfOp], oracle: OracleCheck) -> list[str]:
    """Oracle check of every distinct output; repeats and schedules must agree."""
    problems: list[str] = []
    by_run: dict[NfInput, tuple[int, ...]] = {}
    by_word: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    for op in ops:
        if op.nf is None:
            continue
        oracle.check(op.n, op.word, op.nf)
        got = op.nf.letters
        if by_run.setdefault((op.n, op.word, op.strategy), got) != got:
            problems.append(f"B{op.n} word {op.word}: {op.strategy} gave two different results")
        if by_word.setdefault((op.n, op.word), got) != got:
            problems.append(f"B{op.n} word {op.word}: the schedules disagree")
    return problems + oracle.problems


def calibration_s() -> float:
    """Mean time of a fixed pure-Python loop over CALIBRATION_S: how fast the
    host runs this interpreter right now.  It does not call gsbraid."""
    times = []
    end = time.perf_counter() + CALIBRATION_S
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        s = 0
        for i in range(CALIBRATION_ITERS):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return sum(times) / len(times)


def run_passes(run_op, inputs: list, seconds: float) -> tuple[list, list[float]]:
    """Run the inputs pass after pass, one operation at a time.  After the
    first full pass no operation starts once ``seconds`` have passed.
    Between operations, at most every CALIBRATE_EVERY_S and once at the end,
    the host is timed with ``calibration_s``.  Returns (input, result) in run
    order and the calibration times."""
    out: list = []
    cal = [calibration_s()]
    start = last = time.perf_counter()
    while True:
        for x in inputs:
            now = time.perf_counter()
            if len(out) >= len(inputs) and now - start >= seconds:
                cal.append(calibration_s())
                return out, cal
            if now - last >= CALIBRATE_EVERY_S:
                cal.append(calibration_s())
                last = time.perf_counter()
            out.append((x, run_op(x)))


def latency_metrics(runs: list, cal: list[float], seconds_of,
                    pass_len: int) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
    """Per distinct operation, the median over its repeats; then over
    operations the geometric mean, the median and the tail percentile.  The
    gated op_gm_rel is the geometric mean in units of the run's mean
    calibration time, so that it moves less when a shared host slows down for
    minutes.  wall_s, the time for the whole input set, is the sum over the
    first pass."""
    per_op: dict = {}
    for x, r in runs:
        per_op.setdefault(x, []).append(seconds_of(r))
    lat = [median(v) for v in per_op.values()]
    gm = geometric_mean(lat)
    extra = {"op_gm_ms": (gm * 1e3, "ms"),
             "op_p50_ms": (median(lat) * 1e3, "ms"),
             "distinct_ops": (len(lat), "count"),
             "ops": (len(runs), "count"),
             "wall_s": (sum(seconds_of(r) for _, r in runs[:pass_len]), "s"),
             "ops_per_s": (len(runs) / sum(seconds_of(r) for _, r in runs), "1/s"),
             "calibration_ms": (sum(cal) / len(cal) * 1e3, "ms")}
    tail = tail_percentile(lat)
    if tail is not None:
        extra[f"op_p{tail[0]:g}_ms"] = (tail[1] * 1e3, "ms")
    return {"op_gm_rel": gm / (sum(cal) / len(cal))}, extra


def nf_end_to_end(workload: str, seed: int, seconds: float, fuel: int = DEFAULT_FUEL) -> Result:
    inputs = nf_inputs(workload, seed)
    ns = sorted({n for n, _, _ in inputs})
    setups = measure_setup(ns, SETUP_REPEATS)
    _warm(ns)
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    runs, cal = run_passes(lambda x: run_nf_op(*x, fuel), inputs, seconds)
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = [op for _, op in runs]
    problems = check_nf_ops(ops, OracleCheck())
    metrics, extra = latency_metrics(runs, cal, lambda op: op.seconds, len(inputs))
    failed = sum(op.nf is None for op in ops)
    extra.update({
        "failed_frac": (failed / len(ops), "ratio"),
        "cpu_s": (cpu, "s"),
        "timed_s": (wall, "s"),
    })
    metrics.update({"setup_s": _setup_s(setups), "peak_rss_mb": rss_mb})
    return Result(metrics=metrics, attempted=len(ops), failed=failed, problems=problems, extra=extra)


def count_steps(n: int, word: tuple[int, ...], strategy: str, fuel: int = DEFAULT_FUEL) -> int:
    """Rewrite steps braid_nf takes: the least fuel at which it does not raise
    FuelExhausted, found by galloping up from 1 and then bisecting.
    braid_nf must finish within ``fuel``."""

    def finishes(f: int) -> bool:
        try:
            braid_nf(word, n, fuel=f, strategy=strategy)
        except FuelExhausted:
            return False
        return True

    if finishes(0):
        return 0
    lo, hi = 0, 1
    while not finishes(hi):
        if hi >= fuel:
            raise ValueError(f"braid_nf does not finish within fuel {fuel}")
        lo, hi = hi, min(2 * hi, fuel)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if finishes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def count_capped(op: NfOp, cap: int) -> NfOp:
    """``op`` with ``fuel_used`` set to its rewrite steps, counted up to ``cap``.
    Over the cap it is the run that stopped at the cap, so that its steps and
    seconds cover the same work; a failed ``op`` is returned as it is."""
    if cap < DEFAULT_FUEL:
        capped = run_nf_op(op.n, op.word, op.strategy, cap)
        if capped.nf is None:
            return capped
    if op.nf is None:
        return op
    return replace(op, fuel_used=count_steps(op.n, op.word, op.strategy, cap))


def _traced_nf_op(tracer: Tracer, i: int, n: int, word: tuple[int, ...], strategy: str) -> NfOp:
    with tracer.span("bench.op", op=i):
        with tracer.span("braid.artin_to_s"):
            artin_to_s(word, braid_scheme(n))
        with tracer.span("braid.braid_nf") as s:
            try:
                nf, used = braid_nf(word, n, strategy=strategy), 0
            except FuelExhausted as e:
                nf, used = None, e.fuel_used
        s.counts["strategy"] = strategy
    return NfOp(n, word, strategy, s.seconds, nf, used)


def tracing_overhead(ops: list[NfOp]) -> float:
    """Median over ops of (traced time / untraced time) - 1, each time the
    median of OVERHEAD_REPEATS runs made alternately."""
    scratch = Tracer()
    ratios = []
    for op in ops:
        untraced, traced = [], []
        for _ in range(OVERHEAD_REPEATS):
            t0 = time.perf_counter()
            run_nf_op(op.n, op.word, op.strategy)
            t1 = time.perf_counter()
            _traced_nf_op(scratch, -1, op.n, op.word, op.strategy)
            t2 = time.perf_counter()
            untraced.append(t1 - t0)
            traced.append(t2 - t1)
        ratios.append(median(traced) / median(untraced))
    return median(ratios) - 1


def nf_traced(workload: str, seed: int) -> Result:
    inputs = nf_inputs(workload, seed)
    ns = sorted({n for n, _, _ in inputs})
    setups = measure_setup(ns, TRACED_SETUP_REPEATS)
    _warm(ns)
    tracer = Tracer()
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    ops = [_traced_nf_op(tracer, i, n, w, st) for i, (n, w, st) in enumerate(inputs)]
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0

    shortest, cost = [], 0.0
    for op in sorted(ops, key=lambda op: op.seconds)[:OVERHEAD_OPS]:
        cost += 2 * OVERHEAD_REPEATS * op.seconds
        if op.nf is None or cost > OVERHEAD_BUDGET_S:
            break
        shortest.append(op)
    overhead = tracing_overhead(shortest) if shortest else 0.0

    n_counted, cap = STEP_COUNT[workload]
    counted: list[NfOp] = []
    for i, op in enumerate(ops[:n_counted]):
        with tracer.span("bench.count_steps", op=i) as span:
            counted.append(count_capped(op, cap))
        span.counts["steps"] = counted[-1].fuel_used

    oracle = OracleCheck()
    problems = check_nf_ops(ops, oracle)
    layers = {
        "braid.artin_markov_s": median([s["build_s"] for s in setups]),
        "braid.artin_to_s_us": median([s.seconds for s in tracer.named("braid.artin_to_s")]) * 1e6,
        "orders.compare_ids_us": compare_ids_us(tracer, seed),
        "oracles.burau_ms": median(oracle.burau_s) * 1e3,
        "oracles.perm_us": median(oracle.perm_s) * 1e6,
        "proc.cpu_s": cpu,
        "proc.wait_s": wall - cpu,
        "trace.overhead_frac": overhead,
        "reduction.counted_ops": len(counted),
    }
    for st in sorted({op.strategy for op in ops}):
        mine = [op for op in counted if op.strategy == st]
        n_steps = sum(op.fuel_used for op in mine)
        nf_s = sum(op.seconds for op in mine)
        layers[f"reduction.{st}.steps"] = n_steps
        layers[f"reduction.{st}.nf_letters"] = sum(len(op.nf) for op in mine if op.nf is not None)
        layers[f"reduction.{st}.word_nf_s"] = nf_s
        layers[f"reduction.{st}.us_per_step"] = nf_s / n_steps * 1e6 if n_steps else 0.0
    failed = sum(op.nf is None for op in ops)
    return Result(metrics=layers, attempted=len(ops), failed=failed, problems=problems,
                  extra={"traced_s": (wall, "s")},
                  spans=tracer)


# ---------------------------------------------------------------- verify workload

@dataclass
class CliRun:
    seconds: float
    problems: list[str]


def run_verify_cli(n: int = VERIFY_N) -> CliRun:
    """``gsbraid verify-gsb --n <n> --json --jobs 1``; checked against the known answer at VERIFY_N."""
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "gsbraid", "verify-gsb", "--n", str(n), "--json",
                        "--jobs", "1"], env=_env(), cwd=ROOT,
                       capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if r.returncode != 0:
        return CliRun(dt, [f"verify-gsb exited {r.returncode}: {r.stderr.strip()[-200:]}"])
    try:
        report = json.loads(r.stdout)
    except json.JSONDecodeError:
        return CliRun(dt, ["verify-gsb printed no JSON report"])
    return CliRun(dt, check_verify_report(report) if n == VERIFY_N else [])


def verify_end_to_end(seed: int, seconds: float) -> Result:
    setups = measure_setup([VERIFY_N], SETUP_REPEATS)
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    runs, cal = run_passes(lambda _: run_verify_cli(), [VERIFY_N], seconds)
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics, extra = latency_metrics(runs, cal, lambda r: r.seconds, 1)
    failed = sum(bool(r.problems) for _, r in runs)
    extra.update({"failed_frac": (failed / len(runs), "ratio"),
                  "cpu_s": (cpu, "s"), "timed_s": (wall, "s")})
    metrics.update({"setup_s": _setup_s(setups), "peak_rss_mb": rss_mb})
    return Result(metrics=metrics, attempted=len(runs), failed=failed,
                  problems=[p for _, r in runs for p in r.problems], extra=extra)


def redrive_verify(S, tracer: Optional[Tracer]) -> tuple[int, int, int, int]:
    """The verify_gsb loop from public calls: enumerate_ambiguities on every
    ordered pair, then composition and check_trivial on every ambiguity.
    Returns (pairs, ambiguities, nontrivial, rewrite steps)."""

    def span(name: str, op: Optional[int] = None):
        return tracer.span(name, op) if tracer is not None else nullcontext()

    m = len(S.relations)
    leads = [S.lead(i) for i in range(m)]
    ambs = []
    with span("gsb.enumerate_ambiguities"):
        for i in range(m):
            for j in range(m):
                ambs.extend(enumerate_ambiguities(leads[i], leads[j], i, j))
    nontrivial = steps = 0
    for k, amb in enumerate(ambs):
        f, g = S.relations[amb.left_rel], S.relations[amb.right_rel]
        with span("freealg.composition", k):
            composition(f, g, amb, S.order)
        with span("gsb.check_trivial", k):
            ok, trace = check_trivial(f, g, amb, S)
        nontrivial += not ok
        steps += trace.fuel_used
    return m * m, len(ambs), nontrivial, steps


def verify_traced(seed: int) -> Result:
    setups = measure_setup([VERIFY_N], TRACED_SETUP_REPEATS)
    S = artin_markov(VERIFY_N)
    tracer = Tracer()
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    clis = [run_verify_cli() for _ in range(CLI_REPEATS)]
    cli_s = median([c.seconds for c in clis])
    problems = [p for c in clis for p in c.problems]

    untraced, traced = [], []
    for _ in range(REDRIVE_REPEATS):
        t0 = time.perf_counter()
        redrive_verify(S, None)
        t1 = time.perf_counter()
        pairs, ambs, nontrivial, steps = redrive_verify(S, tracer)
        untraced.append(t1 - t0)
        traced.append(time.perf_counter() - t1)
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    expected = (VERIFY_EXPECTED["pairs_checked"], VERIFY_EXPECTED["ambiguities_checked"])
    if (pairs, ambs) != expected or nontrivial:
        problems.append(f"re-driven loop: {pairs} pairs, {ambs} ambiguities, {nontrivial} nontrivial")

    # The CLI's own cost: its wall time minus import, build and verify_gsb
    # timed inside a fresh interpreter, on a system small enough that host
    # noise on the verification does not swamp it.
    small = [run_verify_cli(CLI_OVERHEAD_N).seconds for _ in range(CLI_OVERHEAD_REPEATS)]
    inside = [sum(x.values()) for x in measure_setup([CLI_OVERHEAD_N], CLI_OVERHEAD_REPEATS, True)]

    # Span totals per re-drive.
    enumerate_s = tracer.total("gsb.enumerate_ambiguities") / REDRIVE_REPEATS
    check_s = tracer.total("gsb.check_trivial") / REDRIVE_REPEATS
    composition_s = tracer.total("freealg.composition") / REDRIVE_REPEATS
    layers = {
        "braid.artin_markov_s": median([s["build_s"] for s in setups]),
        "orders.compare_ids_us": compare_ids_us(tracer, seed),
        "gsb.pairs": pairs,
        "gsb.ambiguities": ambs,
        "gsb.useful_ratio": ambs / pairs,
        "gsb.enumerate_s": enumerate_s,
        "gsb.check_s": check_s,
        "gsb.check_us_per_ambiguity": check_s / ambs * 1e6,
        "gsb.check_steps": steps,
        "freealg.composition_s": composition_s,
        "gsb.span_frac": (enumerate_s + check_s + composition_s) / cli_s,
        "cli.overhead_s": median(small) - median(inside),
        "proc.cpu_s": cpu,
        "proc.wait_s": wall - cpu,
        "trace.overhead_frac": median(traced) / median(untraced) - 1,
    }
    return Result(metrics=layers, attempted=len(clis), failed=sum(bool(c.problems) for c in clis),
                  problems=problems,
                  extra={"cli_wall_s": (cli_s, "s"), "redrive_s": (median(untraced), "s"),
                         "traced_s": (wall, "s")},
                  spans=tracer)
