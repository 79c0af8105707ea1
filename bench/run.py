"""gsbraid benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 10 --trace 0

``--workload all`` (the default) runs verify, nf_random and nf_long in turn,
each in its own child process, so that each row's memory is its own.
With ``--trace 0`` the run measures the end-to-end metrics with no spans
recorded; with ``--trace 1`` it records spans around the public calls into
each layer and reports the per-layer metrics, writing the spans to
``bench/out/``.  One row per workload lists every metric with its unit;
the last line of standard output is a JSON result.  Outputs are checked
outside the timed region, and the exit code is 1 when a check fails and 2
when the gsbraid sources are missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("verify", "nf_random", "nf_long")

# (name, unit); BENCHMARK.json lists the same metrics.  A gated end-to-end
# metric must exist on every workload, never be 0 and stay steady across
# seeds: nf_random's whole-set time and tail latency follow the few slow
# words a seed draws, and failed_frac is usually 0, so those are printed
# in each row but not gated.
END_TO_END = (
    ("setup_s", "s"),
    ("op_gm_rel", "ratio"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("braid.artin_markov_s", "s"),
    ("braid.artin_to_s_us", "us"),
    ("orders.compare_ids_us", "us"),
    ("gsb.pairs", "count"),
    ("gsb.ambiguities", "count"),
    ("gsb.useful_ratio", "ratio"),
    ("gsb.enumerate_s", "s"),
    ("gsb.check_s", "s"),
    ("gsb.check_us_per_ambiguity", "us"),
    ("gsb.check_steps", "count"),
    ("gsb.span_frac", "ratio"),
    ("freealg.composition_s", "s"),
    ("reduction.rightmost.steps", "count"),
    ("reduction.rightmost.nf_letters", "count"),
    ("reduction.rightmost.word_nf_s", "s"),
    ("reduction.rightmost.us_per_step", "us"),
    ("reduction.leftmost.steps", "count"),
    ("reduction.leftmost.nf_letters", "count"),
    ("reduction.leftmost.word_nf_s", "s"),
    ("reduction.leftmost.us_per_step", "us"),
    ("reduction.counted_ops", "count"),
    ("cli.overhead_s", "s"),
    ("oracles.burau_ms", "ms"),
    ("oracles.perm_us", "us"),
    ("proc.cpu_s", "s"),
    ("proc.wait_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _run(workload: str, seed: int, seconds: float, trace: bool):
    import workloads as wl
    if workload == "verify":
        return wl.verify_traced(seed) if trace else wl.verify_end_to_end(seed, seconds)
    return wl.nf_traced(workload, seed) if trace else wl.nf_end_to_end(workload, seed, seconds)


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.4g}"


def _row(workload: str, result, names) -> str:
    """One line: every metric by name and unit; '-' marks a layer the workload does not call."""
    cells = [f"{name}={_fmt(result.metrics[name]) if name in result.metrics else '-'} {unit}"
             for name, unit in names]
    cells += [f"{name}={_fmt(v)} {unit}" for name, (v, unit) in result.extra.items()]
    cells += [f"attempted={result.attempted} count", f"failed={result.failed} count"]
    return f"{workload:<10} " + "  ".join(cells)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="minimum timed seconds of an untraced run; a traced run does fixed work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gsbraid" / "__init__.py").is_file():
        print(f"error: gsbraid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return _run_all(args)
    names = PER_LAYER if args.trace else END_TO_END
    r = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_row(args.workload, r, names), flush=True)
    for p in r.problems:
        print(f"CHECK FAILED [{args.workload}] {p}", file=sys.stderr)
    if r.spans is not None:
        r.spans.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    # A layer the workload does not call did no work: 0.
    line = {"correct": not r.problems, "attempted": r.attempted, "failed": r.failed,
            "metrics": {name: {"value": r.metrics.get(name, 0), "unit": unit}
                        for name, unit in names}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _run_all(args) -> int:
    """Each workload in a child process; the result line merges theirs,
    with each metric named ``<workload>.<metric>``."""
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           stdout=subprocess.PIPE, text=True)
        rows = r.stdout.strip().splitlines()
        if r.returncode not in (0, 1) or not rows or not rows[-1].startswith("{"):
            print(f"error: workload {w} exited {r.returncode}", file=sys.stderr)
            return r.returncode or 2
        print("\n".join(rows[:-1]), flush=True)
        child = json.loads(rows[-1])
        line["correct"] &= child["correct"]
        line["attempted"] += child["attempted"]
        line["failed"] += child["failed"]
        line["metrics"].update({f"{w}.{k}": v for k, v in child["metrics"].items()})
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
