"""Benchmark of the Bouligand-Landweber package, run from the root of a checkout.

    python3 perfbench/run.py --workload {table257,zero129,refine} --seed N \\
        --seconds S --trace {0,1}

Untraced (--trace 0): time cold set-ups in fresh interpreters (at least
SETUP_PROBES, more while SETUP_SECONDS have not passed), set up and warm up
once in this process, then repeat the workload until S seconds have passed
and at least MIN_REPEATS repeats are done, and print the end-to-end
metrics.  Only the counters behind them are wrapped (Newton
solves and preconditioner applications).

Traced (--trace 1): after the warm-up, untraced and traced repeats
alternate for S seconds.  The untraced ones give the reference wall time
and Newton count; the traced ones give the per-layer metrics.  A hook that no longer
exists, or that recorded no call where the workload must pass through it,
fails the run with the hook's name.

Either way the last line of standard output is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
machine record and the failed operations.  The full record (and in traced
runs every span) is written under perfbench/out/.  The end-to-end times are
those of the fastest repeat (see `fastest`), per-layer times and set-up
times are medians; counters must repeat exactly, which is the regression
gate.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import workloads  # first: exits unless the checkout's package source is present

import machine  # noqa: E402  (after workloads, which puts src/ on the path)
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 3
SETUP_SECONDS = 3.0  # cheap set-ups get more probes, up to SETUP_PROBES_MAX
SETUP_PROBES_MAX = 9
MIN_REPEATS = 3  # untraced: the fastest of fewer is too often a slow one
PROBE_TIMEOUT_S = 150


@dataclass
class Rep:
    result: workloads.RepResult
    wall: float
    cpu: float
    counts: Counter
    lo: int  # this repeat's spans are tracer.spans[lo:hi]
    hi: int


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # all threads, BLAS spin included
    return usage.ru_utime + usage.ru_stime


def measure(workload, tracer: spans.Tracer, seconds: float, min_reps: int = 1) -> list[Rep]:
    """Repeat the workload until `seconds` have passed and `min_reps` repeats are done."""
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        tracer.counts.clear()
        lo = len(tracer.spans)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        with tracer.span(spans.ROOT):
            result = workload.rep(tracer)
        wall = time.perf_counter() - t0
        reps.append(Rep(result, wall, _cpu_s() - cpu0, Counter(tracer.counts), lo, len(tracer.spans)))
    return reps


def fastest(reps: list[Rep]) -> Rep:
    """The repeat with the least wall time.

    The repeats do the same work (the counter gate checks it), and on a
    shared host other tenants only ever add time to a repeat: they slow it
    by 10-100% for stretches of seconds to minutes.  A median over a run
    moves with the share of the run such stretches cover; the fastest
    repeat moves only when they cover all of it.
    """
    return min(reps, key=lambda r: r.wall)


def setup_times(workload) -> list[float]:
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_PROBES or (
        len(times) < SETUP_PROBES_MAX and time.perf_counter() - start < SETUP_SECONDS
    ):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(workload.seed)],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr[-4000:]}")
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return times


def _same(problems: list, what: str, values: list) -> None:
    if len(set(values)) > 1:
        problems.append(f"{what} differs across repeats: {values}")


def counter_gate(reps: list[Rep]) -> list[str]:
    """Counters of untraced repeats: equal across repeats and to the run records."""
    problems = []
    _same(problems, "ssn_solves", [r.counts[spans.NEWTON_SOLVE] for r in reps])
    _same(problems, "cg_iters", [r.counts[spans.PRECOND] for r in reps])
    _same(problems, "steps", [r.result.work for r in reps])
    for r in reps:
        if r.result.record_ssn not in (None, r.counts[spans.NEWTON_SOLVE]):
            problems.append(
                f"Newton solves counted {r.counts[spans.NEWTON_SOLVE]} "
                f"!= RunRecord.ssn_counts sum {r.result.record_ssn}"
            )
    return problems


def untraced(workload, seconds: float):
    setup = setup_times(workload)
    workload.set_up()
    with spans.Tracer(spans.COUNTING_HOOKS, spans=False) as tracer:
        reps = measure(workload, tracer, seconds, MIN_REPEATS)

    problems = counter_gate(reps)
    walls = [r.wall for r in reps]
    best = fastest(reps)
    ops = [op for r in reps for op in r.result.ops]
    metrics = {
        "wall_s": (best.wall, "s"),
        "cpu_s": (best.cpu, "s"),
        "setup_s": (median(setup), "s"),
        "steps_per_s": (best.result.work / best.wall, "1/s"),
        "ssn_solves": (reps[0].counts[spans.NEWTON_SOLVE], "count"),
        "cg_iters": (reps[0].counts[spans.PRECOND], "count"),
        "rel_error": (reps[-1].result.rel_error, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (sum(op.error is None for op in ops) / len(ops), "ratio"),
    }
    details = {"setup_samples_s": setup, "rep_wall_s": walls, "rep_cpu_s": [r.cpu for r in reps]}
    return reps, metrics, problems, details, None


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def traced(workload, seconds: float, gap_bound: float):
    workload.set_up()
    counter = spans.Tracer(spans.COUNTING_HOOKS, spans=False)
    tracer = spans.Tracer(spans.ALL_HOOKS, spans=True)
    plain, reps = [], []
    # Alternate untraced and traced repeats, swapping which goes first, so
    # drift in machine speed falls on both sides of the overhead alike.
    order = ((counter, plain), (tracer, reps))
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        for t, out in order:
            with t:
                out.extend(measure(workload, t, 0))
        order = order[::-1]
    silent = sorted(h for h in workload.required_hooks if any(r.counts[h] == 0 for r in reps))
    if silent:
        raise spans.HookMissing(f"{', '.join(silent)} recorded no calls")

    per_rep = [spans.layer_metrics(tracer.spans, r.lo, r.hi) for r in reps]
    problems = counter_gate(plain)
    for key in (
        "sparse_linalg.matvec_calls",
        "sparse_linalg.precond_applies",
        "sparse_linalg.solve_spd_calls",
        "landweber.steps",
    ):
        _same(problems, key, [m[key] for m in per_rep])
    reference = plain[0].result
    newton = plain[0].counts[spans.NEWTON_SOLVE]
    for m, r in zip(per_rep, reps):
        if r.counts[spans.NEWTON_SOLVE] != newton:
            problems.append(f"traced Newton solves {r.counts[spans.NEWTON_SOLVE]} != untraced {newton}")
        if reference.record_ssn is not None and m["landweber.steps"] != reference.work:
            problems.append(f"traced steps {m['landweber.steps']} != untraced {reference.work}")
        if m["trace.unattributed_frac"] > gap_bound:
            problems.append(
                f"spans cover only {1 - m['trace.unattributed_frac']:.3f} of the traced wall time"
            )
        if min(spans.self_times(tracer.spans, r.lo, r.hi)) < -1e-6:
            problems.append("a span's children cover more than the span: spans overlap")

    layer = spans.median_metrics(per_rep)
    untraced_wall = median(r.wall for r in plain)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced_wall
    ops = [op for r in reps for op in r.result.ops]
    layer["failed_frac"] = sum(op.error is not None for op in ops) / len(ops)
    metrics = {name: (value, _unit(name)) for name, value in layer.items()}
    details = {"untraced_wall_s": [r.wall for r in plain], "rep_wall_s": [r.wall for r in reps]}
    return reps, metrics, problems, details, tracer.spans


def _gap_bound() -> float:
    """The wall_s bound of BENCHMARK.json, which also bounds unattributed trace time."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # run() logs the violated step-size conditions once per run; keep errors only.
    logging.getLogger("bouligand_landweber").setLevel(logging.ERROR)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            reps, metrics, problems, details, span_list = traced(workload, args.seconds, _gap_bound())
        else:
            reps, metrics, problems, details, span_list = untraced(workload, args.seconds)
    except spans.HookMissing as exc:
        print(f"perfbench: wrapped hook missing: {exc}", file=sys.stderr)
        return 3

    ops = [op for r in reps for op in r.result.ops]
    failures = list(dict.fromkeys((op.label, op.error) for op in ops if op.error is not None))
    correct = (
        not problems
        and not any(op.check_failed for op in ops)
        and all(r.result.rel_error is not None for r in reps)
    )
    environment = machine.record(workloads.ROOT)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": len(reps),
        "environment": environment,
        "failures": [{"operation": label, "error": error} for label, error in failures],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **details,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if span_list is not None:
        fields = ["name", "parent", "op", "start", "end", "error"]
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"fields": fields, "spans": span_list}))

    print(json.dumps({k: record[k] for k in ("environment", "failures", "problems", "repeats")}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": sum(op.error is not None for op in ops),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
