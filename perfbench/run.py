"""arrspec benchmark: one seeded workload in one process and one thread.

Run from the repository root:

    python3 perfbench/run.py --workload lines-c2 --seed 1 --seconds 36 --trace 0

Workloads: lines-c2, planes-c3-cli, cells-c4 (see workloads.py).  The loop
is closed: each op starts when the previous one returns.  Every answer is
checked against an oracle that does not use arrspec, and each oracle must
also reject the answer with one multiplicity bumped by one.

With --trace 0 the run measures the end-to-end metrics for --seconds,
each timing taken at the machine's usual speed: the reference kernel in
reference.py is timed between ops, and each wall time is divided by the
slowdown it shows.
With --trace 1 it runs a fixed list of ops, each once untraced and once
traced, and reports per-layer metrics; the span tree and per-input facts
go to .perfbench-out/ at the repository root.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {w.name: w for w in (workloads.LinesC2(), workloads.PlanesC3Cli(), workloads.CellsC4())}
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def unit(name: str) -> str:
    """The unit of a metric, read from its name as BENCHMARK.json lists it."""
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "bits" if name.endswith("_bits") else "count"


def import_arrspec() -> SimpleNamespace:
    """A fresh import of the package, so that every set-up pays for it."""
    for name in [m for m in sys.modules if m == "arrspec" or m.startswith("arrspec.")]:
        del sys.modules[name]
    arrspec = importlib.import_module("arrspec")
    return SimpleNamespace(
        Arrangement=arrspec.Arrangement,
        spectrum_mod=importlib.import_module("arrspec.spectrum"),
        cli=importlib.import_module("arrspec.cli"),
    )


def set_up(workload, seed: int, workdir: str) -> tuple[float, float, SimpleNamespace]:
    """Import, generate the seeded inputs, write documents, one warm-up op.

    Returns the wall time, the machine's slowdown around it (see
    reference.py) and the state.
    """
    before = reference.measure()
    start = perf_counter()
    api = import_arrspec()
    warm, pool = workload.generate(seed, workload.pool_size)
    inputs = [workload.program_input(api, case, workdir, i) for i, case in enumerate(pool)]
    warm_raw = workload.run(api, workload.program_input(api, warm, workdir, len(pool)))
    elapsed = perf_counter() - start
    slow = reference.slowdown(before, reference.measure())
    state = SimpleNamespace(api=api, pool=pool, inputs=inputs, warm=warm, warm_raw=warm_raw)
    return elapsed, slow, state


def run_op(workload, api, prog_input):
    try:
        return workload.run(api, prog_input)
    except Exception as exc:  # a failed op is counted, not fatal
        return exc


def verdicts(workload, cases, raws) -> tuple[int, int]:
    """(ops that failed, oracles that accepted a perturbed answer)."""
    failed = toothless = 0
    for case, raw in zip(cases, raws):
        if isinstance(raw, Exception):
            print(f"op failed on {case.label}: {type(raw).__name__}: {raw}", file=sys.stderr)
            failed += 1
            continue
        try:
            ok, rejects = workload.check(case, raw)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output
            print(f"unreadable answer on {case.label}: {exc!r}", file=sys.stderr)
            ok, rejects = False, True
        if not ok:
            print(f"oracle mismatch on {case.label}", file=sys.stderr)
        failed += not ok
        toothless += not rejects
    return failed, toothless


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples).  With too few samples for any
    such percentile the maximum is returned at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def write_out(name: str, doc) -> Path:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def input_facts(case, program: dict | None = None) -> dict:
    facts = {
        "label": case.label,
        "n": case.n,
        "hyperplanes": len(case.normals),
        "degree": case.degree,
        "essential": case.facts["essential"],
        "flats": case.facts["flats"],
        "cells": 4 if case.k else case.n * case.degree - 1,
    }
    if program:
        facts["building_size"] = program.get("building_size")
        facts["distinct_twists"] = program.get("distinct_twists")
    return facts


def timed_run(workload, state, seconds: float):
    """Closed loop for `seconds`, the reference kernel timed between ops.

    Returns each op's wall time, the machine's slowdown around each op,
    the raw answers and the loop's wall time.
    """
    gc.collect()
    times, slows, raws = [], [], []
    start = perf_counter()
    before = reference.measure()
    i = 0
    while True:
        prog_input = state.inputs[i % len(state.inputs)]
        t0 = perf_counter()
        raw = run_op(workload, state.api, prog_input)
        times.append(perf_counter() - t0)
        after = reference.measure()
        slows.append(reference.slowdown(before, after))
        before = after
        raws.append(raw)
        i += 1
        if perf_counter() - start >= seconds:
            break
    return times, slows, raws, perf_counter() - start


def traced_run(workload, state):
    """Each of the first `traced_ops` inputs once untraced, then once traced."""
    tracer = tracing.Tracer()
    tracer.install()
    untraced, traced, raws = [], [], []
    gc.collect()
    for i in range(workload.traced_ops):
        prog_input = state.inputs[i]
        t0 = perf_counter()
        raws.append(run_op(workload, state.api, prog_input))
        untraced.append(perf_counter() - t0)
        tracer.begin_op(i)
        t0 = perf_counter()
        raws.append(run_op(workload, state.api, prog_input))
        traced.append(perf_counter() - t0)
        tracer.end_op()
        tracer.collect_op(state.api)
    return tracer, untraced, traced, raws


def report_layers(workload, tracer, metrics: dict, op_p50: float) -> None:
    print("per-layer self time per op (s):")
    selfs = {k[5:-2]: v for k, v in metrics.items() if k.startswith("self.")}
    total = sum(selfs.values()) or 1.0
    for layer, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {value:10.4f}  {100 * value / total:5.1f}%")
    stages = {
        "lattice": metrics["arrangement.build_lattice_s"],
        "building": metrics["nested.building_s"],
        "ideal": metrics["ring.ideal_generators_s"],
        "classes": metrics["chern.char_classes_s"],
        "pairing": sum(
            s[5] - s[4] for s in tracer.spans if s[3] == "spectrum.multiplicity"
        ) / workload.traced_ops,
        "checks": metrics["checks.run_checks_s"],
    }
    op_mean = sum(s[5] - s[4] for s in tracer.spans if s[3] == "op") / workload.traced_ops
    print(f"stage share of a traced op (mean op {op_mean:.4f} s):")
    for stage, value in stages.items():
        print(f"  {stage:12s} {value:10.4f}  {100 * value / op_mean:5.1f}%")
    largest_self = max(selfs, key=selfs.get)
    if workload.name == "lines-c2":
        # EchelonBasis is wrapped on its own, so closure_of's elimination
        # shows as linalg; its lattice bucket is the arrangement's work
        lattice_linalg = sum(
            tracer.hot_totals(name, "lattice")[2] for name in ("linalg.reduce", "linalg.insert")
        ) / workload.traced_ops
        with_linalg = selfs["arrangement"] + lattice_linalg
        rivals = {k: v for k, v in selfs.items() if k != "arrangement"}
        rivals["linalg"] -= lattice_linalg
        holds = largest_self == "arrangement"
        claim = (
            f"arrangement self time is the largest layer (largest: {largest_self}; "
            f"with its lattice echelon calls arrangement is {100 * with_linalg / total:.1f}%, "
            f"{'largest' if with_linalg > max(rivals.values()) else 'not largest'})"
        )
    elif workload.name == "planes-c3-cli":
        share = (metrics["ring.mul_s"] + metrics["spectrum.pairing_s"]) / op_mean
        rivals = {k: v / op_mean for k, v in selfs.items() if k not in ("ring", "spectrum")}
        holds = share > max(rivals.values())
        claim = f"ring.mul_s + spectrum.pairing_s is the largest share ({100 * share:.1f}%)"
    else:
        share = (metrics["ring.ideal_generators_s"] + metrics["chern.char_classes_s"]) / op_mean
        holds = share >= 0.4
        claim = f"ring.ideal_generators_s + chern.char_classes_s >= 40% ({100 * share:.1f}%)"
    print(f"prediction: {claim}: {'holds' if holds else 'FAILS'}")
    print(f"tracing overhead: traced p50 {metrics['trace.op_p50_s']:.4f} s - untraced p50 "
          f"{op_p50:.4f} s = {metrics['trace.overhead_s']:.4f} s")
    if tracer.absent:
        print("absent: " + ", ".join(tracer.absent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "arrspec" / "__init__.py").is_file():
        print(f"error: arrspec sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as workdir:
        setup_times, setup_slows = [], []
        for _ in range(SETUP_REPEATS):
            elapsed, slow, state = set_up(workload, args.seed, workdir)
            setup_times.append(elapsed)
            setup_slows.append(slow)
        warm_failed, warm_toothless = verdicts(workload, [state.warm], [state.warm_raw])

        if args.trace:
            tracer, untraced, traced, raws = traced_run(workload, state)
            cases = [c for c in state.pool[: workload.traced_ops] for _ in (0, 1)]
        else:
            wall, slows, raws, elapsed = timed_run(workload, state, args.seconds)
            cases = [state.pool[i % len(state.pool)] for i in range(len(raws))]
    failed, toothless = verdicts(workload, cases, raws)
    attempted = len(raws)
    correct = failed == 0 and toothless == 0 and warm_failed == 0 and warm_toothless == 0

    print(f"workload {workload.name}, seed {args.seed}, one process, one thread, closed loop")
    print(f"set-up wall times (s): {', '.join(f'{t:.4f}' for t in setup_times)}; "
          f"machine slowdown: {', '.join(f'{x:.3f}' for x in setup_slows)}")
    print(f"ops attempted {attempted}, failed {failed}, error_rate {failed / attempted:.4f}; "
          f"oracles accepting a perturbed answer: {toothless + warm_toothless}")

    if args.trace:
        metrics = tracer.metrics(workload.traced_ops)
        p50_untraced = statistics.median(untraced)
        metrics["trace.op_p50_s"] = statistics.median(traced)
        metrics["trace.untraced_op_p50_s"] = p50_untraced
        metrics["trace.overhead_s"] = metrics["trace.op_p50_s"] - p50_untraced
        report_layers(workload, tracer, metrics, p50_untraced)
        facts = [
            input_facts(case, program)
            for case, program in zip(state.pool, tracer.op_facts)
        ]
        span_path = write_out(f"trace-{workload.name}-seed{args.seed}.json", tracer.dump())
        write_out(f"inputs-{workload.name}-seed{args.seed}-traced.json", facts)
        print(f"span tree: {span_path.relative_to(ROOT)}")
    else:
        # every timing is reported at the machine's usual speed: wall time
        # divided by the slowdown the reference kernel saw around it
        slows = reference.smoothed(slows)
        times = [t / x for t, x in zip(wall, slows)]
        setups = [t / x for t, x in zip(setup_times, setup_slows)]
        p50 = statistics.median(times)
        tail_value, tail_pct, samples = tail(times)
        used = min(len(raws), len(state.pool))
        write_out(f"inputs-{workload.name}-seed{args.seed}.json",
                  [input_facts(case) for case in state.pool[:used]])
        by_class: dict[str, list[float]] = {}
        for case, t in zip(cases, times):
            by_class.setdefault(case.label, []).append(t)
        for label, ts in sorted(by_class.items()):
            print(f"  {label}: {len(ts)} ops, median {statistics.median(ts):.4f} s")
        q = statistics.quantiles(slows, n=4) if len(slows) > 1 else slows * 3
        print(f"machine slowdown around the ops: median {statistics.median(slows):.3f}, "
              f"quartiles {q[0]:.3f}-{q[2]:.3f}, range {min(slows):.3f}-{max(slows):.3f}")
        print(f"wall time: op p50 {statistics.median(wall):.4f} s, {attempted / elapsed:.4f} ops/s "
              f"over {elapsed:.3f} s timed, set-up {statistics.median(setup_times):.4f} s")
        beyond = f"{TAIL_BEYOND} beyond" if samples > TAIL_BEYOND else "too few for a tail, maximum"
        print(f"at usual speed: op p50 {p50:.4f} s; tail p{tail_pct:.1f} {tail_value:.4f} s "
              f"over {samples} samples ({beyond}); pool {len(state.pool)} inputs"
              + (", wrapped around" if len(raws) > len(state.pool) else ""))
        metrics = {
            "op_p50_s": p50,
            "op_tail_s": tail_value,
            "ops_per_s": attempted / sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
