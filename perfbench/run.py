#!/usr/bin/env python3
"""ordlang benchmark: time to verdict, run time and failures, per workload.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

A single client runs a closed loop: one program at a time, each in a fresh
worker forked from an interpreter that has only imported ordlang (see
worker.py), timed through the calls `ordlang run` makes (parse, check, run
with fuel 100 000, render). Whole rounds of seeded programs run until
`--seconds` have passed and every reported percentile has at least ten
samples beyond it. Every output is checked against the answer the generator
fixed; a failed program enters every percentile at the per-program limit.
Times are scaled to reference speed by a calibration loop run just before
and after each job (calibration.py).

With `--trace 1` the run instead measures one round untraced (repeated for
`--seconds`), then twice with every layer-boundary function of ordlang
wrapped (see tracing.py), each traced pass in its own interpreter with its
own string hash seed; it reports per-layer counters and self times, checks
that both traced passes count exactly the same, and compares each phase's
dominant layer with the prediction recorded in BENCHMARK.json.

Metric names and units, and each workload's prediction, are read from
BENCHMARK.json.

`--workload all` runs every workload both ways. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
HARD_CAP_S = 120.0  # stop a run here even mid-round, to exit well within 180 s
TRACE_LIMIT_S = 60.0  # per job when traced
SETUP_REPEATS = 9

# Run in a fresh interpreter: time `import ordlang` and building the OPMs,
# and print that time scaled to reference speed.
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
from time import perf_counter
from calibration import Speed
speed = Speed()
start = perf_counter()
import ordlang
for name in sys.argv[3:]:
    ordlang.get_opm(name)
elapsed = perf_counter() - start
print(elapsed * speed.factor())
"""

def predicted(why: str) -> dict[str, tuple[str, ...]]:
    """The layers a workload's why names as dominant, per phase; each why
    ends in "predicted top layer: verdict context, run core"."""
    verdict, run = re.search(r"predicted top layer: verdict (\S+), run (\S+)$", why).groups()
    return {"verdict": tuple(verdict.split("/")), "run": tuple(run.split("/"))}


SUBCOMMANDS = ("check", "run", "trace", "dump-core", "dump-graph")


# ---------------------------------------------------------------------------
# Set-up time

def measure_setup(opms: list[str]) -> float:
    """Median time, in fresh interpreters, from `import ordlang` to the
    workload's OPMs built (reference seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), *opms],
            cwd=ROOT, check=True, timeout=60, capture_output=True, text=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Timed (untraced) runs

def samples(results, scaled: bool = True) -> dict[str, list[float]]:
    """Latency samples, scaled to reference speed unless `scaled` is false;
    a failed job enters each of its samples at the limit."""
    from worker import LIMIT_S

    limit_ms = LIMIT_S * 1000
    out: dict[str, list[float]] = {"verdict": [], "reject": [], "run": []}
    for r in results:
        job = r.job
        speed = r.speed if scaled else 1.0
        if job.source is not None:
            verdict = r.verdict_ms * speed if r.ok else limit_ms
            out["verdict"].append(verdict)
            if job.expect_kind is not None:
                out["reject"].append(verdict)
            else:
                out["run"].append(r.run_ms * speed if r.ok else limit_ms)
        elif job.subcommand == "check":
            main = r.main_ms * speed if r.ok else limit_ms
            out["verdict"].append(main)
            if job.expect_kind is not None:
                out["reject"].append(main)
        elif job.subcommand == "run" and job.expect_kind is None:
            out["run"].append(r.main_ms * speed if r.ok else limit_ms)
    return out


def enough(results) -> bool:
    s = samples(results)
    return len(s["verdict"]) >= MIN_SAMPLES and len(s["run"]) >= MIN_SAMPLES


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def report_failures(results) -> None:
    by_kind: dict[str, list] = defaultdict(list)
    for r in results:
        if not r.ok:
            by_kind[r.failure].append(r)
    for kind, failed in sorted(by_kind.items()):
        print(f"FAILED {len(failed)} x {kind}")
        for r in failed[:5]:
            print(f"  {r.job.ident}: {r.detail}")


def timed_run(name: str, make_round, seed: int, seconds: int) -> tuple[dict, list]:
    from worker import Workers

    setup_s = measure_setup(sorted({job.opm for job in make_round(seed, 0)}))
    results = []
    start = time.perf_counter()
    rounds = 0
    with Workers() as workers:
        while time.perf_counter() - start < HARD_CAP_S:
            for job in make_round(seed, rounds):
                results.append(workers.execute(job))
                if time.perf_counter() - start >= HARD_CAP_S:
                    break
            rounds += 1
            if time.perf_counter() - start >= seconds and enough(results):
                break
    elapsed = time.perf_counter() - start

    s = samples(results)
    failed = sum(not r.ok for r in results)
    values = {
        "setup_s": setup_s,
        "verdict_ms.p50": statistics.median(s["verdict"]),
        "verdict_ms.p90": p90(s["verdict"]),
        "reject_ms.p50": statistics.median(s["reject"]),
        "run_ms.p50": statistics.median(s["run"]),
        "run_ms.p90": p90(s["run"]),
        "ok_ratio": (len(results) - failed) / len(results),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    report_failures(results)
    raw = samples(results, scaled=False)
    print(
        f"{name}: {len(results)} jobs in {rounds} rounds, {elapsed:.1f} s; samples: "
        + ", ".join(f"{k} {len(v)}" for k, v in s.items())
        + f"; median speed factor {statistics.median(r.speed for r in results):.3f}; unscaled ms: "
        + ", ".join(f"{k} p50 {statistics.median(v):.2f}" for k, v in raw.items())
    )
    return values, results


# ---------------------------------------------------------------------------
# Traced runs

def merge_traces(results) -> dict:
    """Sum the jobs' traces; times are scaled to reference speed."""
    merged = {
        "counts": Counter(), "maxes": {}, "inclusive": Counter(), "self": Counter(),
        "layer_self": defaultdict(Counter), "tree": defaultdict(lambda: [0, 0.0, 0.0]),
        "main": Counter(),
    }
    for r in results:
        t = r.trace
        if t is None:
            continue
        speed = r.speed
        merged["counts"].update(t["counts"])
        for k, v in t["maxes"].items():
            merged["maxes"][k] = max(v, merged["maxes"].get(k, 0))
        for name, seconds in t["inclusive"].items():
            merged["inclusive"][name] += seconds * speed
        for name, seconds in t["self"].items():
            merged["self"][name] += seconds * speed
        for root, layers in t["layer_self"].items():
            for layer, seconds in layers.items():
                merged["layer_self"][root][layer] += seconds * speed
        for key, (n, incl, own) in t["tree"].items():
            entry = merged["tree"][key]
            entry[0] += n
            entry[1] += incl * speed
            entry[2] += own * speed
        merged["main"][r.job.subcommand] += t["inclusive"].get("cli.main", 0.0) * speed
    return merged


def counters(trace: dict) -> dict:
    return {**trace["counts"], **{f"max:{k}": v for k, v in trace["maxes"].items()}}


def layer_metrics(m: dict, overhead: float) -> dict[str, float]:
    """Per-layer metrics from merged traces, by name."""
    from tracing import LAYERS, RULES

    c, incl, own, maxes = m["counts"], m["inclusive"], m["self"], m["maxes"]

    def ms(seconds: float) -> float:
        return seconds * 1000

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lets = {mode: c[f"checker.lets_by_mode.{mode}"] for mode in "uol"}
    render = sum(
        incl for key, (_, incl, _) in m["tree"].items()
        if key.endswith("> cli.render") or key in ("cli.main > core.pretty", "cli.main > cli.diag")
    )
    layer_self = Counter()
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds
    return {
        "surface.parse_ms": ms(incl["surface.parse"]),
        "surface.tokens": c["surface.tokens"],
        "surface.surface_fv_calls": c["surface.surface_fv"],
        "surface.surface_fv_ms": ms(incl["surface.surface_fv"]),
        "surface.rename_var_calls": c["surface.rename_var"],
        "context.subcontext_calls": c["context.subcontext"],
        "context.subcontext_ms": ms(incl["context.subcontext"]),
        "context.subcontext_true_ratio": ratio(c["context.subcontext_true"], c["context.subcontext"]),
        "context.interpret_calls": c["context.interpret"],
        "context.interpret_ms": ms(incl["context.interpret"]),
        "context.spanning_embed_calls": c["context.spanning_embed"],
        "context.restrict_calls": c["context.restrict"],
        "context.restrict_ms": ms(incl["context.restrict"]),
        "context.decompose_calls": c["context.decompose"],
        "context.decompose_ms": ms(incl["context.decompose"]),
        "context.max_ordered_bindings": maxes.get("context.max_ordered_bindings", 0),
        "opm.best_continuation_calls": c["opm.best_continuation"],
        "opm.best_continuation_ms": ms(incl["opm.best_continuation"]),
        "opm.residual_exists_calls": c["opm.residual_exists"],
        "opm.residual_exists_ms": ms(incl["opm.residual_exists"]),
        "opm.leq_calls": c["opm.leq"],
        "opm.eq_calls": c["opm.eq"],
        "opm.eq_ms": ms(incl["opm.eq"]),
        "regex.to_dfa_calls": c["regex.to_dfa"],
        "regex.dfa_states": c["regex.dfa_states"],
        "regex.product_derivative_ms": ms(incl["regex.product_derivative"]),
        "regex.regex_from_dfa_ms": ms(incl["regex.regex_from_dfa"]),
        "regex.continuation_chars.max": maxes.get("regex.continuation_chars.max", 0),
        "checker.check_program_ms": ms(layer_self["checker"]),
        "checker.infer_calls": c["checker.infer"],
        "checker.let_attempts_per_let": ratio(lets["u"] + 2 * lets["o"] + 3 * lets["l"], sum(lets.values())),
        **{f"checker.lets_by_mode.{mode}": n for mode, n in lets.items()},
        "checker.core_nodes": c["checker.core_nodes"],
        "core.subst_calls": c["core.subst"],
        "core.subst_ms": ms(incl["core.subst"]),
        "core.fv_visits": c["core.fv"],
        "core.fv_visits_per_step": ratio(c["core.fv"], c["interp.steps"]),
        "core.pretty_calls": c["core.pretty"],
        "core.pretty_ms": ms(incl["core.pretty"]),
        "interp.steps": c["interp.steps"],
        "interp.step_ms": ms(own["interp.step"]),
        **{f"interp.rules.{rule}": c[f"interp.rules.{rule}"] for rule in RULES},
        "interp.runtime_oracle_ms": ms(incl["interp.runtime_oracle"]),
        "interp.peak_heap_cells": maxes.get("interp.peak_heap_cells", 0),
        "cli.render_ms": ms(render),
        "cli.diag_chars": c["cli.diag_chars"],
        **{f"cli.main_ms.{sub}": ms(m["main"][sub]) for sub in SUBCOMMANDS},
        **{f"{layer}.self_ms": ms(layer_self[layer]) for layer in LAYERS if layer != "checker"},
        "trace.overhead": overhead,
    }


def phase_ms(r) -> dict[str, float]:
    """A job's timed reference milliseconds by phase (corpus: the whole CLI call)."""
    if r.job.source is not None:
        return {"verdict": (r.verdict_ms or 0.0) * r.speed, "run": (r.run_ms or 0.0) * r.speed}
    phase = {"check": "verdict", "run": "run"}.get(r.job.subcommand, "other")
    return {phase: (r.main_ms or 0.0) * r.speed}


def print_shares(
    name: str, expected: dict, merged: dict, traced_ms: Counter, untraced_ms: Counter
) -> None:
    """Per-phase self-time shares of each layer, next to the prediction, and
    how much of the untraced phase time the layers' self times account for."""
    from tracing import LAYERS

    print(f"{name}: per-layer self time in the traced pass")
    for phase in ("verdict", "run"):
        layers = merged["layer_self"].get(f"bench.{phase}")
        if not layers:
            continue
        attributed = sum(layers[layer] for layer in LAYERS)
        total = sum(layers.values())
        shares = sorted(((layers[layer] / total, layer) for layer in LAYERS), reverse=True)
        top = shares[0][1]
        flag = "as predicted" if top in expected[phase] else "MISMATCH"
        print(
            f"  {phase:7} predicted {'/'.join(expected[phase])}, measured top {top}: {flag}; "
            + " ".join(f"{layer} {share:.0%}" for share, layer in shares if share >= 0.005)
        )
        overhead = traced_ms[phase] / untraced_ms[phase]
        print(
            f"  {phase:7} layers' self time {1000 * attributed:.0f} ms traced (overhead x{overhead:.2f}) "
            f"= {1000 * attributed / overhead:.0f} ms at untraced speed, "
            f"of {untraced_ms[phase]:.0f} ms untraced"
        )


def traced_run(name: str, why: str, make_round, seed: int, seconds: int) -> tuple[dict, list, bool]:
    from worker import LIMIT_S, Workers

    jobs = make_round(seed, 0)
    start = time.perf_counter()

    def limit(most: float) -> float:  # past HARD_CAP_S, jobs get 0.1 s and fail fast
        return max(0.1, min(most, start + HARD_CAP_S - time.perf_counter()))

    untraced: dict[str, list] = defaultdict(list)
    with Workers() as workers:
        while not untraced or time.perf_counter() - start < seconds:
            for job in jobs:
                untraced[job.ident].append(workers.execute(job, limit_s=limit(LIMIT_S)))
    # Per job and phase, the median of the untraced repeats.
    untraced_ms = Counter()
    for runs in untraced.values():
        for phase in phase_ms(runs[0]):
            untraced_ms[phase] += statistics.median(phase_ms(r)[phase] for r in runs)

    # Each traced pass in its own interpreter, with its own string hash seed,
    # so that a counter that depends on set or dict order shows as a difference.
    passes = []
    traced_start = time.perf_counter()
    for hash_seed in (2 * seed + 1, 2 * seed + 2):
        with Workers(hash_seed) as workers:
            passes.append([workers.execute(job, traced=True, limit_s=limit(TRACE_LIMIT_S)) for job in jobs])
    traced_s = time.perf_counter() - traced_start
    first, second = passes
    report_failures(first + second)
    correct = True
    uncounted = 0
    for a, b in zip(first, second):
        if a.trace is None or b.trace is None:  # killed at the limit, or crashed: no counters
            uncounted += 1
            print(f"TRACED JOB GAVE NO COUNTERS: {a.job.ident}: {a.failure or b.failure}")
            continue
        ca, cb = counters(a.trace), counters(b.trace)
        if ca != cb:
            correct = False
            diff = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
            print(f"COUNTERS DIFFER between traced passes for {a.job.ident}: {diff[:10]}")
        if a.failure != untraced[a.job.ident][0].failure:
            print(
                f"NOTE {a.job.ident}: traced outcome {a.failure} differs from "
                f"untraced {untraced[a.job.ident][0].failure}"
            )
    if correct:
        print(
            f"{name}: counter self-test passed ({len(jobs) - uncounted} of {len(jobs)} jobs "
            f"compared; two traced passes with different hash seeds agree exactly)"
        )

    merged = merge_traces(first)
    traced_ms = Counter()
    for r in first:
        traced_ms.update(phase_ms(r))
    overhead = sum(traced_ms.values()) / sum(untraced_ms.values())
    print_shares(name, predicted(why), merged, traced_ms, untraced_ms)
    print(f"{name}: two traced passes took {traced_s:.1f} s; whole run {time.perf_counter() - start:.1f} s")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    tree = {key: {"calls": n, "ms": incl * 1000, "self_ms": own * 1000}
            for key, (n, incl, own) in sorted(merged["tree"].items())}
    path.write_text(json.dumps({"workload": name, "seed": seed, "overhead": overhead,
                                "call_tree": tree}, indent=1))
    print(f"{name}: call tree written to {path.relative_to(ROOT)}")

    return layer_metrics(merged, overhead), first + second, correct


# ---------------------------------------------------------------------------

def run_one(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One workload's result line; metric names and units, and the
    workload's predicted top layers, come from BENCHMARK.json (`spec`)."""
    from worker import WRONG_ANSWERS
    from workloads import WORKLOADS

    if trace:
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
        values, results, correct = traced_run(name, why, WORKLOADS[name], seed, seconds)
    else:
        values, results = timed_run(name, WORKLOADS[name], seed, seconds)
        correct = True
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        correct = False
        print(f"METRICS DIFFER from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    correct = correct and not any(r.failure in WRONG_ANSWERS for r in results)
    for metric, unit in units.items():
        print(f"  {name} {metric} = {values.get(metric, float('nan')):.6g} {unit}")
    return {
        "correct": correct,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items() if metric in values
        },
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ordlang" / "__init__.py").is_file():
        print(f"error: ordlang sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload == "all":
        lines = [
            run_one(spec, name, args.seed, args.seconds, trace)
            for name in WORKLOADS
            for trace in (False, True)
        ]
        result = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {
                f"{name}.{metric}": value
                for name, line in zip((n for n in WORKLOADS for _ in (0, 1)), lines)
                for metric, value in line["metrics"].items()
            },
        }
    else:
        result = run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
