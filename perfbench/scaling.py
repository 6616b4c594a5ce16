#!/usr/bin/env python3
"""Ungated scaling report over the ROADMAP Baseline program families.

    python3 perfbench/scaling.py

For `resources`, `ops` and `splits` at n = 16, 32 and 64 it reports the
median time to a verdict, run time and evaluation steps (each program in a
fresh forked worker, as in run.py; median of three), the growth from n = 32 to 64, and the
least-squares slope of log(time) against log(n). Next to them it prints the
Baseline table recorded in ROADMAP.md for n = 64. It gates nothing; it exits
non-zero only when a program's output is wrong.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = (16, 32, 64)
REPEATS = 3

# ROADMAP.md "Baseline": n = 64 check s, run s, steps, 32->64 growth (check, run).
BASELINE = {
    "resources": (0.81, 2.73, 384, 5.6, 9.3),
    "ops": (0.05, 0.10, 132, 2.9, 4.8),
    "splits": (0.60, 0.21, 324, 5.2, 3.6),
}


def resources(n: int) -> str:
    """n `new {r*c}` lets, then each resource used up in reverse order."""
    lets = [f"let x{i} = new {{r*c}} in" for i in range(n)]
    uses = [f"drop (!{{c}} (!{{r}} x{i}))" for i in reversed(range(n))]
    return "\n".join(lets + ["; ".join(uses + ["unit"])])


def ops(n: int) -> str:
    """One resource through n `!{r}` lets."""
    lets = [f"let x{i + 1} = !{{r}} x{i} in" for i in range(n)]
    return "\n".join(["let x0 = new {r*c} in", *lets, f"drop (!{{c}} x{n})"])


def splits(n: int) -> str:
    """n rounds of `split {r*}` plus use and drop of the borrow."""
    rounds = [f"let b{i}, x{i + 1} = split {{r*}} x{i} in drop (!{{r}} b{i});" for i in range(n)]
    return "\n".join(["let x0 = new {r*c} in", *rounds, f"drop (!{{c}} x{n})"])


FAMILIES = {"resources": resources, "ops": ops, "splits": splits}


def slope(ns, times) -> float:
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    src = ROOT / "src"
    if not (src / "ordlang" / "__init__.py").is_file():
        print(f"error: ordlang sources not found under {src}", file=sys.stderr)
        return 2
    from workloads import Job
    from worker import Workers

    wrong = 0
    report = {}
    print(f"{'family':10} {'n':>3} {'check s':>8} {'run s':>8} {'steps':>6}")
    with Workers() as workers:
        for family, make in FAMILIES.items():
            rows = []
            for n in SIZES:
                runs = [workers.execute(Job(ident=f"{family}({n})", source=make(n))) for _ in range(REPEATS)]
                for r in runs:
                    if not r.ok:
                        wrong += 1
                        print(f"FAILED {r.job.ident}: {r.failure}: {r.detail}")
                good = [r for r in runs if r.ok] or runs
                check = statistics.median(r.verdict_ms or math.nan for r in good) / 1000
                run = statistics.median(r.run_ms or math.nan for r in good) / 1000
                steps = good[0].steps
                rows.append((n, check, run, steps))
                print(f"{family:10} {n:3} {check:8.3f} {run:8.3f} {steps!s:>6}")
            report[family] = rows
    print()
    print(f"{'n=64':10} {'check s':>15} {'run s':>15} {'steps':>11} {'32->64 check':>15} "
          f"{'32->64 run':>15} {'slope check/run':>16}")
    print(f"{'':10} {'now / ROADMAP':>15} {'now / ROADMAP':>15} {'now/ROADMAP':>11}")
    for family, rows in report.items():
        (_, c32, r32, _), (n, c64, r64, steps) = rows[1], rows[2]
        b = BASELINE[family]
        ns = [row[0] for row in rows]
        print(
            f"{family:10} {c64:7.3f} / {b[0]:5.2f} {r64:7.3f} / {b[1]:5.2f} {steps!s:>5} / {b[2]:3} "
            f"x{c64 / c32:5.1f} / x{b[3]:3.1f} x{r64 / r32:5.1f} / x{b[4]:3.1f} "
            f"{slope(ns, [row[1] for row in rows]):7.2f} / {slope(ns, [row[2] for row in rows]):4.2f}"
        )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps(
        {family: [dict(zip(("n", "check_s", "run_s", "steps"), row)) for row in rows]
         for family, rows in report.items()}, indent=1))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
