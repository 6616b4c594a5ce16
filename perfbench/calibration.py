"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared machine the speed of the same code drifts by 20 % and more over
tens of seconds, for every process alike, and a single short run of any loop
is itself off by 10-20 %. So each timed job (and each set-up sample) is
bracketed, in the same process, by runs of `work`: one to warm up, three
before the job and two after it. The job's measured time is then scaled by
`Speed.factor`, computed from the median of those five, so that times from
a slow and a fast moment compare; the runs after the job follow a drift
that happens while a long job runs. The loop does the kind of work ordlang
does (small tuples, frozensets, dict inserts and hashing) and nothing of
ordlang, so no change to ordlang can change it. It imports only `time`, so
that loading it before `import ordlang` leaves ordlang's own import time
alone.
"""

from time import perf_counter

# Median of the five timed runs of `work` in a benchmark worker on the
# machine the bounds in BENCHMARK.json were set on (a shared 2-core x86-64
# machine, Python 3.11); scaled times are milliseconds at that machine's
# median speed.
REFERENCE_MS = 4.1
BEFORE, AFTER = 3, 2


def work() -> int:
    acc = 0
    table = {}
    for i in range(3000):
        key = (i, i * 7, frozenset((i % 7, i % 11)))
        table[key] = len(table)
        acc += hash(key) & 0xFF
        acc += len(str(i))
    return acc


def loop_ms() -> float:
    start = perf_counter()
    work()
    return (perf_counter() - start) * 1000


class Speed:
    """Create just before the timed work, call `factor` just after it."""

    def __init__(self) -> None:
        loop_ms()  # warm-up: the first run after a fork is slower
        self.samples = [loop_ms() for _ in range(BEFORE)]

    def factor(self) -> float:
        """REFERENCE_MS over the median loop time; below 1 when the machine
        runs slow, so that measured time times this factor is reference time."""
        samples = sorted(self.samples + [loop_ms() for _ in range(AFTER)])
        return REFERENCE_MS / samples[len(samples) // 2]
