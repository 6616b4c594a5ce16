"""Seeded workload generators and the corpus job list.

Every job carries the answer it must produce, fixed by construction here and
never obtained from ordlang: a generated program is either well-typed (it
must check, run to `unit` and leave an empty heap) or has exactly one planted
defect whose diagnostic kind is known. Rounds are stratified: the sizes and
the share of ill-typed variants in a round do not depend on the seed, only
the programs' details and their order do, so percentiles stay comparable
from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
GOLDEN_COPY_CORE = ROOT / "tests" / "golden" / "copy_core.txt"


@dataclass(frozen=True)
class Job:
    """One program (or one CLI invocation) with its expected answer.

    `expect_kind` is None when the program must be accepted and run to
    `unit` with an empty heap, else the diagnostic kind it must be rejected
    with. Generated jobs carry `source`; corpus jobs carry `argv` for
    `ordlang.cli.main`, and `golden` when stdout must match byte for byte.
    """

    ident: str
    opm: str = "regex"
    source: Optional[str] = None
    argv: tuple[str, ...] = ()
    expect_kind: Optional[str] = None
    golden: Optional[str] = None

    @property
    def subcommand(self) -> str:
        return self.argv[0] if self.argv else "program"


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


# ---------------------------------------------------------------------------
# wide: n live resources, each split into a borrow captured by a thunk

# An odd number of sizes puts the median of the accepted programs inside one
# size's cluster of times rather than on the edge between two.
_WIDE_SIZES = range(2, 15)


def wide_program(rng: random.Random, n: int, opm: str, misuse: Optional[int]) -> str:
    """n resources live at once; each is split, its borrow captured by a
    mode-o thunk; thunks and remainders are then used in reverse order.

    With `misuse` = i, resource i's remainder is used before its thunk,
    which the ordered context forbids (context-misuse).
    """
    lines = []
    uses = []
    for i in range(n):
        if opm == "regex":
            env, head = "(r|w)*c", rng.choice(["r", "w", "r*", "w*", "(r|w)*"])
            op = head[0] if head[0] in "rw" else rng.choice("rw")
            last = "c"
        else:
            env, head, op, last = "*", "b", "b", "*"
        lines.append(f"let x{i} = new {{{env}}} in")
        lines.append(f"let b{i}, h{i} = split {{{head}}} x{i} in")
        lines.append(f"let f{i} : Unit -[o 1]-> Unit")
        lines.append(f"    f{i} z = drop (!{{{op}}} b{i})")
        lines.append("in")
        thunk, rest = f"f{i} unit", f"drop (!{{{last}}} h{i})"
        uses.append((rest, thunk) if i == misuse else (thunk, rest))
    lines.append("; ".join(u for pair in reversed(uses) for u in pair))
    return "\n".join(lines)


def wide_round(seed: int, round_index: int) -> list[Job]:
    rng = _rng("wide", seed, round_index)
    jobs = []
    for n in _WIDE_SIZES:
        # Per size: two regex programs, one ownership program, and a regex
        # one that misuses the middle resource. With one OPM for every
        # misuse, a rejection's cost rises with n alone, and the median
        # rejection is that of the middle size rather than a mix of two.
        for variant, opm in enumerate(["regex", "regex", "ownership", "regex"]):
            misuse = n // 2 if variant == 3 else None
            jobs.append(
                Job(
                    ident=f"wide/{round_index}/n{n}/{variant}",
                    opm=opm,
                    source=wide_program(rng, n, opm, misuse),
                    expect_kind="context-misuse" if misuse is not None else None,
                )
            )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# borrow: one resource walking a multi-phase regex envelope

_PHASE1_WORDS = ("r", "w", "rw", "wr")
_PHASE2_PAIRS = list(itertools.combinations(("ab", "ba", "aa", "bb"), 2))
# Three ops per phase: a fourth already passes 10 s on some word choices.
# The first phase's words are the i-th, j-th and k-th of its word set for
# each (i, j, k) below, and the second phase's the (i mod 2)-th, ... of its
# pair.
_PHASE1_PATTERNS = [p for p in itertools.product(range(3), repeat=3) if sum(p) % 3 == 0]
# Where the defect of each ill-typed program goes, in turn: always after the
# first phase, which decides the cost, so that a rejection costs about what
# its well-typed twin does.
_BAD_STEPS = range(3, 8)


def borrow_program(
    w1: tuple[str, ...], w2: tuple[str, str], pattern, split_at: int, bad_at: Optional[int]
) -> str:
    """One resource with envelope (W1)*c(W2)*d.

    A chain of ops and splits performs a word of the envelope: the words of
    W1 and of W2 picked by `pattern`, with `c` and `d` after each phase. The
    step at index `split_at` is a split whose borrow is used up at once, so
    at most two bindings are live. With `bad_at`, an op inserted before the
    step at that index performs `d` in the first phase or `c` in the second,
    which no continuation admits (opm-violation).
    """
    env = f"({'|'.join(w1)})*c({'|'.join(w2)})*d"
    steps = [w1[i] for i in pattern] + ["c"] + [w2[i % 2] for i in pattern] + ["d"]
    split = [k == split_at for k in range(len(steps))]
    if bad_at is not None:
        steps.insert(bad_at, "d" if bad_at <= len(pattern) else "c")
        split.insert(bad_at, False)
    lines = [f"let x0 = new {{{env}}} in"]
    for k, word in enumerate(steps):
        if split[k]:
            lines.append(f"let b{k}, x{k + 1} = split {{{word}}} x{k} in")
            lines.append(f"drop (!{{{word}}} b{k});")
        else:
            lines.append(f"let x{k + 1} = !{{{word}}} x{k} in")
    lines.append(f"drop x{len(steps)}")
    return "\n".join(lines)


def borrow_round(seed: int, round_index: int) -> list[Job]:
    """Each three-word subset of the first phase's words (those holding both
    rw and wr give the longest continuations) with every pattern, and a
    second-phase pair taken in turn, once well-typed and once with a defect:
    rejections then cover the same range of costs as acceptances.

    The envelopes and words, which decide a program's cost, are the same in
    every round; the seed and the round number choose which step of each
    program is a split, and the order of the jobs. So a run's mix of cheap
    and costly programs, and with it the high percentiles, does not depend
    on the seed.
    """
    rng = _rng("borrow", seed, round_index)
    jobs = []
    for slot, (left_out, (t, pattern)) in enumerate(
        itertools.product(_PHASE1_WORDS, enumerate(_PHASE1_PATTERNS))
    ):
        w1 = tuple(w for w in _PHASE1_WORDS if w != left_out)
        w2 = _PHASE2_PAIRS[slot % len(_PHASE2_PAIRS)]
        split_at = rng.randrange(2 * len(pattern) + 2)
        for bad_at in (None, _BAD_STEPS[slot % len(_BAD_STEPS)]):
            jobs.append(
                Job(
                    ident=f"borrow/{round_index}/{left_out}/{t}/{'bad' if bad_at is not None else 'ok'}",
                    source=borrow_program(w1, w2, pattern, split_at, bad_at),
                    expect_kind="opm-violation" if bad_at is not None else None,
                )
            )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# deep: one long straight-line spine of value lets and `;`

# 34 spines from 50 to 170 items, five of 180, then one past the depth
# (about 195 items) at which the checker raised RecursionError when this
# benchmark was written. Spines near that depth are left out so the failing
# share does not depend on the seed. The five of equal length put both 90th
# percentiles, which lie just below the failure, inside one cluster of like
# times rather than among the sparse times of the longest spines.
_DEEP_GRADED = 34
_DEEP_LENGTHS = [50 + round(i * 120 / (_DEEP_GRADED - 1)) for i in range(_DEEP_GRADED)]
_DEEP_LENGTHS += [180] * 5 + [215]


def deep_program(rng: random.Random, length: int, bad: bool) -> str:
    """A spine of `length` items, each one `let ... in` or one `e;`; some
    value lets shadow the previous one.

    Three short-lived resources sit in the spine, one in its middle and two
    at seeded points, each created, given at most three operations and
    dropped within a few items. With `bad`, the middle one performs an
    operation its envelope forbids (opm-violation).
    """
    middle = length // 8 * 4
    starts = sorted(rng.sample([p for p in range(0, length - 6, 4) if p != middle], 2) + [middle])
    bad_at = middle if bad else None
    lines: list[str] = []
    last_value: Optional[str] = None
    i = 0
    while i < length:
        if starts and i >= starts[0]:
            r = f"r{i}"
            if starts.pop(0) == bad_at:
                env, first, final = "r*c", "w", "c"
            else:
                env, first, final = rng.choice([("r*c", "r", "c"), ("(r|w)*c", "w", "c"), ("rwc", "rw", "c")])
            lines.append(f"let {r} = new {{{env}}} in")
            gap = rng.randrange(0, 3)
            for g in range(gap):
                lines.append(f"let v{i}_{g} = unit in")
            lines.append(f"let {r}a = !{{{first}}} {r} in")
            lines.append(f"drop (!{{{final}}} {r}a);")
            i += 3 + gap
            continue
        choice = rng.random()
        if last_value is not None and choice < 0.3:
            lines.append(f"{last_value};")
        elif last_value is not None and choice < 0.35:
            lines.append(f"let {last_value} = {last_value} in")  # shadowing: the checker renames
        elif last_value is not None and choice < 0.6:
            lines.append(f"let v{i} = {last_value} in")
            last_value = f"v{i}"
        else:
            lines.append(f"let v{i} = unit in")
            last_value = f"v{i}"
        i += 1
    lines.append("unit")
    return "\n".join(lines)


def deep_round(seed: int, round_index: int) -> list[Job]:
    rng = _rng("deep", seed, round_index)
    jobs = []
    for i, length in enumerate(_DEEP_LENGTHS):
        # Every fourth graded spine: nine, an odd number, so that the median
        # rejection is one spine length's rather than between two.
        bad = i % 4 == 0 and i < _DEEP_GRADED
        jobs.append(
            Job(
                ident=f"deep/{round_index}/L{length}/{i}",
                source=deep_program(rng, length, bad),
                expect_kind="opm-violation" if bad else None,
            )
        )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# corpus: the committed example programs through the CLI, unchanged

# Hand-written expectations: these two are the intended counterexamples.
CORPUS_REJECT = {"misuse.ord": "context-misuse", "alias_bad.ord": "context-misuse"}
CORPUS_SUBCOMMANDS = (("check", "--json"), ("run",), ("trace",), ("dump-core",))


def corpus_round(seed: int, round_index: int) -> list[Job]:
    rng = _rng("corpus", seed, round_index)
    golden = GOLDEN_COPY_CORE.read_text(encoding="utf-8")
    jobs = []
    for path in sorted(PROGRAMS.glob("**/*.ord")):
        rel = str(path.relative_to(ROOT))
        for sub in CORPUS_SUBCOMMANDS:
            jobs.append(
                Job(
                    ident=f"corpus/{round_index}/{sub[0]}/{path.name}",
                    argv=(sub[0], rel) + sub[1:],
                    expect_kind=CORPUS_REJECT.get(path.name),
                    golden=golden if sub[0] == "dump-core" and path.name == "copy.ord" else None,
                )
            )
    jobs.append(
        Job(
            ident=f"corpus/{round_index}/dump-graph/copy.ord",
            argv=("dump-graph", str((PROGRAMS / "copy.ord").relative_to(ROOT)), "--binding", "b1"),
        )
    )
    rng.shuffle(jobs)
    return jobs


# Why each workload was chosen, and the layer predicted to dominate it, are
# recorded in BENCHMARK.json.
WORKLOADS = {"wide": wide_round, "borrow": borrow_round, "deep": deep_round, "corpus": corpus_round}
