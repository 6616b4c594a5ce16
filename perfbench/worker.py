"""Run one job in a fresh worker process and check its output.

The benchmark process never imports ordlang. It starts a fork server
(`python3 worker.py <src>`, see `Workers`): a fresh interpreter that imports
ordlang, then reads one job per line from its standard input, forks a worker
for it, and writes the result back as one line. Each job thus runs in a
child of an interpreter that has done nothing but `import ordlang`, so no
job is served from caches (`lru_cache`s on `interpret`, `to_dfa`, ...) that
another job filled, just as each CLI invocation starts a fresh process, and
a worker's peak RSS holds nothing of the benchmark's own state. The server
starts no threads, so forking it is safe. It enforces a wall-clock limit per
job by killing the worker, and reads the worker's peak RSS from `wait4`.
"""

from __future__ import annotations

import io
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from calibration import Speed
from workloads import Job

HERE = Path(__file__).resolve().parent
FUEL = 100_000  # `ordlang run`'s default
LIMIT_S = 10.0  # per job; a job over it is killed and counted failed
MEMORY_LIMIT = 2 << 30  # bytes of address space per worker; beyond it, MemoryError

# Failures that are a wrong answer rather than no answer (an exception, the
# time limit or fuel running out): they make a run incorrect.
WRONG_ANSWERS = {
    "wrong-verdict", "wrong-kind", "wrong-output", "not-unit", "stuck", "leaked", "oracle-violation",
}


@dataclass
class Result:
    job: Job
    failure: Optional[str] = None  # None when the output was correct
    detail: str = ""
    verdict_ms: Optional[float] = None
    run_ms: Optional[float] = None
    main_ms: Optional[float] = None  # corpus: one whole `cli.main` call
    steps: Optional[int] = None  # evaluation steps of an accepted program
    speed: float = 1.0  # calibration.Speed's factor, measured around the job
    rss_mb: float = 0.0
    trace: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.failure is None


# ---------------------------------------------------------------------------
# Child side

def _render_run(result, opm) -> tuple[str, str]:
    """What `ordlang run` would print for this result, and its outcome."""
    from ordlang import core, interp

    if result.outcome == "fuel-exhausted":
        return "fuel-exhausted", f"fuel exhausted after {FUEL} steps"
    if result.outcome == "stuck":
        return "stuck", (
            f"stuck({result.stuck_reason}) at {core.pretty(result.stuck_redex, opm)} "
            f"with heap {interp.show_heap(result.config.heap, opm)}"
        )
    if result.violations:
        return "oracle-violation", "; ".join(v for _, v in result.violations)
    if result.config.heap:
        return "leaked", f"leaked resources: {interp.show_heap(result.config.heap, opm)}"
    return "value", core.pretty(result.config.term, opm)


def _program_job(job: Job, out: dict, span) -> None:
    """Time parse -> check -> run -> render, as `ordlang run` would do them."""
    from ordlang import checker, cli, interp, surface
    from ordlang.checker import TypeCheckError
    from ordlang.opm import get_opm
    from ordlang.surface import ParseError

    opm = get_opm(job.opm)
    out["phase"] = "verdict"
    diagnostic = None
    t0 = perf_counter()
    try:  # a phase that raises still records how long it ran
        with span("bench.verdict"):
            try:
                program = surface.parse(job.source, opm)
                checked = checker.check_program(program, opm)
            except (ParseError, TypeCheckError) as exc:
                with span("cli.render"):
                    kind = getattr(exc, "kind", "parse-error")
                    message = exc.message
                    if getattr(exc, "expected", None) is not None:
                        message += f" (expected {exc.expected}, got {exc.actual})"
                    diagnostic = cli._diag("<input>", kind, exc.span.line, exc.span.col, message, False)
    finally:
        out["verdict_ms"] = (perf_counter() - t0) * 1000
    if diagnostic is not None:
        if job.expect_kind is None:
            out["failure"], out["detail"] = "wrong-verdict", f"rejected: {diagnostic[:300]}"
        elif kind != job.expect_kind:
            out["failure"], out["detail"] = "wrong-kind", f"expected {job.expect_kind}: {diagnostic[:300]}"
        return
    if job.expect_kind is not None:
        out["failure"], out["detail"] = "wrong-verdict", f"accepted, expected {job.expect_kind}"
        return

    out["phase"] = "run"
    t0 = perf_counter()
    try:
        with span("bench.run"):
            result = interp.run(checked.core, opm, fuel=FUEL)
            with span("cli.render"):
                outcome, text = _render_run(result, opm)
    finally:
        out["run_ms"] = (perf_counter() - t0) * 1000
    out["steps"] = len(result.steps)
    if outcome != "value":
        out["failure"], out["detail"] = outcome, text[:300]
    elif text != "unit":
        out["failure"], out["detail"] = "not-unit", text[:300]


def _check_cli(job: Job, code: int, stdout: str, stderr: str) -> Optional[str]:
    """Hand-written expectations for the corpus; a message on mismatch."""
    sub = job.subcommand
    if job.expect_kind is not None:
        if code != 1:
            return f"exit {code}, expected 1"
        if sub == "check":
            kinds = [json.loads(line)["kind"] for line in stderr.splitlines()]
            if kinds != [job.expect_kind]:
                return f"diagnostics {kinds}, expected [{job.expect_kind!r}]"
        elif f": {job.expect_kind}: " not in stderr:
            return f"no {job.expect_kind} diagnostic in {stderr[:200]!r}"
        return None
    if code != 0 or stderr:
        return f"exit {code}, stderr {stderr[:200]!r}"
    lines = stdout.splitlines()
    if sub == "check" and stdout != "ok\n":
        return f"stdout {stdout[:200]!r}, expected 'ok'"
    if sub == "run" and stdout != "unit\n":
        return f"stdout {stdout[:200]!r}, expected 'unit'"
    if sub == "trace" and (
        lines[-1:] != ["unit"] or not all(line.startswith(f"[{i}] ") for i, line in enumerate(lines[:-1]))
    ):
        return f"trace does not end in unit: {stdout[-200:]!r}"
    if sub == "dump-core" and (not stdout.strip() or job.golden is not None and stdout != job.golden):
        return "dump-core differs from the golden file"
    if sub == "dump-graph" and not (stdout.startswith('digraph "b1" {\n') and stdout.endswith("}\n")):
        return f"not a DOT graph: {stdout[:200]!r}"
    return None


def _corpus_job(job: Job, out: dict, span) -> None:
    from ordlang import cli

    phase = {"check": "verdict", "run": "run"}.get(job.subcommand, "other")
    out["phase"] = phase
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with span(f"bench.{phase}"), redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(list(job.argv))
    finally:
        out["main_ms"] = (perf_counter() - t0) * 1000
    problem = _check_cli(job, code, stdout.getvalue(), stderr.getvalue())
    if problem is not None:
        out["failure"], out["detail"] = "wrong-output", problem


def _child(job: Job, traced: bool) -> dict:
    out: dict = {}
    speed = Speed()
    tracer = None
    if traced:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    try:
        if job.source is not None:
            _program_job(job, out, span)
        else:
            _corpus_job(job, out, span)
    except Exception as exc:  # a defect of the program under test, recorded as a failure
        out["failure"] = type(exc).__name__
        out["detail"] = f"in the {out.get('phase', '?')} phase: {str(exc)[:200]}"
    out["speed"] = speed.factor()
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


# ---------------------------------------------------------------------------
# Fork server side

def _fork_job(job: Job, traced: bool, limit_s: float) -> dict:
    """Fork a worker for `job`, wait at most `limit_s`, and collect its result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # worker: never returns into the server's loop
        status = 0
        try:
            os.close(read_fd)
            resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
            payload = json.dumps(_child(job, traced)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        except BaseException:
            status = 70
        finally:
            os._exit(status)

    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + limit_s
    timed_out = False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:  # interrupted: do not leave the worker running
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)

    rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    if timed_out:
        return {"failure": "timeout", "detail": f"killed after {limit_s:g} s", "rss_mb": rss_mb}
    if not chunks:
        return {"failure": "worker-crash", "detail": f"wait status {status}", "rss_mb": rss_mb}
    return {**json.loads(b"".join(chunks)), "rss_mb": rss_mb}


def serve() -> None:
    """The fork server's loop: one JSON request per line in, one result out.

    Stray output of ordlang goes to standard error; results are written to
    the original standard output only.
    """
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    import ordlang  # noqa: F401  (workers are forked after the import)

    replies.write("ready\n")
    replies.flush()
    for line in sys.stdin:
        request = json.loads(line)
        job = Job(**{**request["job"], "argv": tuple(request["job"]["argv"])})
        replies.write(json.dumps(_fork_job(job, request["traced"], request["limit_s"])) + "\n")
        replies.flush()


# ---------------------------------------------------------------------------
# Benchmark side

class Workers:
    """A fork server in a fresh interpreter, with `PYTHONHASHSEED` set to
    `hash_seed` when given; use as a context manager."""

    def __init__(self, hash_seed: Optional[int] = None) -> None:
        env = dict(os.environ)
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = str(hash_seed)
        # A process group of its own, so that killing it takes a running worker too.
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(HERE.parent / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            start_new_session=True,
        )
        if self._reply(60) != "ready\n":
            self.close()
            raise RuntimeError("the fork server did not start")

    def _reply(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        return self.proc.stdout.readline() if ready else ""

    def execute(self, job: Job, traced: bool = False, limit_s: float = LIMIT_S) -> Result:
        request = {"job": asdict(job), "traced": traced, "limit_s": limit_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self._reply(limit_s + 30)  # the server itself stops the job at limit_s
        if not line:
            os.killpg(self.proc.pid, signal.SIGKILL)
            raise RuntimeError(f"the fork server gave no answer for {job.ident}")
        out = json.loads(line)
        return Result(
            job,
            failure=out.get("failure"),
            detail=out.get("detail", ""),
            verdict_ms=out.get("verdict_ms"),
            run_ms=out.get("run_ms"),
            main_ms=out.get("main_ms"),
            steps=out.get("steps"),
            speed=out.get("speed", 1.0),
            rss_mb=out["rss_mb"],
            trace=out.get("trace"),
        )

    def close(self) -> None:
        """Stop the server (and any worker of it) and wait until it has ended."""
        self.proc.stdin.close()  # the server ends at the end of its input
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    serve()
