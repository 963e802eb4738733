"""Runs inside the measured process: imports the CLI and calls its main().

  launch.py probe ARGV...          import and parse only; print the time
  launch.py run META ARGV...       one CLI invocation, stdout untouched
  launch.py corpus META JOBS       many invocations, per-call deadline

``META`` receives a JSON record (exit codes, time inside main(), and for
``corpus`` each call's output and start and end).  With
``LIESTRATA_BENCH_SPANS`` set to a path the process installs the tracer
first and writes its spans there at the end.  Times
are ``time.monotonic()`` readings (CLOCK_MONOTONIC, shared with the parent
process) or perf_counter differences.
"""

from __future__ import annotations

import gc
import io
import json
import os
import signal
import sys
import time
from contextlib import redirect_stdout

SPANS_ENV = "LIESTRATA_BENCH_SPANS"


class Deadline(BaseException):
    """Raised by SIGALRM; not an Exception, so the CLI cannot catch it."""


def _alarm(signum, frame):
    raise Deadline()


def _tracer():
    path = os.environ.get(SPANS_ENV)
    if not path:
        return None, None
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer, path


def _finish(meta_path: str, meta: dict, tracer, spans_path) -> None:
    if tracer is not None:
        tracer.write(spans_path)
        meta["counters"] = dict(tracer.counters)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def probe(argv: list[str]) -> int:
    from liestrata.cli import build_parser

    build_parser().parse_args(argv)
    print(repr(time.monotonic()))
    return 0


def run(meta_path: str, argv: list[str]) -> int:
    from liestrata.cli import main

    tracer, spans_path = _tracer()
    start = time.perf_counter()
    rc = main(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    _finish(meta_path, {"rc": rc, "main_s": main_s}, tracer, spans_path)
    return 0


def corpus(meta_path: str, jobs_path: str) -> int:
    """Each job is one stratum: its calls run in order until one misses
    the per-call deadline, which fails the stratum and skips the rest.

    The process runs no thread besides the main one.  With a second thread
    (an in-process memory sampler, say), what a cut-off call allocated
    stays resident after it is collected, which lifted the resident memory
    of every later call from about 22 MB to 55-90 MB.  The parent samples
    resident memory instead; each call's ``start`` and ``end`` tell it
    which samples fall inside a completed call."""
    from liestrata.cli import main

    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    deadline = float(jobs["deadline_s"])
    tracer, spans_path = _tracer()
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    main_s = 0.0
    for job in jobs["strata"]:
        calls = []
        status = "ok"
        for argv in job["calls"]:
            buf = io.StringIO()
            start = time.monotonic()
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                try:
                    with redirect_stdout(buf):
                        rc = main(argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                status = "timeout"
                if tracer is not None:
                    tracer.abort()
            end = time.monotonic()
            main_s += end - start
            if status == "timeout":
                gc.collect()  # drop what the cut-off call built
                calls.append({"rc": None, "seconds": end - start, "out": ""})
                break
            calls.append({"rc": rc, "seconds": end - start, "start": start,
                          "end": end, "out": buf.getvalue()})
        results.append({"id": job["id"], "status": status, "calls": calls})
    _finish(meta_path, {"main_s": main_s, "strata": results}, tracer,
            spans_path)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        sys.exit(probe(rest))
    if mode == "run":
        sys.exit(run(rest[0], rest[1:]))
    if mode == "corpus":
        sys.exit(corpus(rest[0], rest[1]))
    sys.exit(f"unknown mode {mode!r}")
