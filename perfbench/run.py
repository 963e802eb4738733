"""liestrata benchmark: census sweeps and stratum analysis through the CLI.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (it finds ``src/liestrata`` next to this
directory; there is nothing to build).  Every measured process is
``python3 perfbench/launch.py``, which imports ``liestrata.cli`` and calls
its ``main()``.  Workloads:

* census-json: ``sweep --n 7 --size 4 --format structured --workers 2``.
  Every stratum is emitted, so serialization and the process pool's
  result shipping dominate and ``classify`` does no work.
* census-classify: ``sweep --n 7 --size 5 --filter finite-1q2``, serial.
  324 632 strata visited, 2 782 emitted: the sweep engine and
  ``classify``/``rank`` dominate and output is negligible.
* stratum-analysis: a seeded corpus of 200 strata (see corpus.py), each
  through ``analyze --cross-section`` (text, then structured) and
  ``isomorphic``.  Cross sections, Fourier-Motzkin and the linear algebra
  kernels dominate; there is no sweep.

The census workloads repeat their command for ``--seconds`` and report
medians; the analysis workload runs its corpus once, whatever ``--seconds``
says (50-60 s on a 2-core machine, 30 s of it the six strata that end
at the per-call deadline).  Every output is checked (see checks.py); the last
stdout line is the JSON result.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reruns the work untraced and traced and reports
per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import corpus
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
LAUNCH = os.path.join(BENCH, "launch.py")

CENSUS = {
    "census-json": {"argv": ["sweep", "--n", "7", "--size", "4", "--format",
                             "structured", "--workers", "2"],
                    "format": "structured"},
    "census-classify": {"argv": ["sweep", "--n", "7", "--size", "5",
                                 "--filter", "finite-1q2"],
                        "format": "text"},
}
ANALYSIS = "stratum-analysis"
# Per CLI call.  Every recorded call either finishes within 1.6 s (2.5 s
# seen in a slow minute) or runs past 16 s, so the deadline sits well clear
# of both.
DEADLINE_S = 5.0
# Set-up launches before the workload and as many again after it, so a slow
# minute on a shared machine weighs on half of them.
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "liestrata", "cli.py")):
        print(f"error: no liestrata sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def _env(spans_path: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("LIESTRATA_WORKERS", None)
    env.pop("LIESTRATA_BENCH_SPANS", None)
    if spans_path:
        env["LIESTRATA_BENCH_SPANS"] = spans_path
    return env


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def _tree_rss_kb(pid: int) -> int:
    total = 0
    stack = [pid]
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * page_kb
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue
    return total


def measure(cmd: list[str], stdout_path: str, env: dict,
            limit_s: float, samples: list | None = None) -> dict:
    """Run cmd to exit: wall time, peak RSS of its process tree, exit code.

    Peak RSS is the larger of the kernel's high-water mark for the process
    (and its waited-for children) and the summed tree RSS sampled every
    10 ms, which catches pool workers alive at the same time.  Each sample
    is also appended to ``samples`` as (time.monotonic(), KiB) if given.
    """
    peak = [0]
    done = threading.Event()
    killed = threading.Event()
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)

        def sample():
            while not done.wait(0.01):
                now = time.monotonic()
                kb = _tree_rss_kb(proc.pid)
                peak[0] = max(peak[0], kb)
                if samples is not None:
                    samples.append((now, kb))

        def kill():
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        sampler = threading.Thread(target=sample)
        sampler.start()
        timer = threading.Timer(limit_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.monotonic() - start
            timer.cancel()
            done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode,
            "timed_out": killed.is_set(),
            "peak_mb": max(peak[0], usage.ru_maxrss) / 1024}


def setup_times(argv: list[str]) -> list[float]:
    """Launch to parsed arguments, SETUP_PROBES times after one warm-up."""
    env = _env()
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, LAUNCH, "probe", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()) - start)
    return times[1:]


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def census_invocation(tag: str, argv: list[str], trace: bool) -> dict:
    meta = os.path.join(WORK, f"{tag}.meta.json")
    spans_path = os.path.join(WORK, f"{tag}.spans.tsv") if trace else None
    for path in (meta, spans_path):
        if path and os.path.exists(path):
            os.remove(path)
    out = os.path.join(WORK, f"{tag}.out")
    res = measure([sys.executable, LAUNCH, "run", meta, *argv], out,
                  _env(spans_path), RUN_LIMIT_S)
    res.update(out=out, spans=spans_path, main_s=None, counters={})
    if res["rc"] == 0 and os.path.exists(meta):
        info = _read_json(meta)
        res.update(rc=info["rc"], main_s=info["main_s"],
                   counters=info.get("counters", {}))
    return res


def corpus_pass(jobs: list[dict], deadline_s: float, tag: str,
                trace: bool = False, limit_s: float = RUN_LIMIT_S) -> dict:
    jobs_path = os.path.join(WORK, f"{tag}.jobs.json")
    meta = os.path.join(WORK, f"{tag}.meta.json")
    spans_path = os.path.join(WORK, f"{tag}.spans.tsv") if trace else None
    for path in (meta, spans_path):
        if path and os.path.exists(path):
            os.remove(path)
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump({"deadline_s": deadline_s, "strata": jobs}, fh)
    samples = []
    res = measure([sys.executable, LAUNCH, "corpus", meta, jobs_path],
                  os.path.join(WORK, f"{tag}.out"), _env(spans_path), limit_s,
                  samples)
    if res["rc"] != 0 or not os.path.exists(meta):
        raise RuntimeError(f"corpus pass {tag} ended with exit code "
                           f"{res['rc']}" + (" (killed)" if res["timed_out"]
                                             else ""))
    res.update(meta=_read_json(meta), spans=spans_path)
    res["completed_peak_mb"] = completed_peak_kb(res["meta"], samples) / 1024
    return res


def completed_peak_kb(meta: dict, samples: list[tuple[float, int]]) -> int:
    """The largest RSS sample taken inside a call that finished.  A call cut
    off at the deadline holds whatever its Fourier-Motzkin step reached by
    then, which follows the machine's speed, so its samples do not count."""
    windows = sorted((c["start"], c["end"]) for r in meta["strata"]
                     for c in r["calls"] if c["rc"] is not None)
    peak, i = 0, 0
    for t, kb in samples:  # both in time order
        while i < len(windows) and windows[i][1] < t:
            i += 1
        if i < len(windows) and windows[i][0] <= t:
            peak = max(peak, kb)
    return peak


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def census_size(argv: list[str]) -> int:
    n = int(argv[argv.index("--n") + 1])
    size = int(argv[argv.index("--size") + 1])
    return math.comb(math.comb(n, 3), size)


def with_workers(argv: list[str], workers: int) -> list[str]:
    if "--workers" in argv:
        i = argv.index("--workers")
        return argv[:i] + argv[i + 2:] + ["--workers", str(workers)]
    return argv + ["--workers", str(workers)]


def _layer_metrics(spans_path: str, traced_wall: float,
                   counters: dict) -> dict:
    recs = spans.read(spans_path)
    summ = spans.summarize(recs, traced_wall)
    calls, incl, self_s = summ["calls"], summ["inclusive_s"], summ["self_s"]
    classify_calls = calls["quadruples.classify"]
    emitted = counters.get("sweep.strata_emitted", 0)
    candidates = counters.get("cross_sections.delta_domain_candidates", 0)
    out = {f"{layer}.self_s": t for layer, t in self_s.items()}
    out.update({
        "sweep.strata_enumerated": counters.get("sweep.strata_enumerated", 0),
        "sweep.strata_emitted": emitted,
        "quadruples.classify_calls": classify_calls,
        "quadruples.classify_s": incl["quadruples.classify"],
        "quadruples.classify_hit_ratio":
            emitted / classify_calls if classify_calls else 0.0,
        "quadruples.quadruple_table_s": incl["quadruples.quadruple_table"],
        "quadruples.null_space_spanning_s":
            incl["quadruples.null_space_spanning"],
        "linalg.rank_calls": calls["linalg.rank"],
        "linalg.rank_s": incl["linalg.rank"],
        "linalg.left_null_basis_s": incl["linalg.left_null_basis"],
        "linalg.primitive_span_basis_s": incl["linalg.primitive_span_basis"],
        "linalg.gf2_coset_transversal_s":
            incl["linalg.gf2_coset_transversal"],
        "jacobi.jacobi_system_s": incl["jacobi.jacobi_system"],
        "orbits.d_orbit_s": spans.outermost(
            recs, {f"orbits.{f}" for f in spans.TRACED["orbits"]}),
        "cross_sections.delta_domain_calls":
            calls["cross_sections.delta_domain"],
        "cross_sections.delta_domain_s": incl["cross_sections.delta_domain"],
        "cross_sections.delta_domain_kept_ratio":
            counters.get("cross_sections.delta_domain_kept", 0) / candidates
            if candidates else 0.0,
        "cross_sections.solve_branch_s":
            incl["cross_sections.solve_branch_fixtures"],
        "cross_sections.branches": counters.get("cross_sections.branches", 0),
        "cross_sections.lemma58_s": incl["cross_sections.lemma58_certificate"],
        "poly.rational_roots_calls": calls["poly.rational_roots"],
        "poly.rational_roots_s": incl["poly.rational_roots"],
        "report.build_s": spans.outermost(
            recs, {"report.build_analysis_report",
                   "report.build_cross_section_report",
                   "report.build_isomorphism_report"}),
        "report.render_text_s": incl["report.render_text"],
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": summ["unattributed_s"],
    })
    return out


COUNT_METRICS = ("sweep.strata_enumerated", "sweep.strata_emitted",
                 "quadruples.classify_calls", "linalg.rank_calls",
                 "cross_sections.delta_domain_calls",
                 "cross_sections.delta_domain_kept_ratio",
                 "cross_sections.branches", "poly.rational_roots_calls",
                 "cli.output_bytes")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []


def run_census(name: str, seconds: float, trace: bool, oc: Outcome) -> None:
    spec = CENSUS[name]
    expected = _read_json(os.path.join(BENCH, "expected.json")).get(name)
    if expected is None:
        raise RuntimeError(f"no recorded outputs for {name}; run record.py")
    argv = spec["argv"]
    is_serial = "--workers" not in argv
    serial = with_workers(argv, 1)
    reference_sha = None

    def invoke(tag, args, traced=False):
        nonlocal reference_sha
        oc.attempted += 1
        res = census_invocation(f"{name}.{tag}", args, traced)
        if res["rc"] != 0 or res["timed_out"]:
            oc.failed += 1
            oc.problems.append(f"{tag}: exit code {res['rc']}"
                               + (" (killed)" if res["timed_out"] else ""))
            return None
        sha = checks.file_sha256(res["out"])
        if reference_sha is None:
            found = checks.census_summary(res["out"], spec["format"])
            problems = checks.check_census(found, expected)
            oc.problems.extend(f"{tag}: {p}" for p in problems)
            reference_sha = sha
        elif sha != reference_sha:
            oc.problems.append(f"{tag}: output differs from the first run")
        res["bytes"] = os.path.getsize(res["out"])
        return res

    start = time.monotonic()
    if not trace:
        walls, peaks = [], []
        while True:
            res = invoke(f"rep{len(walls)}", argv)
            if res is None:
                break
            walls.append(res["wall_s"])
            peaks.append(res["peak_mb"])
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(walls) > seconds:
                break
        if not walls:
            return
        # A census has no per-stratum latency seen from outside; its cost per
        # stratum is the invocation's wall time over the census size.  A p90
        # needs ten samples beyond it, far more invocations than a run holds,
        # so both percentiles report the median.
        size = expected["census_size"]
        per_stratum = statistics.median(walls) * 1000 / size
        oc.metrics.update({
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
            "stratum_p50_ms": (per_stratum, "ms"),
            "stratum_p90_ms": (per_stratum, "ms"),
        })
        oc.notes.append(f"{len(walls)} invocations; stratum_p50_ms and "
                        f"stratum_p90_ms are the median wall time / {size} "
                        f"strata in the census")
        oc.notes.append("invocation wall_s: "
                        + " ".join(f"{w:.3f}" for w in walls))
        return
    rounds = []
    while True:
        first = invoke(f"r{len(rounds)}.workload", argv)
        other = invoke(f"r{len(rounds)}.variant",
                       with_workers(argv, 2) if is_serial else serial)
        traced = invoke(f"r{len(rounds)}.traced", serial, traced=True)
        if None in (first, other, traced):
            return
        untraced_serial, untraced_pool = (first, other) if is_serial \
            else (other, first)
        layer = _layer_metrics(traced["spans"], traced["main_s"],
                               traced["counters"])
        layer["cli.output_bytes"] = traced["bytes"]
        layer["sweep.pool_speedup"] = \
            untraced_serial["wall_s"] / untraced_pool["wall_s"]
        layer["trace.overhead_s"] = traced["main_s"] - untraced_serial["main_s"]
        layer["trace.overhead_ratio"] = \
            traced["main_s"] / untraced_serial["main_s"]
        rounds.append(layer)
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    _merge_rounds(rounds, oc)
    if rounds[0]["sweep.strata_enumerated"] != expected["census_size"]:
        oc.problems.append(
            f"enumerated {rounds[0]['sweep.strata_enumerated']} strata, "
            f"census has {expected['census_size']}")


def _merge_rounds(rounds: list[dict], oc: Outcome) -> None:
    """Report the round with the median traced wall time, whole, so its
    layer self times still add up to its wall time; counts must agree
    exactly across rounds."""
    for key in COUNT_METRICS:
        values = {r[key] for r in rounds}
        if len(values) > 1:
            oc.problems.append(f"{key} differs between rounds: {values}")
    ordered = sorted(rounds, key=lambda r: r["trace.wall_s"])
    chosen = ordered[(len(ordered) - 1) // 2]
    for key, value in chosen.items():
        oc.metrics[key] = (value, _layer_unit(key))
    oc.notes.append(f"{len(rounds)} traced round(s), median one reported")


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio") or key.endswith("_speedup"):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


def run_analysis(seed: int, trace: bool, oc: Outcome) -> None:
    strata = corpus.load_strata(os.path.join(BENCH, "strata.json"))
    items = corpus.build(strata, seed)
    paths = corpus.write_inputs(items, os.path.join(WORK, ANALYSIS))
    jobs = [{"id": it["id"], "calls": [
        ["analyze", "--cross-section", paths[it["id"]]],
        ["analyze", "--cross-section", "--format", "structured",
         paths[it["id"]]],
        ["isomorphic", "--format", "structured", paths[it["id"]]]]}
        for it in items]
    by_id = {it["id"]: it for it in items}

    def one_pass(tag, traced):
        res = corpus_pass(jobs, DEADLINE_S, f"{ANALYSIS}.{tag}", traced)
        failed, latencies, points, out_bytes = [], [], 0, 0
        for r in res["meta"]["strata"]:
            item = by_id[r["id"]]
            out_bytes += sum(len(c["out"].encode()) for c in r["calls"])
            # a stratum that missed the deadline keeps the time it used,
            # which exceeds every completed one
            latencies.append(sum(c["seconds"] for c in r["calls"]))
            if r["status"] != "ok":
                failed.append(r["id"])
                continue
            problems, found = checks.check_stratum(item, r)
            points += found
            oc.problems.extend(problems)
            if problems:
                failed.append(r["id"])
        res.update(failed=failed, latencies=latencies, points=points,
                   out_bytes=out_bytes)
        return res

    plain = one_pass("untraced", False)
    oc.attempted = len(items)
    oc.failed = len(plain["failed"])
    for sid in plain["failed"]:
        it = by_id[sid]
        oc.notes.append(f"failed {sid}: n={it['n']} size={it['size']} "
                        f"kernel_dim={it['kernel_dim']} {it['index_set']}")
    oc.notes.append(f"{len(items)} strata, {plain['points']} Lie points "
                    f"checked, per-call deadline {DEADLINE_S} s")
    if not trace:
        lat = plain["latencies"]
        oc.notes.append("process-tree peak RSS including cut-off calls: "
                        f"{plain['peak_mb']:.1f} MB")
        oc.metrics.update({
            "wall_s": (plain["wall_s"], "s"),
            # not the tree's high-water mark; see completed_peak_kb
            "peak_rss_mb": (plain["completed_peak_mb"], "MB"),
            "stratum_p50_ms": (percentile(lat, 0.5) * 1000, "ms"),
            "stratum_p90_ms": (percentile(lat, 0.9) * 1000, "ms"),
        })
        return
    traced = one_pass("traced", True)
    if traced["failed"] != plain["failed"]:
        oc.problems.append("the deadline failed other strata when traced: "
                           f"{plain['failed']} vs {traced['failed']}")
    layer = _layer_metrics(traced["spans"], traced["meta"]["main_s"],
                           traced["meta"].get("counters", {}))
    layer["cli.output_bytes"] = traced["out_bytes"]
    layer["sweep.pool_speedup"] = 0.0
    layer["trace.overhead_s"] = \
        traced["meta"]["main_s"] - plain["meta"]["main_s"]
    layer["trace.overhead_ratio"] = \
        traced["meta"]["main_s"] / plain["meta"]["main_s"]
    _merge_rounds([layer], oc)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    rev = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            rev = fh.read().strip()
        if rev.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", rev[5:])
            if os.path.isfile(ref):
                with open(ref, encoding="utf-8") as fh:
                    rev = fh.read().strip()
    pkg = os.path.join(SRC, "liestrata")
    blob = "".join(checks.file_sha256(os.path.join(pkg, f))
                   for f in sorted(os.listdir(pkg)) if f.endswith(".py"))
    return {"git_rev": rev, "src_digest": checks.digest(blob),
            "python": platform.python_version(), "cpus": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*CENSUS, ANALYSIS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    require_program()
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    for entry in os.listdir(WORK):
        if entry.startswith(args.workload + "."):
            path = os.path.join(WORK, entry)
            (shutil.rmtree if os.path.isdir(path) else os.remove)(path)

    oc = Outcome()
    probe = CENSUS[args.workload]["argv"] if args.workload in CENSUS \
        else ["analyze", "--cross-section", "-"]
    setups = [] if args.trace else setup_times(probe)
    if args.workload in CENSUS:
        run_census(args.workload, args.seconds, bool(args.trace), oc)
    else:
        run_analysis(args.seed, bool(args.trace), oc)
    if not args.trace:
        setups += setup_times(probe)
        oc.metrics["setup_s"] = (statistics.median(setups), "s")
        oc.notes.append(f"setup: median of {len(setups)} launches, half "
                        "before the workload and half after")
        # reported as 1 - failed_frac: a metric that is 0 on most workloads
        # cannot carry a relative bound
        failed_frac = oc.failed / oc.attempted if oc.attempted else 1.0
        oc.metrics["ok_frac"] = (1.0 - failed_frac, "ratio")
        oc.notes.append(f"failed_frac: {failed_frac:.6g} "
                        f"({oc.failed} of {oc.attempted})")

    env = environment()
    correct = not oc.problems and oc.attempted > 0
    result = {"correct": correct, "attempted": oc.attempted,
              "failed": oc.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(oc.metrics.items())}}
    with open(os.path.join(WORK, f"{args.workload}.result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "notes": oc.notes,
                   "problems": oc.problems, **result}, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in oc.notes:
        print(f"# {note}")
    for problem in oc.problems:
        print(f"# CHECK FAILED: {problem}")
    for key, (value, unit) in sorted(oc.metrics.items()):
        print(f"# {key}: {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
