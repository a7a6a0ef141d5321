"""CLI benchmark for kacmax: seeded workloads of real `kacmax` invocations.

    python3 benchmarks/run.py --workload weights --seed 1 --seconds 25 --trace 0

`--trace 0` (timed run): one client in a closed loop runs the workload's job
list again and again, each job in a fresh process, until `--seconds` have
passed, and reports per-pass medians of the end-to-end metrics.
`--trace 1` (traced run): the same jobs in-process through `kacmax.cli.main`
with KACMAX_THREADS=1, untraced and traced passes in turn, and reports the
per-layer metrics.  `--workload all` runs every workload in turn.
`--record` stores stdout digests of one pass for the given seed.

The last line of stdout is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from jobs import (
    SETUP_ARGV,
    check_output,
    digest,
    digest_key,
    job_env,
    load_digests,
    run_job,
    save_digests,
)
from workloads import WORKLOADS, job_list, uses_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 6  # timed start-up probes before each pass and after the last
JOB_TIMEOUT_S = 60.0
DEADLINE_S = 140.0  # passes stop, and job timeouts shrink, so a run ends within 180 s
CALIBRATION_LOOPS = 4_000_000  # about 0.25 s of pure Python on a 2-core VM


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i
    return time.perf_counter() - t0


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) ticks of all CPUs from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def noise_line(calib: tuple[float, float], ticks0, ticks1) -> str:
    start, end = calib
    line = f"noise: calib_start_s={start:.4f} calib_end_s={end:.4f} drift={end / start - 1:+.1%}"
    if ticks0 and ticks1:
        steal, total = ticks1[0] - ticks0[0], ticks1[1] - ticks0[1]
        line += f" steal_ticks={steal} steal_frac={steal / total if total else 0.0:.4f}"
    else:
        line += " steal_ticks=unavailable"
    return line


class Checker:
    """Checks each job's output and keeps the failure tally."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.attempted = self.failed = self.digest_checked = 0
        self.reasons: list[str] = []

    def check(self, argv, code, stdout) -> None:
        self.attempted += 1
        self.digest_checked += digest_key(argv) in self.digests
        reason = check_output(argv, code, stdout, self.digests)
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{' '.join(argv)}: {reason}")

    def report(self) -> list[str]:
        lines = [f"fail_frac    {self.failed / self.attempted:.4f}     "
                 f"({self.failed} failed of {self.attempted} attempted)"]
        if self.digest_checked == self.attempted:
            lines.append(f"outputs: all {self.attempted} stdouts checked against recorded digests")
        else:
            lines.append(
                f"outputs: {self.digest_checked} of {self.attempted} stdouts have a recorded digest; "
                "the rest were checked by exit code and agreement only"
            )
        lines += [f"FAILED {r}" for r in self.reasons[:20]]
        return lines

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, checker: Checker) -> dict:
    jobs = job_list(workload, seed)
    env = job_env(SRC)
    t_run = time.perf_counter()

    def timeout() -> float:
        return max(0.5, min(JOB_TIMEOUT_S, DEADLINE_S - (time.perf_counter() - t_run)))

    def probes(count: int) -> list:
        return [run_job(SETUP_ARGV, env, ROOT, timeout()) for _ in range(count)]

    calib_start, ticks0 = calibrate(), cpu_ticks()
    # the first start-up also writes the bytecode cache, so it is not timed
    warm_up = probes(1)
    setups = []
    passes = []
    t0 = time.perf_counter()
    while True:
        # probes spread over the run, so set-up time sees the same host as the passes
        setups += probes(SETUP_PROBES)
        passes.append([run_job(argv, env, ROOT, timeout()) for argv in jobs])
        elapsed = time.perf_counter() - t0
        typical = statistics.median(p[-1].end - p[0].start for p in passes)
        if elapsed + typical > seconds or time.perf_counter() - t_run + typical > DEADLINE_S:
            break
    setups += probes(SETUP_PROBES)
    calib = (calib_start, calibrate())
    ticks1 = cpu_ticks()

    for r in warm_up + setups:
        checker.check(r.argv, r.code, r.stdout)
    for p in passes:
        for r in p:
            checker.check(r.argv, r.code, r.stdout)
    walls = [p[-1].end - p[0].start for p in passes]
    cpus = [sum(r.cpu_s for r in p) for p in passes]
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(cpus), "s"),
        # start-up noise only ever adds time, so the fastest probe is the steady figure
        "setup_s": _metric(min(r.wall_s for r in setups), "s"),
        "peak_rss_mb": _metric(max(r.maxrss_mb for p in passes for r in p), "MB"),
    }
    print(f"workload {workload}, seed {seed}: {len(passes)} passes of {len(jobs)} jobs, "
          f"one client, closed loop; {len(setups)} start-up probes")
    print(f"wall_s       {metrics['wall_s']['value']:.4f} s    median pass "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"cpu_s        {metrics['cpu_s']['value']:.4f} s    median pass, jobs and pool workers "
          f"(min {min(cpus):.4f}, max {max(cpus):.4f})")
    print(f"setup_s      {metrics['setup_s']['value']:.4f} s    fastest `kacmax {' '.join(SETUP_ARGV)}` "
          f"(median {statistics.median(r.wall_s for r in setups):.4f})")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB    largest max-RSS of a job")
    for line in checker.report():
        print(line)
    print(noise_line(calib, ticks0, ticks1))
    return metrics


def _import_seconds(env: dict[str, str]) -> float:
    probe = "import time\nt = time.perf_counter()\nimport kacmax.cli\nprint(time.perf_counter() - t)"
    times = []
    for _ in range(5):
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def traced_run(workload: str, seed: int, seconds: float, checker: Checker) -> dict:
    jobs = job_list(workload, seed)
    env = job_env(SRC)
    calib_start, ticks0 = calibrate(), cpu_ticks()

    # pool figures come from real processes with the default worker count
    pool_jobs = [argv for argv in jobs if uses_pool(argv)]
    pool_runs = [run_job(argv, env, ROOT, JOB_TIMEOUT_S) for argv in pool_jobs]
    for r in pool_runs:
        checker.check(r.argv, r.code, r.stdout)
    import_s = _import_seconds(env)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["KACMAX_THREADS"] = "1"
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    passes = 0
    notes: dict[str, None] = {}
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 + (plain_s + traced_s) / passes <= seconds:
        for argv in jobs:
            code, out, job_s, _ = tracing.run_fresh(argv)
            checker.check(argv, code, out)
            plain_s += job_s
        for argv in jobs:
            code, out, job_s, missing = tracing.run_fresh(argv, tracer)
            tracer.counts["cli.stdout_bytes"] += len(out)
            checker.check(argv, code, out)
            traced_s += job_s
            notes.update(dict.fromkeys(missing))
        passes += 1
    calib = (calib_start, calibrate())

    metrics, fixed, never = tracing.layer_metrics(tracer, passes)
    pool_wall = sum(r.wall_s for r in pool_runs)
    pool_cpu = sum(r.cpu_s for r in pool_runs)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.pool.wall_s"] = (pool_wall, "s")
    metrics["cli.pool.cpu_s"] = (pool_cpu, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "frac")

    print(f"workload {workload}, seed {seed}: {passes} untraced and {passes} traced in-process "
          f"passes of {len(jobs)} jobs, each job on fresh kacmax modules, KACMAX_THREADS=1; "
          "figures are per traced pass")
    print(f"trace overhead: traced {traced_s / passes:.4f} s against untraced "
          f"{plain_s / passes:.4f} s per pass")
    if pool_runs:
        print(f"pool: {len(pool_runs)} jobs as real processes, cpu/wall {pool_cpu / pool_wall:.2f} "
              "(a diagnostic: read it against cli.pool.wall_s and cli.pool.cpu_s)")
    else:
        print("pool: no job of this workload uses the pool (cli.pool.* read 0)")
    for name, (value, unit) in fixed.items():
        print(f"fixed by the jobs: {name} = {value:g} {unit}")
    for note in list(notes) + never:
        print(f"note: {note}")
    for line in checker.report():
        print(line)
    print(noise_line(calib, ticks0, cpu_ticks()))
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def record(workload: str, seed: int) -> int:
    """Store the stdout digest of every job of one pass (and the start-up
    probe) for this seed.  Refuses on a failing job or a changed digest."""
    digests = load_digests()
    env = job_env(SRC)
    checker = Checker({})
    fresh = 0
    for argv in [SETUP_ARGV] + job_list(workload, seed):
        r = run_job(argv, env, ROOT, JOB_TIMEOUT_S)
        checker.check(argv, r.code, r.stdout)
        key, value = digest_key(argv), digest(r.stdout)
        if digests.get(key, value) != value:
            print(f"error: {key}: stdout differs from the recorded digest", file=sys.stderr)
            return 1
        fresh += key not in digests
        digests[key] = value
    if checker.failed:
        print("\n".join(checker.reasons), file=sys.stderr)
        return 1
    save_digests(digests)
    print(f"recorded {fresh} new digests for {workload} seed {seed} ({len(digests)} in total)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record stdout digests for this seed instead of measuring")
    args = parser.parse_args(argv)

    if not (SRC / "kacmax" / "cli.py").is_file():
        print(f"error: no kacmax sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record:
        return max(record(w, args.seed) for w in workloads)

    print(f"kacmax benchmark: seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    results = {}
    for w in workloads:
        checker = Checker(load_digests())
        if args.trace:
            metrics = traced_run(w, args.seed, args.seconds, checker)
        else:
            metrics = timed_run(w, args.seed, args.seconds, checker)
        results[w] = checker.result(metrics)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
