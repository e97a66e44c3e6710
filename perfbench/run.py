"""ppcd benchmark runner.

    python3 perfbench/run.py --workload an-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The runner starts one single-threaded
worker process at a time (``worker.py``), checks every CLI call against
the recorded reference (``reference.json``), prints each metric with its
unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer ones, from wrapped runs.

Grid workloads run each pass in a fresh worker, so every pass pays the
interpreter start, the import and cold caches as a CLI user does.  The
``queries`` workload runs its whole stream in one long-lived worker.

Times are reported in reference-speed seconds.  The machine is shared,
and how fast it runs interpreted code drifts by tens of percent within
a minute.  So the worker times a fixed calibration loop right after
set-up, around each pass and twice a second during it, and each time is
scaled by ``REF_CALIBRATION_S / calibration``.  The unscaled pass time
is printed as well.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_CALIBRATION_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

PROBES = 5  # set-up samples taken before measuring, after one warm-up start
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict[str, str]:
    """The caller's environment without the variables that change what is
    measured: PPCD_* ones (such as PPCD_SCAN_BOUND) change what the CLI
    does, and PYTHONDONTWRITEBYTECODE would make every start recompile
    ppcd, which an installed CLI does not."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PPCD_") and k != "PYTHONDONTWRITEBYTECODE"}


def start_worker(workload: str, seed: int, mode: str, trace: bool, seconds: float = 0.0):
    """Run one worker to completion; return (raw set-up seconds, report)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--trace", str(int(trace)), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} failed (exit {proc.returncode}):\n{err}")
    report = json.loads(out)
    if report.get("threads", 1) != 1:
        # The calibration that scales the timings assumes one thread.
        raise BenchError(f"worker ran {report['threads']} threads; the benchmark assumes one")
    return setup, report


def speed(calib_s: float) -> float:
    """Factor that turns seconds measured now into reference-speed seconds."""
    return REF_CALIBRATION_S / calib_s


def speed_around(samples: list[list[float]], start: float, end: float) -> float:
    """Speed factor from the calibration samples taken between ``start``
    and ``end``, plus the last one before and the first one after."""
    times = [t for t, _, _ in samples]
    lo = max(bisect.bisect_left(times, start) - 1, 0)
    hi = bisect.bisect_right(times, end) + 1
    return speed(statistics.fmean(c for _, c, _ in samples[lo:hi]))


def scale_passes(worker: dict) -> None:
    """Add to each pass of a worker its calls in reference-speed seconds,
    their sum, and the speed factor over the whole pass."""
    samples = worker["calibration"]
    for p in worker["passes"]:
        p["scaled_s"] = [op[4] * speed_around(samples, op[5], op[6]) for op in p["ops"]]
        p["wall_ref_s"] = sum(p["scaled_s"])
        p["speed"] = speed_around(samples, p["ops"][0][5], p["ops"][-1][6])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(samples: int) -> float:
    """The quantile reported as p99: 0.99, lowered until at least ten
    samples lie beyond it, and never below the median.  A grid run has
    only a few calls, so its "p99" is the median call."""
    return max(0.5, min(0.99, 1.0 - 10.0 / samples))


def measure(workload: str, kind: str, seed: int, seconds: float, trace: bool):
    """Set-up samples (raw seconds, calibration), worker reports, passes."""
    start_worker(workload, seed, "probe", False)  # warm-up: bytecode and file caches
    reports = [start_worker(workload, seed, "probe", False) for _ in range(PROBES)]
    if kind == "stream":
        reports.append(start_worker(workload, seed, "stream", trace, seconds))
    else:
        t0 = time.perf_counter()
        longest = 0.0
        # Start a pass only if one as long as the longest so far still ends
        # within the run, so that a run lasts about --seconds.
        while len(reports) < PROBES + MIN_PASSES or time.perf_counter() - t0 + longest <= seconds:
            # In trace mode untraced and traced passes alternate.
            traced = trace and (len(reports) - PROBES) % 2 == 1
            t_pass = time.perf_counter()
            reports.append(start_worker(workload, seed, "grid", traced))
            longest = max(longest, time.perf_counter() - t_pass)
    setups = [(setup, report["calibration"][0][1]) for setup, report in reports]
    workers = [report for _, report in reports if "passes" in report]
    for worker in workers:
        scale_passes(worker)
    passes = [p for r in workers for p in r["passes"]]
    return setups, workers, passes


def check(entries: list[dict], passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed): a call fails when its exit code or either
    digest differs from the reference."""
    attempted = failed = 0
    for p in passes:
        for idx, code, out, err, *_ in p["ops"]:
            ref = entries[idx]
            attempted += 1
            failed += (code, out, err) != (ref["code"], ref["out"], ref["err"])
    return attempted, failed


def end_to_end(setups, workers, passes) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count).  Times are reference-speed seconds."""
    walls = [p["wall_ref_s"] for p in passes]
    latencies_ms = [t * 1000.0 for p in passes for t in p["scaled_s"]]
    setup_s = [raw * speed(calib) for raw, calib in setups]
    rss = [r["peak_rss_mb"] for r in workers]
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "peak_rss_mb": (statistics.median(rss), len(rss)),
        "query_ms.p50": (percentile(latencies_ms, 0.50), len(latencies_ms)),
        "query_ms.p99": (percentile(latencies_ms, tail_quantile(len(latencies_ms))),
                         len(latencies_ms)),
    }


def per_layer(kind: str, passes) -> dict[str, tuple[float, int]]:
    """Median of each layer metric over the traced passes, times in
    reference-speed seconds, plus the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if kind == "stream" and len(untraced) > 1:
        untraced = untraced[1:]  # the first pass of the stream fills the caches
    metrics = {}
    for name in traced[0]["layers"]:
        scale = [p["speed"] if name.endswith("_s") else 1.0 for p in traced]
        values = [p["layers"][name] * k for p, k in zip(traced, scale)]
        metrics[name] = (statistics.median(values), len(values))
    overhead = (statistics.median(p["wall_ref_s"] for p in traced)
                - statistics.median(p["wall_ref_s"] for p in untraced))
    metrics["trace.overhead_s"] = (overhead, len(traced) + len(untraced))
    return metrics


def write_trace(workload: str, seed: int, passes) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    spans = [{key: p[key] for key in ("wall_s", "wall_ref_s", "speed", "spans", "layers")}
             for p in passes if p["traced"]]
    path.write_text(json.dumps(spans, indent=1) + "\n")
    return path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ppcd" / "cli.py").is_file():
        raise BenchError(f"no ppcd sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    corpus = json.loads((HERE / "reference.json").read_text())["workloads"]
    if args.workload not in corpus:
        raise BenchError(f"unknown workload {args.workload!r}; have {sorted(corpus)}")
    kind = corpus[args.workload]["kind"]
    entries = corpus[args.workload]["entries"]

    setups, workers, passes = measure(args.workload, kind, args.seed, args.seconds, bool(args.trace))
    attempted, failed = check(entries, passes)
    wrappers_as_asked = all(r["wrappers_loaded"] == any(p["traced"] for p in r["passes"])
                            for r in workers)
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(kind, passes)
        print(f"trace written to {write_trace(args.workload, args.seed, passes)}")
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(setups, workers, passes)

    metrics = {}
    for m in wanted:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']:<6} n={samples}")
    print(f"{'fail_frac':<44} {failed / attempted:>14.6g} ratio  n={attempted}")
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    machine = statistics.median(p["speed"] for p in passes)
    print(f"{'raw pass wall time (unscaled)':<44} {raw_wall:>14.6g} s      n={len(passes)}")
    print(f"{'speed factor applied (reference / now)':<44} {machine:>14.6g} ratio  n={len(passes)}")
    if not wrappers_as_asked:
        print("tracing wrappers were loaded in an untraced worker, or missing in a traced one")
    result = {
        "correct": failed == 0 and wrappers_as_asked,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit, so that start_worker's cleanup stops
    # the running worker and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
