"""One benchmark worker: a fresh interpreter that runs ppcd's CLI in-process.

Started by ``run.py``, one at a time.  The worker imports ppcd from the
checkout's ``src``, picks its inputs from the recorded corpus with the
workload seed, prints a ``ready`` line, then runs ``ppcd.cli.main(argv)``
with stdout and stderr streamed into hashing sinks.  Everything it
measures is kept in memory and written as one JSON line when it ends.

Modes:
  probe   set up and exit (a set-up time sample);
  grid    run the workload's single grid command once;
  stream  run the query stream in passes until the deadline.

Calibration samples right after set-up, before and after every pass,
and twice a second during it tell the runner how fast the machine was
running interpreted code around each call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import signal
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"


# A calibration loop takes this long at the reference machine speed.
REF_CALIBRATION_S = 0.005
# During an untraced pass, a calibration sample is taken this often.
CALIBRATE_EVERY_S = 0.5


def _calibration_loop() -> int:
    """Fixed interpreted work of three shapes: dict updates, tuple slicing
    and concatenation (as in partition enumeration), and list and
    big-integer arithmetic.  Contention on a shared machine does not slow
    every shape alike, so the loop mixes them."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(12000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) % 13
    parts = (18,)
    while parts != (1,) * 18:
        i = len(parts) - 1
        while parts[i] == 1:
            i -= 1
        rest = len(parts) - i
        parts = parts[:i] + (parts[i] - 1,)
        while rest > 0:
            nxt = min(parts[-1], rest)
            parts += (nxt,)
            rest -= nxt
        acc += len(parts)
    big = 1
    for i in range(2000):
        acc += sum([i * 3, i + 5, i & 7]) % 11
        big = (big * 1000003 + i) % (1 << 200)
    return acc + big


def calibration_s() -> float:
    """Median of three timings of ``_calibration_loop``: how fast the
    machine runs interpreted code right now.  Other tenants of a shared
    machine slow it down and speed it up by tens of percent."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Calibrator:
    """Calibration samples over the worker's life, as [start, loop seconds, end].

    ``sample`` takes one now.  Inside ``running``, a SIGALRM timer takes
    one every CALIBRATE_EVERY_S, also in the middle of a long CLI call.
    ``spent_within`` is the time samples took inside an interval, which
    ``call`` takes out of the call they interrupted.
    """

    def __init__(self):
        self.samples: list[list[float]] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        loop_s = calibration_s()
        self.samples.append([start, loop_s, time.perf_counter()])

    def spent_within(self, first: int, t0: float, t1: float) -> float:
        """Seconds of the samples from index ``first`` on that ran inside
        [t0, t1].  A signal handler runs whole between two bytecodes, so a
        sample lies wholly inside the interval or wholly outside it."""
        return sum(end - start for start, _, end in self.samples[first:]
                   if t0 <= start and end <= t1)

    @contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


class HashSink:
    """Text stream that keeps only a digest and a byte count."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self._hash.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def choose_inputs(corpus: dict, workload: str, seed: int) -> list[int]:
    """Indices into the workload's corpus entries, in the order they run.

    A grid workload runs the one variant the seed picks.  The query
    stream is the whole recorded query corpus in a seed-shuffled order,
    so every seed runs the same multiset of queries.
    """
    entries = corpus["workloads"][workload]["entries"]
    rng = random.Random(f"{workload}:{seed}")
    if corpus["workloads"][workload]["kind"] == "grid":
        return [rng.randrange(len(entries))]
    order = list(range(len(entries)))
    rng.shuffle(order)
    return order


def call(cli, argv: list[str], calibrator: Calibrator) -> tuple[int, str, str, int, float, float, float]:
    """Run one CLI call.  Return the exit code, the stdout and stderr
    digests, the stdout bytes, the seconds it took without calibration
    samples, and its start and end times."""
    out, err = HashSink(), HashSink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        first = len(calibrator.samples)
        t0 = time.perf_counter()
        code = cli.main(argv)
        t1 = time.perf_counter()
    finally:
        sys.stdout, sys.stderr = saved
    elapsed = t1 - t0 - calibrator.spent_within(first, t0, t1)
    return code, out.hexdigest(), err.hexdigest(), out.bytes, elapsed, t0, t1


def run_pass(cli, entries: list[dict], order: list[int], tracer, calibrator: Calibrator) -> dict:
    """One pass over ``order``; ops are [index, code, out, err, seconds,
    start, end].  Calibration samples are taken before and after the
    pass, and by the timer during an untraced pass.  A traced pass runs
    without the timer, so that no sample lands in a span."""
    if tracer is not None:
        tracer.reset()
    ops = []
    stdout_bytes = 0
    calibrator.sample()
    with calibrator.running() if tracer is None else nullcontext():
        for idx in order:
            code, out, err, nbytes, elapsed, t0, t1 = call(cli, entries[idx]["argv"], calibrator)
            ops.append([idx, code, out, err, elapsed, t0, t1])
            stdout_bytes += nbytes
    calibrator.sample()
    record = {
        "wall_s": sum(op[4] for op in ops),
        "traced": tracer is not None,
        "ops": ops,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(stdout_bytes)
        record["spans"] = tracer.spans
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "grid", "stream"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ppcd.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ppcd imported from {cli.__file__}, not from {SRC}")
    corpus = json.loads(REFERENCE.read_text())
    entries = corpus["workloads"][args.workload]["entries"]
    order = choose_inputs(corpus, args.workload, args.seed)
    report = sys.stdout
    print("ready", file=report, flush=True)
    calibrator = Calibrator()
    calibrator.sample()  # right after set-up, so it also scales the set-up time
    result = {"calibration": calibrator.samples}
    if args.mode == "probe":
        print(json.dumps(result), file=report, flush=True)
        return 0

    tracer = None
    if args.trace:
        import trace_layers

        tracer = trace_layers.Tracer()
    # A grid worker runs one pass.  The stream runs passes until the next
    # one, if as long as the longest so far, would end after the deadline.
    # In trace mode the stream alternates untraced and traced passes in
    # this one worker, so the overhead is measured on warm caches.
    deadline = time.perf_counter() + args.seconds
    min_passes = 1 if args.mode == "grid" else 3 if tracer else 2
    passes = []
    longest = 0.0
    while len(passes) < min_passes or (
        args.mode == "stream" and time.perf_counter() + longest <= deadline
    ):
        traced = tracer is not None and (args.mode == "grid" or len(passes) % 2 == 1)
        if traced:
            tracer.install()
        record = run_pass(cli, entries, order, tracer if traced else None, calibrator)
        if traced:
            tracer.uninstall()
        longest = max(longest, record["wall_s"])
        passes.append(record)
    result.update(
        passes=passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        wrappers_loaded="trace_layers" in sys.modules,
        threads=threading.active_count(),
    )
    print(json.dumps(result), file=report, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
