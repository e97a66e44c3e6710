"""Per-layer tracing for a benchmark worker, imported only with ``--trace 1``.

``Tracer.install`` replaces each traced ppcd function by a timing wrapper
in every ppcd module namespace that binds it.  Callers resolve these
names at call time (``hooks_mod.scan_ext_degree_sets``, or a name that
``hooks`` imported from ``partitions``), so calls within a module and
across modules are both counted.  ppcd itself is not changed.

Each wrapper opens a span on a stack.  A span's self time is its
duration minus the time of the spans nested in it, so ``cli.main``'s
self time is what the CLI spends outside every traced layer: turning
results into text and writing it.  Spans are aggregated per name in
memory; nothing is written until the worker reports.
"""

from __future__ import annotations

import argparse
import time

import ppcd.cli
import ppcd.ctbl
import ppcd.degrees
import ppcd.hooks
import ppcd.lie
import ppcd.partitions

SCAN = "hooks.scan_ext_degree_sets"
COUNTS = ("yielded", "scan_visited", "scan_degrees", "pprime_true", "degree_bits", "grid_rows")

# (span name, defining module, attribute).  The span name is the layer
# metric prefix; for the private helpers it drops the leading underscore.
# Some spans (count_pprime_hooks_formula, bundled_table) feed no metric of
# their own; they are wrapped so that their time is not counted as the
# CLI's self time.
TARGETS = (
    ("partitions.partition_tuples", ppcd.partitions, "_partition_tuples"),
    ("partitions.conjugate", ppcd.partitions, "_conjugate_parts"),
    ("partitions.hook_lengths", ppcd.partitions, "_hook_lengths"),
    ("partitions.divisible_hooks", ppcd.partitions, "divisible_hooks"),
    ("partitions.e_core", ppcd.partitions, "e_core"),
    ("degrees.is_pprime_macdonald", ppcd.degrees, "is_pprime_macdonald"),
    ("degrees.degree", ppcd.degrees, "degree"),
    ("degrees.degree_valuation", ppcd.degrees, "degree_valuation"),
    (SCAN, ppcd.hooks, "scan_ext_degree_sets"),
    ("hooks.verify_An_bound", ppcd.hooks, "verify_An_bound"),
    ("hooks.ext_pprime_degree_set", ppcd.hooks, "ext_pprime_degree_set"),
    ("hooks.pprime_hook_xs", ppcd.hooks, "pprime_hook_xs"),
    ("hooks.list_pprime_hooks", ppcd.hooks, "list_pprime_hooks"),
    ("hooks.count_pprime_hooks_formula", ppcd.hooks, "count_pprime_hooks_formula"),
    ("hooks.layered_first_parts", ppcd.hooks, "_layered_first_parts"),
    ("lie.classical_grid", ppcd.lie, "classical_grid"),
    ("lie.exceptional_pair_record", ppcd.lie, "exceptional_pair_record"),
    ("ctbl.load_degree_table", ppcd.ctbl, "load_degree_table"),
    ("ctbl.bundled_table", ppcd.ctbl, "bundled_table"),
    ("cli.build_parser", ppcd.cli, "build_parser"),
    ("cli.main", ppcd.cli, "main"),
)

MODULES = (
    ppcd,
    ppcd.partitions,
    ppcd.degrees,
    ppcd.hooks,
    ppcd.lie,
    ppcd.ctbl,
    ppcd.cli,
)


class Tracer:
    """Timing wrappers plus the per-name span aggregates they fill."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._layered_cache = ppcd.hooks._layered_first_parts
        self.counts: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        # Cleared in place: installed wrappers hold this dict.
        self.counts.update(dict.fromkeys(COUNTS, 0))
        info = getattr(self._layered_cache, "cache_info", None)
        self._cache_start = info() if info else None

    # -- wrappers -------------------------------------------------------------

    def _close(self, name: str, frame: list, elapsed: float) -> None:
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, name: str, fn):
        stack, close, clock = self._stack, self._close, time.perf_counter
        on_result = self._result_hooks().get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                close(name, frame, elapsed)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each ``next`` is one span; its self time is enumeration work."""
        stack, close, clock, counts = self._stack, self._close, time.perf_counter, self.counts

        def wrapper(*args, **kwargs):
            in_scan = bool(stack) and stack[-1][0] == SCAN
            it = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    close(name, frame, elapsed)
                counts["yielded"] += 1
                if in_scan:
                    counts["scan_visited"] += 1
                yield item

        return wrapper

    def _result_hooks(self) -> dict:
        counts = self.counts

        def scan(result):
            counts["scan_degrees"] += sum(len(s) for s in result.values())

        def pprime(result):
            counts["pprime_true"] += bool(result)

        def degree(result):
            counts["degree_bits"] += result.bit_length()

        def grid(result):
            counts["grid_rows"] += len(result)

        return {
            SCAN: scan,
            "degrees.is_pprime_macdonald": pprime,
            "degrees.degree": degree,
            "lie.classical_grid": grid,
        }

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        for name, module, attr in TARGETS:
            original = getattr(module, attr)
            if name == "partitions.partition_tuples":
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap(name, original)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        # parse_args is inherited from argparse; the wrapper is set on the
        # subclass and removed again on uninstall.
        parse = self._wrap("cli.parse_args", argparse.ArgumentParser.parse_args)
        ppcd.cli._Parser.parse_args = parse
        self._patches.append((ppcd.cli._Parser, "parse_args", None))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    # -- metrics --------------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def _self(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans since the last ``reset``."""
        counts = self.counts
        out: dict[str, float] = {}
        for name in (
            "partitions.conjugate",
            "partitions.hook_lengths",
            "partitions.divisible_hooks",
            "partitions.e_core",
            "degrees.is_pprime_macdonald",
            "degrees.degree",
            SCAN,
            "hooks.verify_An_bound",
            "hooks.ext_pprime_degree_set",
            "hooks.pprime_hook_xs",
            "lie.exceptional_pair_record",
            "ctbl.load_degree_table",
        ):
            out[f"{name}.calls"] = self._calls(name)
            out[f"{name}.self_s"] = self._self(name)
        for name in (
            "degrees.degree_valuation",
            "hooks.list_pprime_hooks",
            "lie.classical_grid",
            "partitions.partition_tuples",
        ):
            out[f"{name}.self_s"] = self._self(name)
        out["partitions.partition_tuples.yielded"] = counts["yielded"]
        out["hooks.scan.useful_ratio"] = _ratio(counts["scan_degrees"], counts["scan_visited"])
        pprime_calls = self._calls("degrees.is_pprime_macdonald")
        out["degrees.is_pprime_macdonald.pprime_ratio"] = _ratio(counts["pprime_true"], pprime_calls)
        out["degrees.degree.result_bits"] = _ratio(counts["degree_bits"], self._calls("degrees.degree"))
        out["lie.classical_grid.rows"] = counts["grid_rows"]
        out["cli.emit.self_s"] = self._self("cli.main")
        out["cli.parse.self_s"] = self._self("cli.build_parser") + self._self("cli.parse_args")
        out["cli.stdout_bytes"] = stdout_bytes
        hits = misses = 0
        if self._cache_start is not None:
            now = self._layered_cache.cache_info()
            hits = now.hits - self._cache_start.hits
            misses = now.misses - self._cache_start.misses
        out["hooks.layered_first_parts.hits"] = hits
        out["hooks.layered_first_parts.misses"] = misses
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
