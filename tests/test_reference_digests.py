"""Benchmark reference replay: the CLI bytes ``perfbench/reference.json`` records.

The benchmark checks every call it times against the exit code and the
blake2b-16 digests of stdout and stderr recorded in
``perfbench/reference.json``.  This test replays in process through
``cli.main`` the first argv of each grid workload and every argv of the
query stream, so a change that moves a benchmark byte fails here, before
the benchmark runs.  The reference file is only read.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from ppcd import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
WORKLOADS = json.loads(REFERENCE.read_text())["workloads"]


class _Blake2bSink:
    """Text stream that keeps only the blake2b-16 digest of what was written."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)

    def write(self, text: str) -> int:
        self._hash.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _replay(argv: list[str]) -> dict:
    out, err = _Blake2bSink(), _Blake2bSink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout, sys.stderr = saved
    return {"argv": argv, "code": code, "out": out.hexdigest(), "err": err.hexdigest()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_matches_reference(name):
    workload = WORKLOADS[name]
    entries = workload["entries"]
    if workload["kind"] == "grid":
        entries = entries[:1]
    mismatches = [entry for entry in entries if _replay(entry["argv"]) != entry]
    assert mismatches == []
