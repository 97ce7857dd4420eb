"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The smoke runs take a few minutes: the ``search`` workload builds an
eleven-party certificate, which takes about twenty seconds on its own.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import ghzcert.certificate  # noqa: E402
import ghzcert.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKDIR = ROOT / ".perfbench" / "selftest"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_without_errors(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] and result["failed"] == 0
    assert details["error_rate"]["value"] == 0
    assert details["environment"]["src_lines"] > 0


def _build(argv: list[str], path: Path) -> bytes:
    assert ghzcert.cli.main([*argv, "--output", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("argv", [["build", "3", "3", "3"],
                                  ["build", "2", "2", "2", "2", "--bound", "100"],
                                  ["ks", "4", "--mode", "full-spectrum"]])
def test_traced_build_gives_identical_bytes(argv, capsys):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    path = WORKDIR / "cert.json"
    original = ghzcert.certificate.analyze_lhv
    plain = _build(argv, path)
    tracer = tracing.Tracer()
    tracer.cert = (0, 0, "build")
    tracer.install()
    try:
        assert ghzcert.certificate.analyze_lhv is not original
        traced = _build(argv, path)
    finally:
        tracer.uninstall()
    assert ghzcert.certificate.analyze_lhv is original
    assert traced == plain
    assert {span[0] for span in tracer.spans} >= {"cli.main", "certificate.build"}


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 11) == workloads.generate(name, 11)


def test_fails_without_program_sources():
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, "many-small", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
