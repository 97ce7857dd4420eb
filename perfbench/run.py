"""ghzcert benchmark: build and verify throughput per workload, plus a layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enum|wide|search|many-small \
        --seed N --seconds S --trace 0|1

One client in a closed loop, one process, one thread. The workload runs in a
fresh interpreter (``worker.py``) that drives ``ghzcert.cli.main`` with the
argv a user would type. Set-up time is measured in several more
interpreters that only import ``ghzcert`` and generate the workload.

Every time and rate is in reference seconds: wall seconds rescaled to a
nominal machine speed measured next to the work (see ``calibration.py``),
because the speed of a shared machine drifts by tens of percent. The
unscaled rates are in the details.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the details: environment, error rate, repeat share,
tail latencies, certificate digests and, when traced, each layer's share of
the traced time. Full results, spans included, go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6
SETUP_SAMPLES = 3  # calibration blocks between set-up probes
DEADLINE_S = 170  # the whole run, probes included, ends within this

COUNTS = {
    "lhv.decide_calls", "lhv.assignments", "kochen_specker.patterns",
    "kochen_specker.build_calls", "words.search_calls", "words.realize_calls",
    "spectral.eigenbasis_dim", "spectral.spectrum_calls", "exact.compose_calls",
    "siteops.anticommute_calls", "certificate.rejects",
}


def layer_unit(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "certificate.bytes":
        return "bytes"
    return "ratio"


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def worker(args, workdir: Path, result: Path, setup_only: bool, deadline: float):
    """Run worker.py to completion.

    Returns its set-up wall seconds and the part of them the worker spent
    running Python (importing ``ghzcert`` and generating the workload); the
    rest is process and interpreter start-up.
    """
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    lines = [json.loads(line) for line in out.splitlines() if line.startswith('{"ready"')]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return lines[0]["ready"] - start, lines[0]["python_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a stop request into an exception, so that the worker is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ghzcert" / "cli.py").is_file():
        print(f"error: no ghzcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results").mkdir(exist_ok=True)
    raw_path = workdir / "worker.json"
    # Calibration blocks are taken before every probe and after the last, so
    # each probe has a set just before and just after it.
    probes, gaps = [], []
    deadline = time.monotonic() + DEADLINE_S
    try:
        for probe in range(SETUP_PROBES + 1):
            gaps.append([calibration.block() for _ in range(SETUP_SAMPLES)])
            probes.append(worker(args, workdir, raw_path, probe < SETUP_PROBES,
                                 deadline))
        gaps.append([calibration.block() for _ in range(SETUP_SAMPLES)])
        raw = json.loads(raw_path.read_text(encoding="utf-8"))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Only the Python part of set-up follows the machine's Python speed; the
    # interpreter's own start-up is taken as measured.
    setups = [wall - python + python * calibration.speed(gaps[i] + gaps[i + 1])
              for i, (wall, python) in enumerate(probes)]
    if args.trace:
        values = {name: (value, layer_unit(name))
                  for name, value in raw["layers"].items()}
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "build_per_s": (raw["build_per_s"], "1/s"),
            "verify_per_s": (raw["verify_per_s"], "1/s"),
            "reject_per_s": (raw["reject_per_s"], "1/s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    attempted, failed = raw["attempted"], raw["failed"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "passes": len(raw["passes"]),
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "repeat_share": {"value": raw["repeat_share"], "unit": "ratio"},
        "build_tail_s": raw["build_tail_s"],
        "verify_tail_s": raw["verify_tail_s"],
        "setup_probes_s": [wall for wall, _ in probes],
        "setup_reference_s": setups,
        "reference_speed": raw["reference_speed"],
        "unscaled": {f"{op}_per_s": raw[f"{op}_per_s_unscaled"]
                     for op in ("build", "verify", "reject")},
        "self_share": raw.get("self_share"),
        "errors": raw["errors"],
        "digests": raw["digests"],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"details": details, "metrics": metrics, "raw": raw}
    (out_dir / "results" / f"{stem}.json").write_text(json.dumps(full),
                                                      encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
