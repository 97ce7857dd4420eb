"""One benchmark workload in a fresh interpreter.

Usage (from the root of a checkout):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE [--setup-only]

The worker imports ``ghzcert`` from ``src/``, generates the workload, prints
the monotonic time at which it is ready (the end of set-up), and, unless
``--setup-only`` is given, runs passes until ``--seconds`` have elapsed. A
pass runs ``build ... --output F`` for every item, then ``verify F`` for
every item, then ``verify`` on every item's tampered twin, each through
``ghzcert.cli.main`` with the argv a user would type. The raw results go to
``--result`` as JSON.

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones run with the wrappers from ``tracing.py`` installed.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the first thing the interpreter runs here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import calibration  # noqa: E402
import ghzcert.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# Seconds of verify (and of reject) work an untraced pass times at least.
REPEAT_VERIFY_S = 3.0


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def tamper(item: workloads.Item, text: str) -> str:
    """The certificate with one field edited as the item's tamper says."""
    doc = json.loads(text)
    step, scale = item.tamper_factor
    if item.tamper == workloads.COUNT:
        section, key = ("lhv", "assignments_checked") if item.kind == "ghz" \
            else ("search", "patterns_checked")
        doc[section][key] += abs(step) if doc[section][key] + step < 0 else step
    elif item.kind == "ghz":
        entries = doc["eigen_tuple"]
        k = item.tamper_pick % len(entries)
        entries[k] = _fmt(Fraction(entries[k]) * Fraction(step, scale))
    else:
        spectrum = doc["structure"]["horizontal_spectrum"]
        keys = sorted(spectrum)
        key = keys[item.tamper_pick % len(keys)]
        count = spectrum.pop(key)
        spectrum[_fmt(Fraction(key) * Fraction(step, scale))] = count
    return _dump(doc)


def check_document(item: workloads.Item, doc: dict) -> str | None:
    """Why a freshly built certificate is wrong, or None."""
    if item.kind == "ks":
        if doc["search"]["status"] != "UNSAT":
            return f"KS search status {doc['search']['status']}"
        return None
    lhv = doc["lhv"]
    if lhv["status"] != "UNSAT":
        return f"LHV status {lhv['status']}"
    if item.lhv_expect == workloads.BRUTE_FORCE:
        if lhv["assignments_checked"] != item.assignment_space:
            return (f"assignments_checked {lhv['assignments_checked']} != "
                    f"assignment space {item.assignment_space}")
    elif lhv["method"] != workloads.ANALYTIC:
        return f"LHV method {lhv['method']} instead of parity-analytic"
    return None


class Runner:
    def __init__(self, items, workdir: Path, clock):
        self.items = items
        self.workdir = workdir
        self.clock = clock
        self.ops: list[dict] = []
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}
        self.bytes_by_pass: list[int] = []
        self.tracer: tracing.Tracer | None = None

    def _call(self, cert, argv: list[str]):
        """Run the CLI in-process; returns (exit code, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.cert = cert
        start = self.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ghzcert.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a dead run
            code = None
            err.write(traceback.format_exc())
        seconds = self.clock() - start
        return code, out.getvalue() + err.getvalue(), seconds

    def _record(self, pass_index, index, op, seconds, error):
        self.ops.append({"pass": pass_index, "item": index, "op": op,
                         "seconds": seconds, "ok": error is None})
        if error is not None:
            self.errors.append(f"pass {pass_index} item {index} {op}: {error}")

    def run_pass(self, pass_index: int, repeat_for: float) -> dict:
        paths, built, total_bytes = {}, set(), 0
        intervals = {}  # op -> wall-clock interval of its phase
        begin = time.perf_counter()
        for i, item in enumerate(self.items):
            path = self.workdir / f"cert-{i}.json"
            twin = self.workdir / f"tampered-{i}.json"
            for stale in (path, twin):
                with contextlib.suppress(FileNotFoundError):
                    stale.unlink()
            paths[i] = (path, twin)
            code, text, seconds = self._call(
                (pass_index, i, "build"),
                [*item.build_argv, "--output", str(path)])
            error = None if code == 0 else f"exit {code}: {text.strip()[-300:]}"
            if error is None:
                try:
                    raw = path.read_bytes()
                    error = check_document(item, json.loads(raw))
                    twin.write_text(tamper(item, raw.decode("utf-8")), encoding="utf-8")
                except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                    error = f"unreadable certificate: {exc!r}"
            if error is None:
                total_bytes += len(raw)
                digest = hashlib.sha256(raw).hexdigest()
                if self.digests.setdefault(i, digest) != digest:
                    error = "certificate bytes differ between passes"
            if error is None:
                built.add(i)
            self._record(pass_index, i, "build", seconds, error)
        intervals["build"] = (begin, time.perf_counter())
        self.bytes_by_pass.append(total_bytes)

        # Verify rounds repeat until they have run for ``repeat_for`` seconds,
        # so that workloads whose verify is short still time enough of it.
        for op, slot, want_code, want_word in (("verify", 0, 0, "accept"),
                                               ("reject", 1, 1, "reject")):
            spent, begin = 0.0, time.perf_counter()
            while True:
                for i, item in enumerate(self.items):
                    if i not in built:
                        self._record(pass_index, i, op, 0.0, "no certificate to verify")
                        continue
                    code, text, seconds = self._call(
                        (pass_index, i, op),
                        ["verify", str(paths[i][slot]), *item.verify_extra])
                    ok = code == want_code and text.startswith(want_word + ":")
                    error = None if ok else f"exit {code}: {text.strip()[-300:]}"
                    self._record(pass_index, i, op, seconds, error)
                    spent += seconds
                if spent >= repeat_for or len(built) < len(self.items):
                    break
            intervals[op] = (begin, time.perf_counter())

        ops = [o for o in self.ops if o["pass"] == pass_index]
        return {op: (sum(o["seconds"] for o in ops if o["op"] == op),
                     sum(o["op"] == op for o in ops), *intervals[op])
                for op in ("build", "verify", "reject")}


def _tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    rank = n - 11  # ten samples lie above ordered[rank]
    return {"value": ordered[rank], "percentile": round(100 * (rank + 1) / n, 2),
            "samples": n}


def _pass_speed(sampler, phase) -> float:
    return sampler.speed(phase["build"][2], phase["reject"][3])


def _ref_seconds_per_item(sampler, phase, n_items: int) -> float:
    """Reference seconds of one build, verify and reject round of a pass."""
    return _pass_speed(sampler, phase) * sum(
        phase[op][0] / phase[op][1] * n_items for op in ("build", "verify", "reject"))


def _layers(tracer, runner, items, passes, sampler) -> dict:
    """Per-layer metrics (medians over traced passes) and self-time shares."""
    per_pass, self_s = [], []
    for index, phase in enumerate(passes):
        if not phase["traced"]:
            continue
        lo, hi = phase["spans"]
        certs = {(index, i, op): (op, item) for i, item in enumerate(items)
                 for op in ("build", "verify", "reject")}
        # parent indices are absolute; rebase them onto this pass's slice
        spans = [[s[0], s[1], s[2], None if s[3] is None else s[3] - lo, s[4], s[5]]
                 for s in tracer.spans[lo:hi]]
        metrics = tracing.layer_metrics(spans, certs)
        metrics["certificate.bytes"] = runner.bytes_by_pass[index]
        speed = _pass_speed(sampler, phase)
        for name in metrics:
            if name.endswith("_per_s"):
                metrics[name] /= speed
            elif name.endswith("_s"):
                metrics[name] *= speed
        per_pass.append(metrics)
        self_s.append(tracing.self_times(spans))
    layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    layers["trace.overhead_s"] = statistics.median(
        _ref_seconds_per_item(sampler, p, len(items)) for p in passes if p["traced"]
    ) - statistics.median(
        _ref_seconds_per_item(sampler, p, len(items)) for p in passes if not p["traced"])
    total = sum(sum(s.values()) for s in self_s)
    shares = {name: sum(s.get(name, 0.0) for s in self_s) / total
              for name in sorted({n for s in self_s for n in s})}
    return {"layers": layers, "self_share": shares}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    items = workloads.generate(args.workload, args.seed)
    print(json.dumps({"ready": time.monotonic(),
                      "python_s": time.perf_counter() - STARTED}), flush=True)
    if args.setup_only:
        return 0

    sampler = calibration.Sampler()
    runner = Runner(items, Path(args.workdir), sampler.clock)
    tracer = tracing.Tracer(sampler.clock) if args.trace else None
    passes: list[dict] = []
    sampler.start()
    start, origin = time.perf_counter(), sampler.clock()
    try:
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            first_span = len(tracer.spans) if tracer else 0
            if traced:
                runner.tracer = tracer
                tracer.install()
            try:
                record = runner.run_pass(len(passes), 0.0 if traced else REPEAT_VERIFY_S)
            finally:
                if traced:
                    tracer.uninstall()
                    runner.tracer = None
            record["traced"] = traced
            if traced:
                record["spans"] = (first_span, len(tracer.spans))
            passes.append(record)
            done = time.perf_counter() - start >= args.seconds
            if done and (not tracer or len(passes) >= 2):
                break
    finally:
        sampler.stop()
    # program seconds -> reference seconds (see calibration.py)
    scale = sampler.speed()

    def ref_rate(phase):
        seconds, count, begin, end = phase
        return count / (seconds * sampler.speed(begin, end)) if seconds else 0.0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "items": [" ".join(it.build_argv) for it in items],
        "repeat_share": workloads.repeat_share(items),
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "calibration_s": sampler.samples,
        "calibration_at": sampler.times,
        "reference_speed": scale,
        "attempted": len(runner.ops),
        "failed": sum(not o["ok"] for o in runner.ops),
        "errors": runner.errors[:20],
        "digests": {" ".join(items[i].build_argv) + f" #{i}": d
                    for i, d in sorted(runner.digests.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for op in ("build", "verify"):
        samples = [o["seconds"] * scale for o in runner.ops if o["op"] == op]
        result[f"{op}_tail_s"] = _tail(samples)
    plain = [p for p in passes if not p["traced"]]
    for op in ("build", "verify", "reject"):
        result[f"{op}_per_s_unscaled"] = statistics.median(
            p[op][1] / p[op][0] if p[op][0] else 0.0 for p in plain)
        result[f"{op}_per_s"] = statistics.median(ref_rate(p[op]) for p in plain)
    if tracer:
        result.update(_layers(tracer, runner, items, passes, sampler))
        result["spans"] = [[s[0], s[1] - origin, s[2] - origin, s[3],
                            "/".join(map(str, s[4])) if s[4] else None]
                           for s in tracer.spans]
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
