"""Outside-in layer trace for the ghzcert benchmark.

``Tracer.install`` replaces each layer's public entry point with a wrapper
that records a span (name, start, end, parent span, certificate id) and keeps
a small summary of the return value. The wrapper is installed wherever
callers look the name up: in every ``ghzcert`` module that imported it, or on
the class for methods. ``uninstall`` puts the originals back, so untraced
passes run the program exactly as shipped.

Spans stay in memory; ``layer_metrics`` turns the spans of one pass into the
per-layer numbers, computing self time by subtracting child spans.
"""

from __future__ import annotations

import sys
import time

# (span name, defining module, attribute); "Class.method" names a method.
ENTRY_POINTS = (
    ("lhv.decide", "ghzcert.lhv", "analyze_lhv"),
    ("kochen_specker.search", "ghzcert.kochen_specker", "ks_color_search"),
    ("kochen_specker.build", "ghzcert.kochen_specker", "build_ks"),
    ("words.search", "ghzcert.words", "build_proof_set"),
    ("words.realize", "ghzcert.words", "TensorWord.realize"),
    ("spectral.eigenbasis", "ghzcert.spectral", "simultaneous_eigenbasis"),
    ("spectral.select", "ghzcert.spectral", "select_ghz"),
    ("spectral.spectrum", "ghzcert.spectral", "spectrum_of_monomial"),
    ("exact.compose", "ghzcert.exact", "monomial_compose"),
    ("siteops.anticommute", "ghzcert.siteops", "check_anticommute"),
    ("certificate.build", "ghzcert.certificate", "build_ghz_document"),
    ("certificate.build", "ghzcert.certificate", "build_ks_document"),
    ("certificate.verify", "ghzcert.certificate", "verify_ghz_document"),
    ("certificate.verify", "ghzcert.certificate", "verify_ks_document"),
    ("certificate.serialize", "ghzcert.certificate", "save_document"),
    ("certificate.load", "ghzcert.certificate", "load_document"),
    ("cli.main", "ghzcert.cli", "main"),
)


def _summary(name: str, result):
    """The part of a return value the per-layer counts are derived from."""
    if name == "lhv.decide":
        return (result.method, result.assignments_checked)
    if name == "kochen_specker.search":
        return result.patterns_checked
    if name == "spectral.eigenbasis":
        return len(result)
    if name == "words.realize":
        return hash((result.target, result.weight))
    if name == "certificate.verify":
        return bool(result[0])
    return None


class Tracer:
    """Spans as lists: [name, start, end, parent index, cert id, summary]."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.cert = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.cert, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[5] = _summary(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "ghzcert" or n.startswith("ghzcert.")]
        for name, module_name, attr in ENTRY_POINTS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds spent in each span name minus the time of its child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        out[span[0]] = out.get(span[0], 0.0) + span[2] - span[1] - children
    return out


def layer_metrics(spans: list[list], certs: dict) -> dict[str, float]:
    """Per-layer numbers for the spans of one pass.

    ``certs`` maps a certificate id to ``(op, item)`` where ``op`` is
    "build", "verify" or "reject" and ``item`` the workload item. The LHV
    repeat ratio counts the enumerations of build and genuine verify only,
    against each certificate's assignment space.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    self_time = self_times(spans)

    assignments = analytic = enumerated = 0
    patterns = eigen_dim = rejects = 0
    realized: dict[object, set] = {}
    for name, _, _, _, cert, summary in spans:
        op, item = certs[cert]
        if name == "lhv.decide":
            method, checked = summary
            assignments += checked
            analytic += method == "parity-analytic"
            if op != "reject":
                enumerated += checked
        elif name == "kochen_specker.search":
            patterns += summary
        elif name == "spectral.eigenbasis":
            eigen_dim += summary
        elif name == "words.realize":
            realized.setdefault(cert[:2], set()).add(summary)
        elif name == "certificate.verify" and op != "build" and not summary:
            rejects += 1
    # a certificate id is (pass, item, op); one item is one certificate
    space = sum(item.assignment_space
                for item in {cert[:2]: item for cert, (_, item) in certs.items()}.values())

    def get(table, name):
        return table.get(name, 0)

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    decide_s = get(total, "lhv.decide")
    search_s = get(total, "kochen_specker.search")
    realize_calls = get(calls, "words.realize")
    distinct = sum(len(keys) for keys in realized.values())
    return {
        "lhv.decide_s": decide_s,
        "lhv.decide_calls": get(calls, "lhv.decide"),
        "lhv.assignments": assignments,
        "lhv.assignments_per_s": rate(assignments, decide_s),
        "lhv.repeat_ratio": enumerated / space if space else 0.0,
        "lhv.analytic_share": rate(analytic, get(calls, "lhv.decide")),
        "kochen_specker.search_s": search_s,
        "kochen_specker.patterns": patterns,
        "kochen_specker.patterns_per_s": rate(patterns, search_s),
        "kochen_specker.build_s": get(total, "kochen_specker.build"),
        "kochen_specker.build_calls": get(calls, "kochen_specker.build"),
        "words.search_s": get(total, "words.search"),
        "words.search_calls": get(calls, "words.search"),
        "words.realize_s": get(total, "words.realize"),
        "words.realize_calls": realize_calls,
        "words.realize_repeat_ratio": rate(realize_calls, distinct),
        "spectral.eigenbasis_s": get(total, "spectral.eigenbasis"),
        "spectral.eigenbasis_dim": eigen_dim,
        "spectral.select_s": get(self_time, "spectral.select"),
        "spectral.spectrum_s": get(total, "spectral.spectrum"),
        "spectral.spectrum_calls": get(calls, "spectral.spectrum"),
        "exact.compose_s": get(total, "exact.compose"),
        "exact.compose_calls": get(calls, "exact.compose"),
        "siteops.anticommute_s": get(total, "siteops.anticommute"),
        "siteops.anticommute_calls": get(calls, "siteops.anticommute"),
        "certificate.build_self_s": get(self_time, "certificate.build"),
        "certificate.verify_self_s": get(self_time, "certificate.verify"),
        "certificate.serialize_s": get(total, "certificate.serialize"),
        "certificate.load_s": get(total, "certificate.load"),
        "certificate.rejects": rejects,
        "cli.self_s": get(self_time, "cli.main"),
    }
