"""Outside-in span tracer for the traced benchmark run.

``Tracer.install`` replaces each listed callable wherever it is bound: in
every ``csaop.*`` namespace (``decomp`` imports ``cluster_indices`` by name,
``_require_csa`` reaches ``check_c_selfadjoint`` through ``csa``'s globals),
on the classes that define or alias a method (``__call__ = apply``), and for
numpy's SVD/eig also in ``numpy.linalg._linalg``, whose ``matrix_rank``
calls ``svd`` directly. Wrappers record a span only while an op is open,
so the verifier's own numpy calls never count. Untraced runs patch nothing.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import NamedTuple

#: (metric name, module, attribute path) of every traced callable.
TARGETS = (
    ("csa.generate_csa", "csaop.csa", "generate_csa"),
    ("csa.check_c_selfadjoint", "csaop.csa", "check_c_selfadjoint"),
    ("decomp.refined_polar", "csaop.decomp", "refined_polar"),
    ("decomp.refined_svd", "csaop.decomp", "refined_svd"),
    ("decomp.fix_basis_involutive", "csaop.decomp", "fix_basis_involutive"),
    ("decomp.phase_fix", "csaop.decomp", "phase_fix"),
    ("antieig.antilinear_eigensystem", "csaop.antieig", "antilinear_eigensystem"),
    ("antieig.pseudospectrum", "csaop.antieig", "pseudospectrum"),
    ("antieig.resolvent_norm", "csaop.antieig", "resolvent_norm"),
    ("antiunitary.AntiunitaryOp.init", "csaop.antiunitary", "AntiunitaryOp.__init__"),
    ("antiunitary.AntiunitaryOp.apply_inverse", "csaop.antiunitary", "AntiunitaryOp.apply_inverse"),
    ("antiunitary.AntilinearMap.apply", "csaop.antiunitary", "AntilinearMap.apply"),
    ("antiunitary.classify", "csaop.antiunitary", "classify"),
    ("antiunitary.compose_antilinear", "csaop.antiunitary", "compose_antilinear"),
    ("antiunitary.conjugate_linear_map", "csaop.antiunitary", "conjugate_linear_map"),
    ("linalg.cluster_indices", "csaop.linalg", "cluster_indices"),
    ("linalg.nullspace", "csaop.linalg", "nullspace"),
    ("pauli.discretize", "csaop.pauli", "discretize"),
    ("serialize.matrix_to_json", "csaop.serialize", "matrix_to_json"),
    ("serialize.matrix_from_json", "csaop.serialize", "matrix_from_json"),
    ("serialize.load_json", "csaop.serialize", "load_json"),
    ("serialize.dump_json", "csaop.serialize", "dump_json"),
    ("serialize.pseudospectrum_csv", "csaop.serialize", "pseudospectrum_csv"),
    ("cli.main", "csaop.cli", "main"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
    ("numpy.linalg.eig", "numpy.linalg", "eig"),
)

#: Derived per-layer metrics (name, unit) reported beside calls/self_ms.
DERIVED = (
    ("csa.generate_csa.first_ms", "ms"),
    ("csa.generate_csa.repeat_ms", "ms"),
    ("antiunitary.AntiunitaryOp.init.failed", "count"),
    ("numpy.linalg.svd.work", "count"),
    ("antieig.pseudospectrum.us_per_point", "us"),
    ("serialize.bytes", "B"),
    ("trace.overhead_share", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(DERIVED)
    return units


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the op boundary
    op: int
    error: str | None


def _svd_work(args, kwargs, result) -> int:
    """batch * m * n * min(m, n) of the factorised stack."""
    shape = getattr(args[0] if args else kwargs["a"], "shape", ())
    m, n = shape[-2:]
    return math.prod(shape[:-2]) * m * n * min(m, n)


def _file_bytes(args, kwargs, result) -> int:
    path = args[-1] if args else kwargs["path"]
    return os.path.getsize(path)


#: Extra counts taken from a traced call: metric name -> (key, function).
COUNTS = {
    "numpy.linalg.svd": ("numpy.linalg.svd.work", _svd_work),
    "serialize.load_json": ("serialize.bytes", _file_bytes),
    "serialize.dump_json": ("serialize.bytes", _file_bytes),
    "serialize.pseudospectrum_csv": ("serialize.bytes", lambda a, k, r: len(r.encode())),
    "antieig.pseudospectrum": (
        "antieig.pseudospectrum.points",
        lambda a, k, r: (a[3] if len(a) > 3 else k["resolution"]) ** 2,
    ),
}


class Tracer:
    """Keeps spans and counts in memory; ``dump`` writes them out."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, path in TARGETS:
            owner = sys.modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            for space in _namespaces():
                for key, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, key, wrapper)
                        self._patches.append((space, key, original))

    def uninstall(self) -> None:
        for space, key, original in reversed(self._patches):
            setattr(space, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.op, error)
            if count is not None:
                tracer.counts[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    def dump(self, path, op_names: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([*span[:-2], op_names[span.op], span.error]) + "\n")

    def summarize(self, passes: int, op_names: list[str]) -> dict[str, float]:
        """Per-pass calls and self time of every target, plus derived metrics."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for span, covered in zip(self.spans, child):
            calls[span.name] += 1
            self_s[span.name] += span.end - span.start - covered
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / passes

        def gen_ms(kind):
            times = [
                1e3 * (s.end - s.start)
                for s in self.spans
                if s.name == "csa.generate_csa" and op_names[s.op].startswith(f"generate/{kind}/")
            ]
            return statistics.median(times) if times else 0.0

        out["csa.generate_csa.first_ms"] = gen_ms("first")
        out["csa.generate_csa.repeat_ms"] = gen_ms("repeat")
        out["antiunitary.AntiunitaryOp.init.failed"] = (
            sum(s.name == "antiunitary.AntiunitaryOp.init" and s.error == "NotUnitary" for s in self.spans)
            / passes
        )
        out["numpy.linalg.svd.work"] = self.counts["numpy.linalg.svd.work"] / passes
        points = self.counts["antieig.pseudospectrum.points"]
        scan_s = sum(s.end - s.start for s in self.spans if s.name == "antieig.pseudospectrum")
        out["antieig.pseudospectrum.us_per_point"] = 1e6 * scan_s / points if points else 0.0
        out["serialize.bytes"] = self.counts["serialize.bytes"] / passes
        return out


def _namespaces():
    """Every ``csaop.*`` module, the classes they define, and numpy.linalg."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "csaop" or name.startswith("csaop.") or name in ("numpy.linalg", "numpy.linalg._linalg"))
    ]
    classes = {
        id(value): value
        for module in modules
        if module.__name__.startswith("csaop")
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("csaop")
    }
    return modules + list(classes.values())
