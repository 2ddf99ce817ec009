"""Spans around the calls into stochflow's public functions, kept in memory.

The benchmark wraps module functions and methods from the outside, so no
program file changes.  A span records its name, start, end, parent and the
getrusage deltas (minor faults, user and system CPU) of the interval; a
layer's self time is its span minus the time its child spans cover.

The untraced run installs only `INTEGRATION`, the two entry points whose
clock defines `member_steps_per_s`: a handful of calls per workload.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) pairs; "Class.method" patches the class attribute.
INTEGRATION = (
    ("stochflow.ensemble", "run_ensemble"),
    ("stochflow.sde", "integrate"),
)
LAYERS = INTEGRATION + (
    ("stochflow.io_cli.config", "parse_config"),
    ("stochflow.basis", "build_basis"),
    ("stochflow.basis", "convection_tensor"),
    ("stochflow.basis", "ConvectionTensor.apply"),
    ("stochflow.basis", "BasisSpec.mode_values"),
    ("stochflow.basis", "BasisSpec.mode_gradients"),
    ("stochflow.basis", "evaluate_field"),
    ("stochflow.noise", "build_noise"),
    ("stochflow.sde", "build_system"),
    ("stochflow.sde", "batch_increments"),
    ("stochflow.sde", "integrate_batch"),
    ("stochflow.sde", "BrownianPath.generate"),
    ("stochflow.ensemble", "Ensemble.member_trajectory"),
    ("stochflow.ensemble", "empirical_measure"),
    ("stochflow.ensemble", "moment_report"),
    ("stochflow.diagnostics", "neg_sup_series"),
    ("stochflow.diagnostics", "velocity_gradient"),
    ("stochflow.diagnostics", "make_test_processes"),
    ("stochflow.diagnostics", "energy_variational_gap"),
    ("stochflow.diagnostics", "energy_residual"),
    ("stochflow.diagnostics", "dissipative_weak_residual"),
    ("stochflow.diagnostics", "reynolds_defect"),
    ("stochflow.experiments", "viscosity_sweep"),
    ("stochflow.io_cli.storage", "save_ensemble"),
    ("stochflow.io_cli.storage", "save_trajectory"),
    ("stochflow.io_cli.storage", "load_trajectory"),
    ("stochflow.io_cli.storage", "load_container"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int                 # index into Tracer.spans, -1 at top level
    end: float = 0.0
    minflt: int = 0
    utime: float = 0.0
    stime: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _rows(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) > 1 else 1


def _apply_counters(args, kwargs, out) -> dict:
    """Computed operation and byte counts of one ConvectionTensor.apply call.

    flops: one multiply per gathered entry, then a multiply-add per entry in
    the sparse scatter.  bytes: the compulsory traffic of the kernel as
    written -- both inputs and the index arrays read, the (rows, nnz) product
    written and read back, the CSR matrix read and the output written.  It
    ignores cache misses, so it is a model, not a measurement.
    """
    conv, a = args[0], _arg(args, kwargs, 1, "a")
    rows, nnz = _rows(a), conv.nnz
    scatter = conv.scatter()
    csr_bytes = scatter.data.nbytes + scatter.indices.nbytes + scatter.indptr.nbytes
    vec = rows * conv.n_modes * 8
    return {
        "rows": rows,
        "entries": rows * nnz,
        "flops": 3 * rows * nnz,
        "bytes": 3 * vec + conv.i_idx.nbytes + conv.k_idx.nbytes
                 + 2 * rows * nnz * 8 + csr_bytes,
    }


def _integrate_batch_counters(args, kwargs, out) -> dict:
    inc = _arg(args, kwargs, 2, "increments")
    return {"members": int(inc.shape[0]), "steps": int(inc.shape[1]),
            "scheme": _arg(args, kwargs, 4, "scheme") or "euler_maruyama"}


COUNTERS = {
    "basis.ConvectionTensor.apply": _apply_counters,
    "sde.integrate_batch": _integrate_batch_counters,
    "diagnostics.velocity_gradient": lambda a, k, out: {"samples": _rows(_arg(a, k, 1, "coeffs"))},
    "basis.evaluate_field": lambda a, k, out: {"samples": _rows(_arg(a, k, 1, "a"))},
    "ensemble.run_ensemble": lambda a, k, out: {"member_steps": out.n_members * out.n_steps},
    "sde.integrate": lambda a, k, out: {"member_steps": (out.times.size - 1) * out.store_every},
    "basis.convection_tensor": lambda a, k, out: {"nnz": out.nnz},
    "io_cli.storage.load_container":
        lambda a, k, out: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Tracer:
    """Collects spans; `install` wraps the named functions in every loaded
    stochflow module that holds a reference to them."""

    def __init__(self, track_alloc: bool = False):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.track_alloc = track_alloc
        self.peak_alloc = 0

    def install(self, targets) -> None:
        for module_name, attr in targets:
            module = sys.modules[module_name]
            short = module_name.removeprefix("stochflow.")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(f"{short}.{attr}", orig.__func__
                                     if isinstance(orig, classmethod) else orig)
                setattr(cls, meth, classmethod(wrapped) if isinstance(orig, classmethod)
                        else wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(f"{short}.{attr}", orig)
            for name, mod in list(sys.modules.items()):
                if name == "stochflow" or name.startswith("stochflow."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name)
        is_cache = name.endswith((".mode_values", ".mode_gradients"))
        is_ensemble = name == "ensemble.run_ensemble"
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit = is_cache and (("vals" if name.endswith("values") else "grads",
                                 _arg(args, kwargs, 1, "n")) in args[0]._cache)
            alloc = is_ensemble and self.track_alloc
            if alloc:
                tracemalloc.start()
            idx = len(spans)
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                span.minflt = ru1.ru_minflt - ru0.ru_minflt
                span.utime = ru1.ru_utime - ru0.ru_utime
                span.stime = ru1.ru_stime - ru0.ru_stime
                if alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if is_cache:
                span.attrs = {"miss": not hit}
            elif counters is not None:
                span.attrs = counters(args, kwargs, out)
            return out

        return wrapper

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def outermost(self, names) -> list[Span]:
        """Spans named in `names` with no ancestor also named in `names`."""
        names = set(names)
        out = []
        for s in self.spans:
            p = s.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if s.name in names and p < 0:
                out.append(s)
        return out

    def total(self, *names) -> float:
        return sum(s.duration for s in self.outermost(names))

    def named(self, name) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def covered(self, t0: float, t1: float) -> float:
        """Share of [t0, t1] spent inside some top-level span."""
        inside = sum(min(s.end, t1) - max(s.start, t0)
                     for s in self.spans if s.parent < 0 and s.end > t0 and s.start < t1)
        return inside / (t1 - t0) if t1 > t0 else 0.0

    def table(self) -> dict:
        """Per span name: calls, total and self seconds, getrusage deltas."""
        own = self.self_times()
        rows: dict[str, dict] = {}
        for s, self_s in zip(self.spans, own):
            row = rows.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "minflt": 0, "user_s": 0.0, "sys_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["minflt"] += s.minflt
            row["user_s"] += s.utime
            row["sys_s"] += s.stime
        for name, row in rows.items():
            row["total_s"] = self.total(name)
        return rows
