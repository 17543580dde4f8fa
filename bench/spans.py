"""In-memory span tracing around bplab's public functions, and the
per-layer metrics derived from the spans.

Installing the tracer replaces every module-level binding of a traced
function in the loaded ``bplab`` modules, so a call made through a
``from .spectral import transform_inverse`` name in ``solver`` is traced just
like one made through ``spectral.transform_inverse``. Uninstalling restores
the originals, so untraced and traced jobs can alternate in one process.

A span is [name, parent index, start, end, job id, counts]. Counts are taken
at the same boundary as the span from the call's arguments or result.
Nothing in ``src/`` changes; a target missing from the code is skipped and
its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

NAME, PARENT, START, END, JOB, COUNTS = range(6)


def _write_bytes(args, kwargs, result):
    # BPF1: 4-byte magic, 8-byte n, 8-byte L, then float64 samples
    return {"bytes": 20 + 8 * args[1].samples.size}


def _certified_samples(args, kwargs, result):
    return {"samples": result.samples}


def _proposed_rows(args, kwargs, result):
    return {"rows": len(args[0])}


# (module, function, count hook). The span name is "<module>.<function>".
# resonance._classify_masks is private, but it is the only boundary where
# certify_bound's proposals are visible; it yields the acceptance ratio.
TARGETS = (
    ("spectral", "transform_forward", None),
    ("spectral", "transform_inverse", None),
    ("spectral", "besov_norm", None),
    ("spectral", "lp_project", None),
    ("spectral", "weighted_profile_norm", None),
    ("spectral", "write_field", _write_bytes),
    ("spectral", "read_field", None),
    ("propagator", "dispersion_symbol", None),
    ("propagator", "stationary_points", None),
    ("propagator", "decay_curve", None),
    ("solver", "step", None),
    ("solver", "nonlinear_term", None),
    ("solver", "biot_savart", None),
    ("solver", "max_speed", None),
    ("solver", "make_report", None),
    ("solver", "velocity_sup_norms", None),
    ("resonance", "certify_bound", _certified_samples),
    ("resonance", "certify_bound_constant_range", None),
    ("resonance", "_classify_masks", _proposed_rows),
    ("diagnostics", "energy_certificate", None),
    ("diagnostics", "linfty_transport_check", None),
    ("diagnostics", "weighted_norm_series", None),
)


class Tracer:
    """Records spans in memory until the run ends."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._job = -1

    def _enter(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, self._job, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.spans[idx][COUNTS] = count(args, kwargs, result)
                return result
            finally:
                self._exit(idx)
        return traced

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Root span of one job; every span inside carries its id."""
        self._job = job_id
        idx = self._enter("job")
        try:
            yield
        finally:
            self._exit(idx)
            self._job = -1

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of each target in the loaded bplab modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bplab" or name.startswith("bplab."))]
        patched = []
        try:
            for mod_name, fn_name, count in TARGETS:
                home = sys.modules.get(f"bplab.{mod_name}")
                orig = getattr(home, fn_name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)


class SpanIndex:
    """Per-name views of a tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                self.child_time[s[PARENT]] += s[END] - s[START]

    def durations(self, name) -> np.ndarray:
        return np.array([self.spans[i][END] - self.spans[i][START]
                         for i in self.by_name.get(name, ())])

    def count(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def has_ancestor(self, i, name) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def calls_per(self, name, per) -> float:
        """Calls of `name` made inside `per` spans, per `per` span."""
        n_per = self.count(per)
        if n_per == 0:
            return 0.0
        inside = sum(1 for i in self.by_name.get(name, ()) if self.has_ancestor(i, per))
        return inside / n_per

    def mean(self, name, scale=1e3) -> float:
        d = self.durations(name)
        return float(d.mean()) * scale if d.size else 0.0

    def quantile(self, name, q, scale=1e3) -> float:
        d = self.durations(name)
        return float(np.quantile(d, q)) * scale if d.size else 0.0

    def mean_self(self, name, scale=1e3) -> float:
        idx = self.by_name.get(name, ())
        if not idx:
            return 0.0
        own = [self.spans[i][END] - self.spans[i][START] - self.child_time[i] for i in idx]
        return float(np.mean(own)) * scale

    def counted(self, name, key, under=None) -> float:
        return float(sum(self.spans[i][COUNTS][key] for i in self.by_name.get(name, ())
                         if self.spans[i][COUNTS] is not None
                         and (under is None or self.has_ancestor(i, under))))


# functions reported as a per-call mean in ms, and those counted per RK4 step
MEAN_MS = (
    "spectral.transform_inverse", "spectral.transform_forward", "spectral.besov_norm",
    "spectral.weighted_profile_norm", "spectral.write_field", "spectral.read_field",
    "propagator.dispersion_symbol", "propagator.decay_curve", "solver.nonlinear_term",
    "solver.biot_savart", "solver.max_speed", "solver.make_report",
    "solver.velocity_sup_norms", "resonance.certify_bound_constant_range",
    "diagnostics.energy_certificate", "diagnostics.linfty_transport_check",
    "diagnostics.weighted_norm_series",
)
PER_STEP = (
    "spectral.transform_inverse", "spectral.transform_forward",
    "propagator.dispersion_symbol", "solver.nonlinear_term", "solver.biot_savart",
)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of the traced jobs. Times are per-call means unless
    the name says otherwise; per-job figures divide by the traced job count."""
    ix = SpanIndex(spans)
    jobs = max(ix.count("job"), 1)
    step = "solver.step"
    cert = "resonance.certify_bound"
    cert_s = float(ix.durations(cert).sum())
    samples = ix.counted(cert, "samples")
    proposed = ix.counted("resonance._classify_masks", "rows", under=cert)
    metrics = {f"{name}.ms": ix.mean(name) for name in MEAN_MS}
    metrics.update({f"{name}.calls_per_step": ix.calls_per(name, step) for name in PER_STEP})
    metrics.update({
        "spectral.lp_project.calls_per_report": ix.calls_per("spectral.lp_project",
                                                             "solver.make_report"),
        "spectral.io_bytes": ix.counted("spectral.write_field", "bytes") / jobs,
        "propagator.stationary_points.us": ix.mean("propagator.stationary_points", 1e6),
        "propagator.stationary_points.calls": ix.count("propagator.stationary_points") / jobs,
        "solver.step.ms.p50": ix.quantile(step, 0.5),
        "solver.step.ms.p90": ix.quantile(step, 0.9),
        "solver.step.self_ms": ix.mean_self(step),
        "resonance.certify_bound.samples_per_s": samples / cert_s if cert_s > 0 else 0.0,
        "resonance.certify_bound.acceptance": samples / proposed if proposed > 0 else 0.0,
    })
    return metrics
