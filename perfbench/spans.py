"""Span tracing of nlparax from outside the program.

`Tracer.install()` replaces public functions at the names their callers look
up (for example `nlparax.experiments.solve_flow`) with wrappers that record
one span per call, and the `numpy.fft` transforms with wrappers that charge
each call, its real-space point count and its duration to the innermost open
span of the calling thread.  Span stacks are kept per thread; a thread with
an empty stack (a worker of the sweep's thread pool) opens its spans under
the innermost open span of the thread that installed the tracer.  Spans stay
in memory until `summary()` turns them into per-layer metrics.

Times of spans and FFT calls are summed over threads.  While the sweep's pool
runs two members, both threads' spans are open at once and include the time
each waits for the interpreter lock, so a layer's busy time can exceed the
wall time, and `spectral.fft_share` can exceed 1.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import threading
import time

import numpy as np

# (module, attribute, layer): the calls that get a span.
SPANS = (
    ("nlparax.cli", "main", "cli"),
    ("nlparax.cli", "transform_field", "cli"),
    ("nlparax.cli", "scaling_study", "experiments"),
    ("nlparax.cli", "emit_report", "experiments"),
    ("nlparax.cli", "evaluate_remainder", "remainders"),
    ("nlparax.cli", "read_paf", "paf"),
    ("nlparax.cli", "write_paf", "paf"),
    ("nlparax.cli", "solve_kuznetsov", "models.waves"),
    ("nlparax.cli", "solve_westervelt", "models.waves"),
    ("nlparax.cli", "solve_kzk", "models.oneway"),
    ("nlparax.cli", "solve_npe", "models.oneway"),
    ("nlparax.cli", "solve_flow", "flow"),
    ("nlparax.experiments", "solve_kuznetsov", "models.waves"),
    ("nlparax.experiments", "solve_westervelt", "models.waves"),
    ("nlparax.experiments", "solve_kzk", "models.oneway"),
    ("nlparax.experiments", "solve_npe", "models.oneway"),
    ("nlparax.experiments", "solve_flow", "flow"),
    ("nlparax.experiments", "build_correctors", "ansatz"),
    ("nlparax.experiments", "assemble_ansatz", "ansatz"),
    ("nlparax.experiments", "westervelt_initial_data", "ansatz"),
    ("nlparax.experiments", "westervelt_transform", "ansatz"),
    ("nlparax.experiments", "l2_error", "experiments"),
    ("nlparax.experiments", "gronwall_envelope_check", "experiments"),
    ("nlparax.experiments", "band_limited_perturbation", "experiments"),
)

#: solver -> the name of its argument giving the span to march
SOLVERS = {"solve_kuznetsov": "t_end", "solve_westervelt": "t_end",
           "solve_flow": "t_end", "solve_kzk": "z_end", "solve_npe": "tau_end"}
SOLVER_LAYER = {attr: layer for _mod, attr, layer in SPANS if attr in SOLVERS}

# numpy.fft transforms: name -> True when the real-space points are the
# output (inverse real transforms), False when they are the input.
FFTS = {"fft": False, "ifft": False, "fftn": False, "ifftn": False,
        "fft2": False, "ifft2": False, "rfft": False, "irfft": True,
        "rfftn": False, "irfftn": True, "rfft2": False, "irfft2": True,
        "hfft": True, "ihfft": False}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "fft_calls",
                 "fft_points", "fft_s", "steps", "digest", "count", "failed")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.fft_calls = self.fft_points = 0
        self.fft_s = 0.0
        self.steps = 0        # solver spans: steps marched
        self.digest = None    # solver spans inside a study: trajectory hash
        self.count = 0        # members, terms or bytes, by span name
        self.failed = 0       # studies: failed members

    def to_dict(self) -> dict:
        return {"name": self.name, "layer": self.layer,
                "parent": id(self.parent) if self.parent else None,
                "id": id(self), "start": self.start, "end": self.end,
                "fft_calls": self.fft_calls, "fft_points": self.fft_points,
                "fft_s": self.fft_s, "steps": self.steps, "count": self.count}


def _steps(span: float, ctl) -> int:
    """Steps a solver takes for `span` under `ctl`, by the solvers' rule."""
    return max(1, int(math.ceil(span / ctl.step - 1e-12))) * ctl.substeps


def _trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    for item in traj:
        if isinstance(item, tuple):  # flow: (t, FlowState)
            t, U = item
            arrays = (U.rho.values, U.momentum.values)
        else:
            t = item.evol
            arrays = (item.primary.values,) + (
                (item.velocity.values,) if item.velocity is not None else ())
        h.update(np.float64(t).tobytes())
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.orphan = Span("unattributed", "none", None)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home: list[Span] = []
        self._restore: list[tuple] = []

    # -- span stack ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self) -> Span:
        stack = self._stack()
        if stack:
            return stack[-1]
        try:
            return self._home[-1]
        except IndexError:
            return self.orphan

    # -- wrappers ------------------------------------------------------

    def _wrap_call(self, module, attr: str, layer: str) -> None:
        orig = getattr(module, attr)
        sig = inspect.signature(orig)
        solver = SOLVERS.get(attr)

        def wrapper(*args, **kwargs):
            span = Span(attr, layer, self._innermost())
            stack = self._stack()
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            self._annotate(span, sig, solver, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def _annotate(self, span, sig, solver, args, kwargs, result) -> None:
        name = span.name
        if solver is not None:
            bound = sig.bind(*args, **kwargs)
            span.steps = _steps(bound.arguments[solver],
                                bound.arguments["ctl"])
            if _study_of(span) is not None:
                span.digest = _trajectory_digest(result)
        elif name == "scaling_study":
            span.count = len(result.series)
            span.failed = sum(s["status"] != "ok" for s in result.series)
        elif name == "evaluate_remainder":
            span.count = len(result.term_stats)
        elif name in ("read_paf", "write_paf"):
            span.count = os.path.getsize(sig.bind(*args, **kwargs)
                                         .arguments["path"])

    def _wrap_fft(self, fft_module, attr: str, points_out: bool) -> None:
        orig = getattr(fft_module, attr)
        clock = time.perf_counter

        def wrapper(a, *args, **kwargs):
            t0 = clock()
            out = orig(a, *args, **kwargs)
            dt = clock() - t0
            points = out.size if points_out else np.size(a)
            span = self._innermost()
            with self._lock:
                span.fft_calls += 1
                span.fft_points += points
                span.fft_s += dt
            return out

        wrapper.__wrapped__ = orig
        setattr(fft_module, attr, wrapper)
        self._restore.append((fft_module, attr, orig))

    def install(self) -> None:
        import importlib

        for mod_name, attr, layer in SPANS:
            self._wrap_call(importlib.import_module(mod_name), attr, layer)
        for attr, points_out in FFTS.items():
            self._wrap_fft(np.fft, attr, points_out)
        self._home = self._stack()

    def uninstall(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    # -- summary -------------------------------------------------------

    def summary(self, passes: int, traced_wall_s: float) -> dict:
        """Per-layer metrics per pass over `passes` traced passes whose
        total wall time was `traced_wall_s`."""
        spans = self.spans
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)

        def self_s(span: Span) -> float:
            return (span.end - span.start) - _union(
                [(c.start, c.end) for c in children.get(id(span), ())],
                span.start, span.end)

        def busy(name: str) -> float:
            return sum(s.end - s.start for s in spans if s.name == name)

        m: dict[str, float] = {}
        for layer in dict.fromkeys(SOLVER_LAYER.values()):
            _solver_metrics(m, layer, [s for s in spans if s.layer == layer])
            for name, lay in SOLVER_LAYER.items():
                if lay == layer:
                    _solver_metrics(m, f"{layer}.{name}",
                                    [s for s in spans if s.name == name])

        ansatz = [s for s in spans if s.layer == "ansatz"]
        m["ansatz.s"] = sum(s.end - s.start for s in ansatz)
        m["ansatz.calls"] = len(ansatz)

        studies = [s for s in spans if s.name == "scaling_study"]
        m["experiments.self_s"] = sum(self_s(s) for s in studies)
        m["experiments.l2_error_s"] = busy("l2_error")
        m["experiments.emit_report_s"] = busy("emit_report")
        m["experiments.members"] = sum(s.count for s in studies)
        m["experiments.members_failed"] = sum(s.failed for s in studies)
        marches = duplicates = 0
        for study in studies:
            seen = set()
            for s in spans:
                if s.digest is not None and _study_of(s) is study:
                    marches += 1
                    duplicates += s.digest in seen
                    seen.add(s.digest)
        m["experiments.duplicate_march_frac"] = (
            duplicates / marches if marches else 0.0)

        rem = [s for s in spans if s.layer == "remainders"]
        m["remainders.s"] = sum(s.end - s.start for s in rem)
        m["remainders.terms"] = sum(s.count for s in rem)
        m["remainders.ms_per_term"] = (1e3 * m["remainders.s"]
                                       / m["remainders.terms"]
                                       if m["remainders.terms"] else 0.0)
        m["remainders.fft_calls"] = sum(s.fft_calls for s in rem)

        for op, done in (("write", "written"), ("read", "read")):
            m[f"paf.{op}_s"] = busy(f"{op}_paf")
            m[f"paf.bytes_{done}"] = sum(s.count for s in spans
                                         if s.name == f"{op}_paf")

        m["cli.self_s"] = sum(self_s(s) for s in spans if s.name == "main")
        m["cli.transform_field_s"] = busy("transform_field")

        everything = spans + [self.orphan]
        m["spectral.fft_calls"] = sum(s.fft_calls for s in everything)
        m["spectral.fft_points"] = sum(s.fft_points for s in everything)
        m["spectral.fft_s"] = sum(s.fft_s for s in everything)
        m["spectral.fft_share"] = m["spectral.fft_s"] / traced_wall_s

        # every value per pass; ratios are unchanged by the division
        ratios = ("ms_per_step", "fft_per_step", "ms_per_term", "_frac",
                  "fft_share")
        return {k: (v if k.endswith(ratios) else v / passes)
                for k, v in m.items()}

    def dump(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]


def _solver_metrics(m: dict, prefix: str, spans: list[Span]) -> None:
    secs = sum(s.end - s.start for s in spans)
    steps = sum(s.steps for s in spans)
    ffts = sum(s.fft_calls for s in spans)
    m[f"{prefix}.s"] = secs
    m[f"{prefix}.steps"] = steps
    m[f"{prefix}.ms_per_step"] = 1e3 * secs / steps if steps else 0.0
    m[f"{prefix}.fft_per_step"] = ffts / steps if steps else 0.0


def _study_of(span: Span) -> Span | None:
    s = span.parent
    while s is not None and s.name != "scaling_study":
        s = s.parent
    return s


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered
