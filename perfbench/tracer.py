"""Layer tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of each
``wavetrain`` module (plus the few methods and private entry points other
layers call directly) and the dense kernels they use. Nothing under ``src/``
is modified: wrappers are installed by rebinding module and class attributes
and are removed again by ``uninstall``.

Three kinds of wrapper exist:

* spans: a layer boundary. Each call is kept in memory as
  ``(id, parent, layer, name, start, end)`` and takes part in self-time
  accounting (a layer's self time is its spans' durations minus the time
  covered by child spans);
* counters: per-step calls (time steps, reaction evaluations). They are
  counted and timed but keep no span record, so a 10^5-step run does not
  fill memory;
* kernels: dense linear algebra and FFTs. Each call is counted and timed
  against the innermost active layer, and its time stays inside that layer's
  self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# the package's modules, one layer each
LAYERS = ("bloch", "fourier", "semigroup", "grids", "evolve", "models",
          "profiles", "cli")


class Tracer:
    """Collects spans, per-layer self times and counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.times = defaultdict(float)
        self.active = True
        self._stack = []
        self._saved = []
        self._next_id = 0

    # -- wrappers -----------------------------------------------------------

    def _frame_wrapper(self, layer, name, fn, record, on_call, on_return,
                       on_raise):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        times = self.times
        calls_key = f"{layer}.{name}.calls"
        incl_key = f"{layer}.{name}.s"
        self_key = f"{layer}.self_s"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(counts, args, kwargs)
            parent = stack[-1][2] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [layer, 0.0, sid]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(counts, exc)
                raise
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                times[self_key] += dur - frame[1]
                times[incl_key] += dur
                counts[calls_key] += 1
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans.append((sid, parent, layer, name, t0, t1))
            if on_return is not None:
                on_return(counts, result)
            return result

        return wrapper

    def span(self, layer, name, fn, on_call=None, on_return=None,
             on_raise=None):
        return self._frame_wrapper(layer, name, fn, True, on_call, on_return,
                                   on_raise)

    def counter(self, layer, name, fn):
        """Counted and self-timed, but no span record."""
        return self._frame_wrapper(layer, name, fn, False, None, None, None)

    def kernel(self, kind, fn):
        """Count and time ``fn`` against the innermost active layer."""
        stack = self._stack
        counts = self.counts
        times = self.times
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                layer = stack[-1][0] if stack else "bench"
                counts[f"{layer}.{kind}_calls"] += 1
                times[f"{layer}.{kind}_s"] += _clock() - t0

        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, modules, original, wrapped):
        """Replace ``original`` in every module namespace that holds it, so
        names imported with ``from .x import y`` are wrapped as well."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapped)

    def install(self):
        import importlib

        import numpy as np
        import scipy.linalg as sla

        import wavetrain
        from wavetrain.errors import PhaseWarpError

        mods = {name: importlib.import_module(f"wavetrain.{name}")
                for name in LAYERS}
        bloch, evolve, grids, models, semigroup = (
            mods[name] for name in ("bloch", "evolve", "grids", "models",
                                    "semigroup"))
        namespaces = list(mods.values()) + [wavetrain]
        hooks = _hooks(np, PhaseWarpError)

        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.span(layer, name, fn, **hooks.get(name, {}))
                self._rebind_everywhere(namespaces, fn, wrapped)

        # methods and private entry points that other layers call directly
        engine = semigroup.SemigroupEngine
        self._set(engine, "__init__", self.span(
            "semigroup", "SemigroupEngine", engine.__init__,
            **hooks["SemigroupEngine"]))
        for name, fn in list(vars(engine).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                self._set(engine, name, self.span("semigroup", name, fn))
        self._set(bloch._BranchWalker, "mode_at", self.span(
            "bloch", "mode_at", bloch._BranchWalker.mode_at))
        self._set(grids.GridFunction, "interp", self.span(
            "grids", "interp", grids.GridFunction.interp, **hooks["interp"]))
        self._set(models.ReactionModel, "f", self.counter(
            "models", "f", models.ReactionModel.f))
        self._set(models.ReactionModel, "df", self.counter(
            "models", "df", models.ReactionModel.df))
        for cls in set(evolve._SCHEMES.values()):
            self._set(cls, "step", self._step_counter(cls.step))

        # dense kernels, charged to the innermost active layer
        for kind, owner in (("eig", sla), ("eigvals", sla), ("expm", sla),
                            ("cond", np.linalg), ("inv", np.linalg)):
            self._set(owner, kind, self.kernel(kind, getattr(owner, kind)))
        for kind in ("fft", "ifft", "rfft", "irfft"):
            self._set(np.fft, kind, self.kernel("fft", getattr(np.fft, kind)))

    def _step_counter(self, fn):
        counts = self.counts
        times = self.times
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["evolve.steps"] += 1
                times["evolve.step_s"] += _clock() - t0

        return wrapper

    def uninstall(self):
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)

    # -- results ------------------------------------------------------------

    def snapshot(self):
        """Copy of the counts so far (for per-command deltas)."""
        return Counter(self.counts)


def _hooks(np, phase_warp_error):
    """Per-function hooks that turn arguments or results into counts."""

    def engine_fibers(counts, args, kwargs):
        n_period = args[2] if len(args) > 2 else kwargs["n_period"]
        counts["semigroup.fibers"] += int(n_period)

    def interp_bytes(counts, args, kwargs):
        gf = args[0]
        points = args[1] if len(args) > 1 else kwargs["points"]
        # the dense exponential is len(points) x P complex128
        counts["grids.interp_bytes"] += (np.atleast_1d(points).size
                                         * gf.n_points * 16)

    def branch_lost(counts, result):
        counts["bloch.branch_lost"] += int(np.isnan(result.critical.real).sum())

    def newton_iters(counts, result):
        counts["profiles.newton_iters"] += len(
            result.info.get("newton_residuals", []))

    def warp_failure(counts, exc):
        if isinstance(exc, phase_warp_error):
            counts["evolve.warp_failures"] += 1

    def sweeps(counts, result):
        counts["evolve.duhamel_sweeps"] += int(result.iterations)

    return {
        "SemigroupEngine": {"on_call": engine_fibers},
        "interp": {"on_call": interp_bytes},
        "subharmonic_spectrum": {"on_return": branch_lost},
        "solve_profile": {"on_return": newton_iters},
        "modulation_frame": {"on_raise": warp_failure},
        "extract_modulation_duhamel": {"on_return": sweeps},
    }
