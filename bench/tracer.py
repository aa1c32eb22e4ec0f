"""Per-layer tracing of brslab from outside the package.

The tracer wraps public callables of each brslab module and rebinds every
name a brslab module imported them under (``brslab.lyapunov.integrate``,
``brslab.cli.radial_table``, ...), so calls between modules go through the
wrappers.  Methods are wrapped on their class.  Nothing inside ``src/`` is
edited; ``uninstall`` restores every original binding.

Low-frequency callables record one span each (name, start, end, parent
span, operation label).  High-frequency callables (user right-hand sides,
margin evaluations, dense-output reads, feedback inputs, ``theta``) only
accumulate counters and summed time.  Self time is a call's duration minus
the time spent in wrapped callables it invoked.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

import numpy as np

# (metric prefix, module, attribute, records a span)
FUNCTIONS = (
    ("cli.build", "brslab.cli", "cmd_lyapunov_build", True),
    ("cli.verify", "brslab.cli", "cmd_lyapunov_verify", True),
    ("lyapunov.build_l_table", "brslab.lyapunov", "build_l_table", True),
    ("lyapunov.eval_V", "brslab.lyapunov", "eval_V", True),
    ("lyapunov.verify_growth", "brslab.lyapunov", "verify_growth", True),
    ("lyapunov.radial_table", "brslab.lyapunov", "radial_table", True),
    ("brscheck.probe_tdi", "brslab.brscheck", "probe_lipschitz_tdi", True),
    ("brscheck.sample_reach", "brslab.brscheck", "sample_reach", True),
    ("brscheck.fit", "brslab.brscheck", "fit_additive_bound", True),
    ("brscheck.rfc_verify", "brslab.brscheck", "verify_rfc_tdi", True),
    ("tdinput.lift", "brslab.tdinput", "lift_disturbance", True),
    ("tdinput.project", "brslab.tdinput", "project_input", True),
    ("tdinput.disturbance_family", "brslab.tdinput", "disturbance_family", True),
    ("sysdyn.integrate", "brslab.sysdyn", "integrate", True),
    ("compfun.theta", "brslab.compfun", "theta", False),
)

# (metric prefix, module, class, method, points counted per call)
METHODS = (
    ("sysdyn.state_at", "brslab.sysdyn", "Trajectory", "state_at",
     lambda args: np.size(args[1])),
    ("tdinput.feedback_eval", "brslab.tdinput", "FeedbackSignal", "eval", None),
    ("compfun.scalarfun", "brslab.compfun", "ScalarFun", "__call__",
     lambda args: np.size(args[1])),
)

# Reported stats per wrapped callable, in report order; "rows" reads points.
REPORTED = (
    ("cli.build", ("s",)),
    ("cli.verify", ("s",)),
    ("lyapunov.build_l_table", ("calls", "s")),
    ("lyapunov.eval_V", ("calls", "s", "self_s")),
    ("lyapunov.verify_growth", ("calls", "s")),
    ("lyapunov.radial_table", ("s",)),
    ("brscheck.probe_tdi", ("calls", "s", "self_s")),
    ("brscheck.sample_reach", ("s",)),
    ("brscheck.fit", ("s",)),
    ("brscheck.rfc_verify", ("calls", "s")),
    ("tdinput.lift", ("calls", "s")),
    ("tdinput.project", ("calls", "s")),
    ("tdinput.feedback_eval", ("calls", "s")),
    ("tdinput.disturbance_family", ("s",)),
    ("sysdyn.integrate", ("calls", "s", "self_s")),
    ("sysdyn.state_at", ("calls", "points", "s")),
    ("examples.rhs", ("calls", "rows", "s")),
    ("compfun.scalarfun", ("calls", "points", "s")),
    ("compfun.theta", ("calls",)),
)

# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = (
    "examples.rhs.calls",
    "sysdyn.nfev",
    "sysdyn.steps",
    "sysdyn.segments",
    "sysdyn.integrate.calls",
)


class _Stat:
    __slots__ = ("calls", "s", "self_s", "points")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.points = 0


class Tracer:
    """Counters, summed times and spans for one traced pass."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)
        self.spans = []
        self.label = ""
        self._stack = []  # frames: [child seconds, span id or None]
        self._patches = []
        self._theta = None
        self._theta_info = None

    # -- wrappers -------------------------------------------------------
    def _timed(self, name, fn, span, points=None):
        stats, stack, spans = self.stats, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = None
            parent = None
            if span:
                span_id = len(spans)
                for frame in reversed(stack):
                    if frame[1] is not None:
                        parent = frame[1]
                        break
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = stats[name]
                st.calls += 1
                st.s += dt
                st.self_s += dt - frame[0]
                if points is not None:
                    st.points += int(points(args))
                if span:
                    spans[span_id] = (span_id, parent, self.label, name, t0, t0 + dt)

        return wrapper

    def _counted_solve_ivp(self, fn):
        counts = self.counts

        def solve_ivp(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counts["sysdyn.segments"] += 1
            counts["sysdyn.nfev"] += int(sol.nfev)
            counts["sysdyn.steps"] += max(len(sol.t) - 1, 0)
            counts["sysdyn.blowups"] += int(sol.status == 1)
            counts["sysdyn.step_errors"] += int(sol.status == -1)
            return sol

        return solve_ivp

    def _counted_make(self, fn):
        """examples.make returning bundles whose user RHS is timed."""
        timed = self._timed

        def make(name, params=None):
            bundle = fn(name, params)
            system = bundle.system
            dim = system.state_dim
            rhs = timed("examples.rhs", system.rhs, False,
                        lambda args: np.size(args[0]) // dim)
            return dataclasses.replace(
                bundle, system=dataclasses.replace(system, rhs=rhs)
            )

        return make

    # -- installation ---------------------------------------------------
    def _rebind(self, original, replacement):
        """Point every brslab module name bound to `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "brslab" or mod_name.startswith("brslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        self._theta = sys.modules["brslab.compfun"].theta
        self._theta_info = self._theta_cache_info()
        for name, mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._timed(name, original, span))
        for name, mod_name, cls_name, meth, points in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._timed(name, original, False, points))
        sysdyn = sys.modules["brslab.sysdyn"]
        self._patches.append((sysdyn, "solve_ivp", sysdyn.solve_ivp))
        sysdyn.solve_ivp = self._counted_solve_ivp(sysdyn.solve_ivp)
        examples = sys.modules["brslab.examples"]
        self._rebind(examples.make, self._counted_make(examples.make))

    def uninstall(self):
        theta_now = self._theta_cache_info()
        if self._theta_info is not None and theta_now is not None:
            self.counts["theta.hits"] += theta_now.hits - self._theta_info.hits
            self.counts["theta.misses"] += theta_now.misses - self._theta_info.misses
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _theta_cache_info(self):
        """lru_cache statistics of the unwrapped theta, if it is cached."""
        info = getattr(self._theta, "cache_info", None)
        return info() if info is not None else None

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer values named as in BENCHMARK.json's per_layer list."""
        out = {}
        for prefix, fields in REPORTED:
            st = self.stats[prefix]
            for f in fields:
                out[f"{prefix}.{f}"] = getattr(st, "points" if f == "rows" else f)
            if prefix == "sysdyn.state_at":
                for name in ("segments", "steps", "nfev", "blowups", "step_errors"):
                    out[f"sysdyn.{name}"] = self.counts[f"sysdyn.{name}"]
        lookups = self.counts["theta.hits"] + self.counts["theta.misses"]
        out["compfun.theta.hit_ratio"] = (
            self.counts["theta.hits"] / lookups if lookups else 0.0
        )
        return out

    def span_records(self) -> list:
        keys = ("id", "parent", "op", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]
