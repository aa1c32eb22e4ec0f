"""Control-system abstraction, input signals, and trajectory integration.

Systems are x' = A x + f(x, u) with the linear part optional.  Inputs are
piecewise-constant signals (the dense approximating class for essentially
bounded inputs); integration restarts at every input breakpoint so the
right-hand side stays smooth within each solver step.  The solver is RK45,
or BDF with the linear part as its Newton matrix when that part is stiff
over the span integrated.  Blow-up is detected by a norm-threshold event
and reported as data, never as a crash.  A family of trajectories of one
system is integrated as a single stacked ODE and read only on the time
grid its consumer needs: the sampler steps the solver itself and writes
each step's grid states out as the step is taken, as solve_ivp's `t_eval`
does inside without holding them to the end.  One rule ends each of its
rows: a row freezes at the end of its grid or at its blow-up, whichever
comes first, and the rest go on.  `integrate` steps through the same loop
and keeps every step.

RK45 is sysdyn's own port of scipy's, so importing sysdyn loads no part of
scipy, and a `Trajectory` holds its solver's interpolants and searches
them itself; a path imports what it needs of scipy when it runs: BDF and
sparse matrices for a stiff solve, the only path that loads
scipy.integrate, brentq at a blow-up crossing, expm in `semigroup_growth`.
"""

from __future__ import annotations

import bisect
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "InputSignal",
    "SystemDef",
    "Trajectory",
    "IntegratorConfig",
    "StepSizeError",
    "RK45",
    "RkDenseOutput",
    "integrate",
    "semigroup_growth",
]


class StepSizeError(RuntimeError):
    """Integrator step size underflow; distinct from blow-up."""


def _number(name: str, value, kind=float, *, ge=None, gt=None):
    """value as a `kind` by the one rule for numbers from outside the
    program: a real (an integral for int) but not a bool, in float range,
    finite, and >= ge or > gt when given; anything else is a ValueError
    that names it."""
    what = "an integer" if kind is int else "a finite number"
    bound = "" if ge is None and gt is None else f" >= {ge}" if gt is None else f" > {gt}"
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        raise ValueError(f"{name} must be {what}{bound}, got {value!r}")
    try:
        x = float(value)  # an int past float range overflows here
    except OverflowError as exc:
        raise ValueError(f"{name} must be {what} in float range: {exc}") from exc
    if not (math.isfinite(x) and (ge is None or x >= ge) and (gt is None or x > gt)):
        raise ValueError(f"{name} must be {what}{bound}, got {value!r}")
    return kind(value)


def _numbers(name: str, value, *, ge=None, gt=None) -> np.ndarray:
    """value, a number or a nested list or array of them, as a float array,
    each entry a number by `_number` with the bounds ge and gt.  A real float
    array is read in one vectorised pass, and its first entry out of bounds
    goes to `_number` as a float, which names it as an entry-by-entry read
    does."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.itemsize <= 8:
        a = np.asarray(value, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(a) & (ge is None or a >= ge) & (gt is None or a > gt)))
        if bad.size:
            _number(name, a.flat[bad[0]].item(), ge=ge, gt=gt)
        return a
    for v in np.asarray(value, dtype=object).flat:
        _number(name, v, ge=ge, gt=gt)
    return np.asarray(value, dtype=float)


class InputSignal:
    """Piecewise-constant vector-valued signal on [0, inf).

    Segment i holds `segment_values[i]` on [b_{i-1}, b_i) (with b_{-1} = 0)
    and `tail_value` beyond the last breakpoint.  The value AT a breakpoint
    belongs to the new segment.
    """

    def __init__(self, breakpoints: Sequence[float], segment_values, tail_value):
        self.breakpoints = _numbers("breakpoints", breakpoints, gt=0)
        self._bps = self.breakpoints.tolist()  # eval's bisect beats searchsorted
        self.tail_value = np.atleast_1d(_numbers("tail_value", tail_value))
        if self.breakpoints.size:
            vals = np.atleast_2d(_numbers("segment_values", segment_values))
            if vals.shape[0] != self.breakpoints.size:
                raise ValueError("need one segment value per breakpoint")
            if np.any(np.diff(self.breakpoints) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            self.segment_values = vals
        else:
            self.segment_values = np.empty((0, self.tail_value.size))

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls([], [], value)

    @property
    def dim(self) -> int:
        return self.tail_value.size

    def eval(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("signals are defined for t >= 0 only")
        idx = bisect.bisect_right(self._bps, t)
        if idx >= self.breakpoints.size:
            return self.tail_value
        return self.segment_values[idx]

    def _all_values(self) -> np.ndarray:
        return np.vstack([self.segment_values, self.tail_value[None, :]])

    def sup_norm(self) -> float:
        """Essential supremum of the value norm over [0, inf)."""
        return float(np.linalg.norm(self._all_values(), axis=1).max())


@dataclass(frozen=True, eq=False)
class SystemDef:
    """Right-hand side x' = linear_part @ x + rhs(x, u).

    `state_dim` and `input_dim` are integers >= 1 and `linear_part`, if
    given, a finite (state_dim, state_dim) matrix, stored as a float array;
    anything else is a ValueError that names the field.  `rhs` maps an (n,)
    state and (m,) input to (n,), and is row-wise: (N, n) states with (N, m)
    inputs give the (N, n) derivatives of the N rows.  `==` and `hash` go by
    identity.  A right-hand side that is not finite where a solve starts is
    a StepSizeError, read once there.
    """

    state_dim: int
    input_dim: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    linear_part: np.ndarray | None = None
    name: str = ""
    lipschitz_hint: Callable[[float], float] | None = None

    def __post_init__(self):
        n = _number("state_dim", self.state_dim, int, ge=1)
        object.__setattr__(self, "state_dim", n)
        object.__setattr__(self, "input_dim", _number("input_dim", self.input_dim, int, ge=1))
        if self.linear_part is not None:
            A = _numbers("linear_part", self.linear_part)
            if A.shape != (n, n):
                raise ValueError(f"linear_part must be a ({n}, {n}) matrix, got shape {A.shape}")
            object.__setattr__(self, "linear_part", A)

    def full_rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """x' at one state x, shape (n,), under u, shape (m,), or at a stack
        of states, shape (K, n), under inputs of shape (K, m): the one
        evaluator of the vector field, for `integrate` and the sampler alike.
        An `rhs` whose result is not shaped as x is a ValueError."""
        dx = np.asarray(self.rhs(x, u), dtype=float)
        if dx.shape != x.shape:
            raise ValueError(
                f"rhs of system {self.name!r} returned shape {dx.shape} for states"
                f" {x.shape} and inputs {np.shape(u)}; it must be row-wise"
            )
        if self.linear_part is not None:
            dx = dx + x @ self.linear_part.T
        return dx


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    blowup_threshold: float = 1e9

    def __post_init__(self):
        # a NaN tolerance never accepts a step and a NaN threshold never fires
        for name in ("rel_tol", "abs_tol", "blowup_threshold"):
            _number(name, getattr(self, name), gt=0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Solver steps, states, maximal-time estimate, blow-up flag, and
    `steps`, the solver's interpolant over each step from times[i] to
    times[i + 1] (its dense output: Hairer, Norsett & Wanner, Solving ODEs
    I, sec. II.6), which `state_at` reads.  `==` and `hash` go by identity."""

    times: np.ndarray
    states: np.ndarray
    t_max_estimate: float
    blew_up: bool
    steps: tuple = field(repr=False)

    def __post_init__(self):
        # state_at's step search, as solve_ivp reads a step time: RK45 from
        # the step that ends there, BDF (or a lone constant step) from the next
        object.__setattr__(self, "_ts", self.times.tolist())
        object.__setattr__(self, "_find", bisect.bisect_left
                           if isinstance(self.steps[0], RkDenseOutput) else bisect.bisect_right)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def state_at(self, t) -> np.ndarray:
        """State at time t, shape (n,), or at a 1-D array of times, shape
        (T, n), with the bits of solve_ivp's dense output over the same steps;
        times outside [0, times[-1]] read the nearer end, and a time that is
        not a finite number is a ValueError that names t.  A number (what a
        FeedbackSignal reads on every right-hand-side call) is read in Python
        floats, an array sorted and in runs of one step, one call each."""
        if not isinstance(t, float):
            if np.ndim(t) == 0:
                return self.state_at(float(_numbers("t", t)))
            t = _numbers("t", t)
            if t.ndim != 1:
                raise ValueError(f"t must be a number or a 1-D array, got shape {t.shape}")
            order = np.argsort(t)
            t = np.clip(t[order], 0.0, self.times[-1])
            side = "left" if self._find is bisect.bisect_left else "right"
            idx = np.clip(np.searchsorted(self.times, t, side) - 1, 0, len(self.steps) - 1)
            cut = (np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()  # where each run starts
            out = np.empty((self.states.shape[1], t.size))
            if t.size:  # one interpolant call per run of one step
                out[:, order] = np.hstack([self.steps[idx[lo]](t[lo:hi])
                                           for lo, hi in zip([0, *cut], [*cut, t.size])])
            return out.T
        ts = self._ts
        if not 0.0 <= t <= ts[-1]:  # outside [0, end], or NaN
            if not math.isfinite(t):
                _number("t", t)
            t = 0.0 if t < 0.0 else ts[-1]
        steps = self.steps
        step = steps[min(max(self._find(ts, t) - 1, 0), len(steps) - 1)]
        if type(step) is not RkDenseOutput:  # BDF's and the constant one
            return step(t)
        # RkDenseOutput.__call__ on a 0-d t: the powers x, x^2, ... by
        # repeated multiplication, as np.cumprod builds them
        x = (t - step.t_old) / step.h
        p = [x]
        for _ in range(step.order):
            p.append(p[-1] * x)
        y = step.h * np.dot(step.Q, p)
        y += step.y_old
        return y


class RK45:
    """Explicit Runge-Kutta 5(4) stepper, the Dormand-Prince pair (Dormand &
    Prince, J. Comput. Appl. Math. 6, 1980) with the step control of Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.4, and Shampine's quartic
    dense output: scipy 1.17's scipy.integrate.RK45, ported expression for
    expression for a forward solve (t_bound >= t0), so it takes the same
    steps to the bit.

    fun(t, y) returns the slope at y as a float array of y's shape.  step()
    takes one step; dense_output() is the interpolant over the last one.
    `t`, `y`, `t_old`, `h_abs` (the next step's size) and `status`
    ('running', 'finished' or 'failed') read as scipy's.  The stepper holds
    no reference to itself, so a finished one is freed at once, not by the
    cyclic collector.
    """

    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
    ERROR_EXPONENT = -1 / (4 + 1)  # the embedded estimate is of order 4
    SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10

    def __init__(self, fun, t0, y0, t_bound, rtol=1e-3, atol=1e-6):
        y0 = np.asarray(y0).astype(float, copy=False)
        if y0.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        if t_bound < t0:
            raise ValueError("RK45 steps forward only: t_bound < t0")
        eps100 = 100 * np.finfo(float).eps
        if np.any(rtol < eps100):
            warnings.warn("At least one element of `rtol` is too small. Setting"
                          f" `rtol = np.maximum(rtol, {eps100})`.", stacklevel=2)
            rtol = np.maximum(rtol, eps100)
        self.fun, self.t, self.y, self.t_bound = fun, t0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.t_old = self.y_old = None
        self.status = "running"
        self.f = fun(t0, y0)
        self.h_abs = self._initial_step()
        self.K = np.empty((7, y0.size))

    def _initial_step(self) -> float:
        """scipy's select_initial_step (Hairer, Norsett & Wanner, sec. II.4)."""
        fun, t0, y0, f0 = self.fun, self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * f0
        f1 = fun(t0 + h0, y1)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval_length)

    def step(self):
        """One step; returns None, or the message of a failed step."""
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished solver.")
        t = self.t
        if t == self.t_bound:  # nothing to integrate
            self.t_old, self.t, self.status = t, self.t_bound, "finished"
            return None
        message = self._step_impl()
        if message is not None:
            self.status = "failed"
        else:
            self.t_old = t
            if self.t - self.t_bound >= 0:
                self.status = "finished"
        return message

    def _step_impl(self):
        t, y, fun, K = self.t, self.y, self.fun, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                return "Required step size is less than spacing between numbers."
            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            # scipy's rk_step
            K[0] = self.f
            for s, (a, c) in enumerate(zip(self.A[1:], self.C[1:]), start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, self.B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(np.dot(K.T, self.E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = self.MAX_FACTOR
                else:
                    factor = min(self.MAX_FACTOR,
                                 self.SAFETY * error_norm ** self.ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(self.MIN_FACTOR, self.SAFETY * error_norm ** self.ERROR_EXPONENT)
            step_rejected = True
        self.y_old, self.t, self.y, self.h_abs, self.f = y, t_new, y_new, h_abs, f_new
        return None

    def dense_output(self):
        """The interpolant over the last step."""
        if self.t_old is None:
            raise RuntimeError("Dense output is available after a successful step was made.")
        if self.t == self.t_old:  # the zero-length span
            return _constant(self.y)
        return RkDenseOutput(self.t_old, self.t, self.y_old, self.K.T.dot(self.P))


def _rms(x) -> float:
    """scipy's RK error norm, np.linalg.norm(x) / sqrt(x.size), by the same
    arithmetic without its dispatch."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


class RkDenseOutput:
    """scipy's RkDenseOutput: the quartic interpolant over one RK45 step from
    t_old to t, read at a time, shape (n,), or at an array of times, shape
    (n, T)."""

    def __init__(self, t_old, t, y_old, Q):
        self.t_old, self.t = t_old, t
        self.h = t - t_old
        self.Q = Q
        self.order = Q.shape[1] - 1
        self.y_old = y_old

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            p = np.tile(x, self.order + 1)
            p = np.cumprod(p)
        else:
            p = np.tile(x, (self.order + 1, 1))
            p = np.cumprod(p, axis=0)
        y = self.h * np.dot(self.Q, p)
        if y.ndim == 2:
            y += self.y_old[:, None]
        else:
            y += self.y_old
        return y


def _constant(y):
    """The interpolant over a zero-length span: y at a time, shape (n,), or
    at an array of times, shape (n, T)."""
    return lambda t: np.repeat(y[:, None], np.size(t), axis=1) if np.ndim(t) else y.copy()


def _segment_edges(breakpoints, tau: float) -> np.ndarray:
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    inner = bp[(bp > 0) & (bp < tau)]
    return np.concatenate([[0.0], inner, [tau]])


# rho(A) * span from which BDF with Newton matrix A beats RK45, whose step
# stability caps at about 3.3 / rho(A): the measured crossover lies between
# 1,000 and 4,000 (CHANGES.md).
_STIFF_RHO_SPAN = 2000.0


def _solver(A, span: float, rows: int) -> dict:
    """The solver class and its options for `rows` stacked states of a system
    with linear part A (None if it has none) integrated over `span`.

    RK45 unless rho(A) * span reaches _STIFF_RHO_SPAN; then scipy's BDF with
    the constant Newton matrix A, kron(I_rows, A) for a stack.  The rest of
    the right-hand side is taken as non-stiff, so its derivative is left out.
    """
    if A is None or np.abs(np.linalg.eigvals(A)).max() * span < _STIFF_RHO_SPAN:
        return {"method": RK45}
    from scipy import sparse
    from scipy.integrate import BDF

    jac = A if rows == 1 else sparse.kron(sparse.identity(rows), A, format="csc")
    return {"method": BDF, "jac": jac}


def _first_call(fun, f0):
    """fun, but its first call returns f0: the solver's constructor reads
    the slope at the solve's start, which `_run` has just evaluated there."""
    pending = [f0]
    return lambda t, y: pending.pop() if pending else fun(t, y)


def _run(f_at, y0, edges, cfg: IntegratorConfig, ends, solve):
    """Solve the stack y' = f_at(a, b, live)(t, y) of len(ends) rows across
    `edges`, one solve per [a, b] from the previous solve's last state.
    Returns the state where the run ended and each row's blow-up crossing
    time (inf if it did not cross).  Rows that start at or above
    `cfg.blowup_threshold` cross at edges[0].

    Row i is live from a while a < ends[i]; `live` selects those rows and
    f_at must hold the others still.  The blow-up event is the largest live
    row norm crossing `cfg.blowup_threshold`: the crossing row, and any
    other live row at or above the threshold by then, is frozen at its
    state there, as at its end, and the other rows go on from the
    crossing time.  The run ends when no row is live.  A right-hand side
    not finite where a solve starts is a StepSizeError; the value checked
    there is the solver's first evaluation.  Each solve is
    solve(fun, a, b, y, event, rtol=, atol=), which returns (t, y, crossed):
    the time and state where it ended, at b or, if `crossed`, at the
    event's upward zero.  The tolerances are divided by sqrt(rows), so every
    row stays within `cfg` although the solver's error norm is an RMS over
    all components.
    """
    threshold = cfg.blowup_threshold
    stop = np.array(ends, dtype=float)  # a crossing row stops at its crossing time
    rows = stop.size
    t_cross = np.full(rows, math.inf)

    def scaled_norms(y):
        """Each row's norm over the threshold: the start check, the event
        and the crossing rule compare it with 1, so no square overflows."""
        z = y.reshape(rows, -1) / threshold
        return np.sqrt((z * z).sum(axis=1))

    def blowup_event(t, y):
        return scaled_norms(y)[sel].max() - 1.0

    scale = math.sqrt(rows)
    y, a = y0, edges[0]
    # the upward event never fires for a row that starts above the threshold
    crossed = scaled_norms(y0) >= 1.0
    stop[crossed] = t_cross[crossed] = a
    for b in edges[1:]:
        while a < b:
            live = stop > a
            if not live.any():
                return y, t_cross
            sel = slice(None) if live.all() else live  # read by blowup_event
            fun = f_at(a, b, sel)
            # the first-step selection loops without end on a NaN slope
            f0 = fun(float(a), y)
            if not np.isfinite(f0).all():
                raise StepSizeError(f"integrator failed on [{float(a)}, {float(b)}]:"
                                    " the right-hand side is not finite at its start")
            a, y, event = solve(_first_call(fun, f0), float(a), float(b), y, blowup_event,
                                rtol=cfg.rel_tol / scale, atol=cfg.abs_tol / scale)
            if event:  # the terminal event ends the last step at the crossing
                r = scaled_norms(y)
                # a row left live above the threshold would never cross it upward
                crossed = live & (r >= min(r[live].max(), 1.0))
                stop[crossed] = t_cross[crossed] = a
    return y, t_cross


def integrate(
    sys: SystemDef, x0, u, tau: float, cfg: IntegratorConfig | None = None
) -> Trajectory:
    """Adaptive solution of x' = linear_part x + rhs(x, u(t)) on [0, tau]: RK45,
    or BDF with Newton matrix linear_part when rho(linear_part) * tau reaches
    _STIFF_RHO_SPAN.

    `u` is an InputSignal or any object exposing `dim`, `eval(t)` and
    `breakpoints`; integration restarts at every breakpoint, and a solve
    over [a, b] reads u on [a, b), at b its left limit.  `times` and
    `states` are the solver's own steps; read any other time through
    `state_at`.  On blow-up the trajectory ends at the threshold-crossing
    time.  An `x0` or an input whose dimension does not match `sys`, or an
    `rhs` that is not row-wise (`SystemDef.full_rhs`), is a ValueError.  A
    right-hand side that is not finite where a solve starts, at x0 or a
    breakpoint, or that turns NaN inside a solve, is a StepSizeError.

    Every pipeline stage reads its states from the ensemble sampler;
    `integrate` serves only the paths that need the solver's own steps or a
    dense solution: `brslab simulate`, `tdinput`'s lift and projection (a
    FeedbackSignal input, which the sampler cannot read) and library callers.
    """
    _number("tau", tau, gt=0)
    cfg = cfg or IntegratorConfig()
    x0 = np.atleast_1d(_numbers("x0", x0))
    if x0.shape != (sys.state_dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({sys.state_dim},)")
    if u.dim != sys.input_dim:
        raise ValueError(f"input has dimension {u.dim}, expected {sys.input_dim}")

    def f_at(a, b, live):  # the one row is live until the run ends
        last = np.nextafter(b, a)
        return lambda t, y: sys.full_rhs(y, u.eval(min(t, last)))

    times, states, steps = [0.0], [x0], []  # one interpolant per solver step
    options = _solver(sys.linear_part, tau, 1)

    def solve(fun, a, b, y, event, **tol):
        first = len(times)

        def keep(solver, t, y, sol):
            # as solve_ivp keeps its steps: not one that ends where the
            # solve's last kept step did (a crossing at the step's start)
            if len(times) == first or times[-1] != t:
                times.append(t)
                states.append(y)
                steps.append(solver.dense_output() if sol is None else sol)

        return _stream(fun, a, b, y, event, keep, **options, **tol)

    _, t_cross = _run(f_at, x0, _segment_edges(u.breakpoints, tau), cfg, [tau], solve)
    t_max = float(t_cross[0])
    if not steps:  # a run that ends where it starts holds x0
        steps.append(_constant(x0))
    return Trajectory(np.array(times), np.vstack(states), t_max, t_max < math.inf, tuple(steps))


_ROOT_TOL = 4.0 * np.finfo(float).eps  # solve_ivp's tolerance on an event's root


def _stream(fun, a: float, b: float, y, event, on_step, method, **options):
    """One solve over [a, b] by `method` that calls on_step(solver, t, y, sol)
    after each step, as solve_ivp's loop reads its outputs there: t and y
    are the step's end and the state there, and sol the step's interpolant
    if it was built, else None (solver.dense_output() builds it).

    Returns the last step's (t, y, crossed): b and the solver's state there,
    or, when `event` rises through zero across a step, its root on the
    step's interpolant and the state read there (solve_ivp's terminal
    event).
    """
    solver = method(fun, a, y, b, **options)
    g = event(a, y)
    while True:
        message = solver.step()
        if solver.status == "failed":
            raise StepSizeError(f"integrator failed on [{a}, {b}]: {message}")
        t, y, sol = solver.t, solver.y, None
        g_new = event(t, y)
        crossed = g <= 0.0 <= g_new
        if crossed:
            from scipy.optimize import brentq

            sol = solver.dense_output()
            t = brentq(lambda s: event(s, sol(s)), solver.t_old, t,
                       xtol=_ROOT_TOL, rtol=_ROOT_TOL)
            y = sol(t)
        g = g_new
        on_step(solver, t, y, sol)
        if crossed or solver.status == "finished":
            return t, y, crossed


# State values the sampler holds before it scatters them into the samples:
# one copy per few steps costs less than one per step, and memory beyond the
# samples stays bounded however long the grid.
_HELD_VALUES = 1 << 15


def _time_grid(grid, end: float, name: str = "grid") -> np.ndarray:
    """`grid` as a float array; a ValueError naming it unless it is
    non-empty and strictly increasing in [0, end]."""
    g = np.asarray(grid, dtype=float)
    if not (g.ndim == 1 and g.size and 0 <= g[0] and g[-1] <= end and np.all(np.diff(g) > 0)):
        raise ValueError(f"{name} must be non-empty and strictly increasing in [0, {end}]")
    return g


def _consecutive(idx: np.ndarray):
    """Distinct indices idx as the slice over the same entries if they fill a
    range (a view, not a copy, and in the same order if idx increases)."""
    lo, hi = (int(idx.min()), int(idx.max()) + 1) if idx.size else (0, 0)
    return slice(lo, hi) if hi - lo == idx.size else idx


def _sample_ensemble(
    sys: SystemDef, X0, inputs, groups, cfg: IntegratorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """States of N trajectories at their grid times, integrated as one stacked ODE.

    Row i starts at X0[i] under the piecewise-constant InputSignal inputs[i].
    `groups` is a list of (times, rows): the rows, an index array, read the
    times, which are non-empty, strictly increasing, start at >= 0 and end at
    a finite time > 0; every row is in exactly one group.  A row runs to the
    last time of its own grid and is frozen there, or from the time its norm
    crosses the blow-up threshold if that comes first: its derivative is zero
    and its later grid times hold its state there, while the other rows go
    on.  Integration restarts only at the union of the rows' breakpoints and
    grid ends.  Each solver step reads its interpolant at the union grid
    times inside it (`_stream`); the sampler holds those states until one
    more step would take them past _HELD_VALUES values, then scatters them
    into the samples, each group's times and rows in one copy, so nothing
    but the samples grows with the grid.  Returns the samples, shape
    (T, N, n) for T the longest grid's length (NaN after the end of a
    shorter one), and each row's crossing time, shape (N,) (inf if it did
    not cross).  The live rows' derivatives are one `sys.full_rhs` call.
    """
    X0 = np.asarray(X0, dtype=float)
    N, n = X0.shape
    if n != sys.state_dim or len(inputs) != N:
        raise ValueError(
            f"need {N} inputs and states of dimension {sys.state_dim}, got"
            f" {len(inputs)} inputs and states of shape {X0.shape}"
        )
    if any(u.dim != sys.input_dim for u in inputs):
        raise ValueError(f"every input must have dimension {sys.input_dim}")
    groups = [(_time_grid(g, math.inf, "every grid"), np.asarray(rows, dtype=int))
              for g, rows in groups]
    if not all(0 < g[-1] < math.inf for g, _ in groups):
        raise ValueError("every grid must end at a finite time > 0")
    covered = np.sort(np.concatenate([np.zeros(0, dtype=int)] + [rows for _, rows in groups]))
    if not np.array_equal(covered, np.arange(N)):
        raise ValueError(f"the groups must hold each of the {N} rows exactly once")
    groups = [(g, _consecutive(rows)) for g, rows in groups]
    ends = np.empty(N)
    for g, rows in groups:
        ends[rows] = g[-1]
    # all rows' input values in one table: row i's start at first[i] and
    # advance by one at each of its breakpoints
    values = np.vstack([u._all_values() for u in inputs])
    first = np.cumsum([0] + [u.breakpoints.size + 1 for u in inputs[:-1]])
    switch_at = np.concatenate([u.breakpoints for u in inputs])
    switch_row = np.repeat(np.arange(N), [u.breakpoints.size for u in inputs])

    def f_at(a, b, live):
        U = values[first + np.bincount(switch_row[switch_at <= a], minlength=N)][live]

        def f(t, y):
            dY = sys.full_rhs(y.reshape(N, n)[live], U)
            if isinstance(live, slice):
                return dY.ravel()
            full = np.zeros((N, n))  # frozen rows stay where they are
            full[live] = dY
            return full.ravel()

        return f

    union = np.unique(np.concatenate([g for g, _ in groups]))
    # per group: its rows, the union index of each of its times, entries filled
    reads = [[rows, np.searchsorted(union, g), 0] for g, rows in groups]
    samples = np.full((max(g.size for g, _ in groups), N, n), np.nan)
    k = 0  # union times scattered so far

    def scatter(Y):
        """Grid entries at the next len(Y) union times from Y, shape (len(Y), N, n)."""
        nonlocal k
        for read in reads:
            rows, at, lo = read
            hi = int(np.searchsorted(at, k + len(Y)))
            if hi > lo:
                samples[lo:hi, rows] = Y[_consecutive(at[lo:hi] - k)][:, rows]
                read[2] = hi
        k += len(Y)

    held = []  # steps' states not scattered yet, each (N * n, K)
    emitted = 0  # union times handed out by the solver so far

    def flush():
        if held:
            Y = held[0] if len(held) == 1 else np.concatenate(held, axis=1)
            scatter(Y.T.reshape(-1, N, n))
            held.clear()

    def emit(Y):  # one step's states at the next union times, shape (N * n, K)
        nonlocal emitted
        if (emitted - k + Y.shape[1]) * N * n > _HELD_VALUES:
            flush()
        held.append(Y)
        emitted += Y.shape[1]

    options = _solver(sys.linear_part, ends.max(), N)

    def solve(fun, a, b, y, event, **tol):
        # the union times in [a, b], and b, whose state ends the solve
        t_eval = np.append(union[emitted : np.searchsorted(union, b)], b)
        last = len(t_eval) - 1
        read = [0, None]  # t_eval entries read so far, and the last one's state

        def emit_step(solver, t, y, sol):
            i, j = read[0], int(np.searchsorted(t_eval, t, side="right"))
            if j > i:
                Y = (solver.dense_output() if sol is None else sol)(t_eval[i:j])
                if i < last:
                    emit(Y[:, : min(j, last) - i])
                read[:] = j, Y[:, -1]

        t, y, crossed = _stream(fun, a, b, y, event, emit_step, **options, **tol)
        # at b, the state the last step's interpolant reads there
        return t, (y if crossed else read[1].copy()), crossed

    edges = _segment_edges(np.concatenate([switch_at, ends]), ends.max())
    end, t_cross = _run(f_at, X0.ravel(), edges, cfg, ends, solve)
    flush()
    # the union times at the last end, or after the last row froze, hold the last state
    scatter(np.broadcast_to(end.reshape(N, n), (union.size - k, N, n)))
    return samples, t_cross


def semigroup_growth(A: np.ndarray, t_cert: float = 10.0) -> tuple[float, float]:
    """Estimated pair (M, lambda) for ||exp(A t)|| <= M exp(lambda t).

    lambda is the spectral abscissa; M is the max ratio observed on a
    60-point logarithmic time grid in (0, t_cert], at least 1.  For a normal
    A that is M = 1 and the bound holds; for a non-normal A the ratio can
    peak between grid points or after t_cert, so M is an estimate from
    below, not a certificate.
    """
    A, t_cert = _numbers("A", A), _number("t_cert", t_cert, gt=0)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    from scipy.linalg import expm

    lam = float(np.max(np.linalg.eigvals(A).real))
    ts = np.logspace(-3, math.log10(t_cert), 60)
    M = 1.0
    for t in ts:
        ratio = np.linalg.norm(expm(A * t), ord=2) / math.exp(lam * t)
        M = max(M, float(ratio))
    return M, lam


def __getattr__(name):
    # Served on its first read, so that importing sysdyn loads no
    # scipy.integrate: solve_ivp, which sysdyn no longer calls (`_stream`
    # steps every solve) but bench/tracer.py wraps to count solver work; it
    # goes when the tracer counts the steps of `_stream` instead (ROADMAP
    # item 6).
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
