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
comes first, and the rest go on.  sysdyn is the one module that imports
scipy.integrate.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import BDF, RK45, OdeSolution, solve_ivp
from scipy.integrate._ivp.base import ConstantDenseOutput
from scipy.integrate._ivp.rk import RkDenseOutput
from scipy.linalg import expm
from scipy.optimize import brentq

__all__ = [
    "InputSignal",
    "SystemDef",
    "Trajectory",
    "IntegratorConfig",
    "StepSizeError",
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
    each entry a number by `_number` with the bounds ge and gt."""
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
    """Solver steps, states, maximal-time estimate, blow-up flag, and the
    solver's dense output over every step, which reads the state at any
    time in [0, times[-1]].  `==` and `hash` go by identity."""

    times: np.ndarray
    states: np.ndarray
    t_max_estimate: float
    blew_up: bool
    dense: OdeSolution = field(repr=False)

    def __post_init__(self):
        # state_at's float path: the step times as floats, and the bisection
        # on the side OdeSolution searches them ("right" for BDF's alt_segment)
        object.__setattr__(self, "_ts", self.dense.ts.tolist())
        object.__setattr__(
            self, "_find", bisect.bisect_left if self.dense.side == "left" else bisect.bisect_right
        )

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def state_at(self, t) -> np.ndarray:
        """State at time t, shape (n,), or at an array of times, shape (T, n);
        times outside [0, times[-1]] read the nearer end.

        A float t (the read of every right-hand-side call of a FeedbackSignal)
        takes the same step and the same arithmetic as OdeSolution, in Python
        floats: the same bits without its array dispatch."""
        if not isinstance(t, float):
            return self.dense(np.clip(t, 0.0, self.times[-1])).T
        ts = self._ts
        t = min(max(t, 0.0), ts[-1])
        steps = self.dense.interpolants
        step = steps[min(max(self._find(ts, t) - 1, 0), len(steps) - 1)]
        if type(step) is not RkDenseOutput:  # BDF's and the constant one
            return step(t)
        # RkDenseOutput._call_impl on a 0-d t: the powers x, x^2, ... by
        # repeated multiplication, as np.cumprod builds them
        x = (t - step.t_old) / step.h
        p = [x]
        for _ in range(step.order):
            p.append(p[-1] * x)
        y = step.h * np.dot(step.Q, p)
        y += step.y_old
        return y


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

    RK45 unless rho(A) * span reaches _STIFF_RHO_SPAN; then BDF with the
    constant Newton matrix A, kron(I_rows, A) for a stack.  The rest of the
    right-hand side is taken as non-stiff, so its derivative is left out.
    """
    if A is None or np.abs(np.linalg.eigvals(A)).max() * span < _STIFF_RHO_SPAN:
        return {"method": RK45}
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

    blowup_event.terminal = True
    blowup_event.direction = 1.0
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
            # scipy's first-step selection loops without end on a NaN slope
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

    times = [np.zeros(1)]
    states = [x0[None, :]]
    steps = []  # one dense-output interpolant per solver step
    solver = _solver(sys.linear_part, tau, 1)

    def solve(fun, a, b, y, event, **tol):
        sol = solve_ivp(fun, (a, b), y, events=event, dense_output=True, **solver, **tol)
        if sol.status == -1:
            raise StepSizeError(f"integrator failed on [{a}, {b}]: {sol.message}")
        times.append(sol.t[1:])
        states.append(sol.y[:, 1:].T)
        steps.extend(sol.sol.interpolants)
        if sol.status == 1:
            return float(sol.t_events[0][0]), sol.y_events[0][0], True
        return b, sol.y[:, -1], False

    _, t_cross = _run(f_at, x0, _segment_edges(u.breakpoints, tau), cfg, [tau], solve)
    t_max = float(t_cross[0])

    times = np.concatenate(times)
    if not steps:  # a run that ends where it starts holds x0
        return Trajectory(times, states[0], t_max, True,
                          OdeSolution([0.0, 0.0], [ConstantDenseOutput(0.0, 0.0, x0)]))
    # as solve_ivp does: at a step time, BDF output is read from the step
    # that starts there, RK45 output from the step that ends there
    return Trajectory(
        times=times,
        states=np.vstack(states),
        t_max_estimate=t_max,
        blew_up=t_max < math.inf,
        dense=OdeSolution(times, steps, alt_segment=issubclass(solver["method"], BDF)),
    )


_ROOT_TOL = 4.0 * np.finfo(float).eps  # solve_ivp's tolerance on an event's root


def _stream(fun, a: float, b: float, y, event, t_eval, emit, method, **options):
    """One solve over [a, b] that hands each step's states at the times of
    `t_eval` to emit(Y), shape (len(y), K), as the step is taken, as
    solve_ivp does inside for its `t_eval`, with the same bits, but without
    holding them to the end.  t_eval increases, lies in [a, b] and ends at
    b, whose state is returned and not emitted.

    Returns (t, y, crossed): b and the state the last step's interpolant
    reads there, or, when `event` rises through zero across a step, its
    root on the step's interpolant and the state there (solve_ivp's
    terminal event).
    """
    solver = method(fun, a, y, b, **options)
    last = len(t_eval) - 1  # b's index
    g, i = event(a, y), 0
    while True:
        message = solver.step()
        if solver.status == "failed":
            raise StepSizeError(f"integrator failed on [{a}, {b}]: {message}")
        t, sol = solver.t, None
        g_new = event(t, solver.y)
        crossed = g <= 0.0 <= g_new
        if crossed:
            sol = solver.dense_output()
            t = brentq(lambda s: event(s, sol(s)), solver.t_old, t,
                       xtol=_ROOT_TOL, rtol=_ROOT_TOL)
        g = g_new
        j = int(np.searchsorted(t_eval, t, side="right"))
        if j > i:
            if sol is None:
                sol = solver.dense_output()
            Y = sol(t_eval[i:j])
            if i < last:
                emit(Y[:, : min(j, last) - i])
            i = j
        if crossed:
            return t, sol(t), True
        if solver.status == "finished":
            return b, Y[:, -1].copy(), False


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

    solver = _solver(sys.linear_part, ends.max(), N)

    def solve(fun, a, b, y, event, **tol):
        t_eval = np.append(union[emitted : np.searchsorted(union, b)], b)
        return _stream(fun, a, b, y, event, t_eval, emit, **solver, **tol)

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
    lam = float(np.max(np.linalg.eigvals(A).real))
    ts = np.logspace(-3, math.log10(t_cert), 60)
    M = 1.0
    for t in ts:
        ratio = np.linalg.norm(expm(A * t), ord=2) / math.exp(lam * t)
        M = max(M, float(ratio))
    return M, lam
