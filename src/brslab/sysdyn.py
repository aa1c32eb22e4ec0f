"""Control-system abstraction, input signals, and trajectory integration.

Systems are x' = A x + f(x, u) with the linear part optional.  Inputs are
piecewise-constant signals (the dense approximating class for essentially
bounded inputs); integration restarts at every input breakpoint so the
right-hand side stays smooth within each solver step.  The solver is RK45,
or BDF with the linear part as its Newton matrix when that part is stiff
over the span integrated.  Blow-up is detected by a norm-threshold event
and reported as data, never as a crash.  A family of trajectories of one
system is integrated as a single stacked ODE and read only on the time
grid its consumer needs; one rule ends each of its rows: a row freezes at
the end of its grid or at its blow-up, whichever comes first, and the rest
go on.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.base import ConstantDenseOutput
from scipy.linalg import expm

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


def _as_vector(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))


class InputSignal:
    """Piecewise-constant vector-valued signal on [0, inf).

    Segment i holds `segment_values[i]` on [b_{i-1}, b_i) (with b_{-1} = 0)
    and `tail_value` beyond the last breakpoint.  The value AT a breakpoint
    belongs to the new segment.
    """

    def __init__(self, breakpoints: Sequence[float], segment_values, tail_value):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self._bps = self.breakpoints.tolist()  # eval's bisect beats searchsorted
        self.tail_value = _as_vector(tail_value)
        if self.breakpoints.size:
            vals = np.atleast_2d(np.asarray(segment_values, dtype=float))
            if vals.shape[0] != self.breakpoints.size:
                raise ValueError("need one segment value per breakpoint")
            if np.any(np.diff(self.breakpoints) <= 0) or self.breakpoints[0] <= 0:
                raise ValueError("breakpoints must be positive and strictly increasing")
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

    `rhs` maps an (n,) state and (m,) input to (n,), and is row-wise: (N, n)
    states with (N, m) inputs give the (N, n) derivatives of the N rows.
    `==` and `hash` go by identity.
    """

    state_dim: int
    input_dim: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    linear_part: np.ndarray | None = None
    name: str = ""
    lipschitz_hint: Callable[[float], float] | None = None

    def full_rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        dx = _as_vector(self.rhs(x, u))
        if self.linear_part is not None:
            dx = dx + self.linear_part @ x
        return dx


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    blowup_threshold: float = 1e9

    def __post_init__(self):
        # a NaN tolerance never accepts a step and a NaN threshold never fires
        for name in ("rel_tol", "abs_tol", "blowup_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")


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

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def state_at(self, t) -> np.ndarray:
        """State at time t, shape (n,), or at an array of times, shape (T, n);
        times outside [0, times[-1]] read the nearer end."""
        return self.dense(np.clip(t, 0.0, self.times[-1])).T

    def to_csv(self, path) -> None:
        header = "t," + ",".join(f"x{i}" for i in range(self.states.shape[1]))
        data = np.column_stack([self.times, self.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def _segment_edges(breakpoints, tau: float) -> np.ndarray:
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    inner = bp[(bp > 0) & (bp < tau)]
    return np.concatenate([[0.0], inner, [tau]])


# rho(A) * span from which BDF with Newton matrix A beats RK45, whose step
# stability caps at about 3.3 / rho(A): the measured crossover lies between
# 1,000 and 4,000 (CHANGES.md).
_STIFF_RHO_SPAN = 2000.0


def _solver(A, span: float, rows: int) -> dict:
    """solve_ivp's method options for `rows` stacked states of a system with
    linear part A (None if it has none) integrated over `span`.

    RK45 unless rho(A) * span reaches _STIFF_RHO_SPAN; then BDF with the
    constant Newton matrix A, kron(I_rows, A) for a stack.  The rest of the
    right-hand side is taken as non-stiff, so its derivative is left out.
    """
    if A is None or np.abs(np.linalg.eigvals(A)).max() * span < _STIFF_RHO_SPAN:
        return {"method": "RK45"}
    jac = A if rows == 1 else sparse.kron(sparse.identity(rows), A, format="csc")
    return {"method": "BDF", "jac": jac}


def _run(f_at, y0, edges, cfg: IntegratorConfig, ends, solver: dict, keep, grid=None):
    """Solve the stack y' = f_at(a, b, live)(t, y) of len(ends) rows across
    `edges`, one solve per [a, b] from the previous solve's last state, and
    hand each solution to keep(b, sol).  Returns the state where the run
    ended and each row's blow-up crossing time (inf if it did not cross).
    Rows that start at or above `cfg.blowup_threshold` cross at edges[0].

    Row i is live from a while a < ends[i]; `live` selects those rows and
    f_at must hold the others still.  The blow-up event is the largest live
    row norm crossing `cfg.blowup_threshold`: the crossing row, and any
    other live row at or above the threshold by then, is frozen at its
    state there, as at its end, and the other rows go on from the
    crossing time.  The run ends when no row is live.  Every solve takes
    the method options `solver`, `_solver`'s for the whole span of `edges`.
    The tolerances are divided by sqrt(rows), so every row stays within `cfg`
    although the solver's error norm is an RMS over all components.  With
    `grid` a solve reports the grid times below b not reported yet, then b,
    instead of its own steps and keeps no dense output.
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
    y, a, reported = y0, edges[0], 0
    # the upward event never fires for a row that starts above the threshold
    crossed = scaled_norms(y0) >= 1.0
    stop[crossed] = t_cross[crossed] = a
    for b in edges[1:]:
        while a < b:
            live = stop > a
            if not live.any():
                return y, t_cross
            sel = slice(None) if live.all() else live  # read by blowup_event
            if grid is None:
                out = {"dense_output": True}
            else:
                out = {"t_eval": np.append(grid[reported : np.searchsorted(grid, b)], b)}
            sol = solve_ivp(
                f_at(a, b, sel),
                (a, b),
                y,
                rtol=cfg.rel_tol / scale,
                atol=cfg.abs_tol / scale,
                events=blowup_event,
                **solver,
                **out,
            )
            if sol.status == -1:
                raise StepSizeError(f"integrator failed on [{a}, {b}]: {sol.message}")
            keep(b, sol)
            reported += int(np.searchsorted(sol.t, b))  # a grid time at b is the next solve's
            if sol.status == 1:  # the terminal event ends the last step at the crossing
                y, a = sol.y_events[0][0], float(sol.t_events[0][0])
                r = scaled_norms(y)
                # a row left live above the threshold would never cross it upward
                crossed = live & (r >= min(r[live].max(), 1.0))
                stop[crossed] = t_cross[crossed] = a
            else:
                # a copy: a view would keep the whole solve's output alive
                y, a = sol.y[:, -1].copy(), b
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
    time.  An `x0` or an input whose dimension does not match `sys` is a
    ValueError.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be a finite number > 0, got {tau}")
    cfg = cfg or IntegratorConfig()
    x0 = _as_vector(x0)
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

    def keep(b, sol):
        times.append(sol.t[1:])
        states.append(sol.y[:, 1:].T)
        steps.extend(sol.sol.interpolants)

    solver = _solver(sys.linear_part, tau, 1)
    _, t_cross = _run(f_at, x0, _segment_edges(u.breakpoints, tau), cfg, [tau], solver, keep)
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
        dense=OdeSolution(times, steps, alt_segment=solver["method"] == "BDF"),
    )


# State values one solver call may report; longer stretches of an ensemble's
# grid restart at a grid time, so memory stays bounded as rows and times grow.
_REPORT_VALUES = 1 << 15


def _time_grid(grid, end: float, name: str = "grid") -> np.ndarray:
    """`grid` as a float array; a ValueError naming it unless it is
    non-empty and strictly increasing in [0, end]."""
    g = np.asarray(grid, dtype=float)
    if not (g.ndim == 1 and g.size and 0 <= g[0] and g[-1] <= end and np.all(np.diff(g) > 0)):
        raise ValueError(f"{name} must be non-empty and strictly increasing in [0, {end}]")
    return g


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
    on.  Integration restarts at the union of the rows' breakpoints and grid
    ends.  The solver reports only the union of the grids (`t_eval`, no dense
    output), at most _REPORT_VALUES state values per call, and each row keeps
    only its own times.  Returns the samples, shape (T, N, n) for T the
    longest grid's length (NaN after the end of a shorter one), and each
    row's crossing time, shape (N,) (inf if it did not cross).  `sys.rhs`
    must be row-wise: (K, n) states with (K, m) inputs give (K, n)
    derivatives.
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
    ends = np.empty(N)
    for g, rows in groups:
        ends[rows] = g[-1]
    A = sys.linear_part
    # all rows' input values in one table: row i's start at first[i] and
    # advance by one at each of its breakpoints
    values = np.vstack([u._all_values() for u in inputs])
    first = np.cumsum([0] + [u.breakpoints.size + 1 for u in inputs[:-1]])
    switch_at = np.concatenate([u.breakpoints for u in inputs])
    switch_row = np.repeat(np.arange(N), [u.breakpoints.size for u in inputs])

    def f_at(a, b, live):
        U = values[first + np.bincount(switch_row[switch_at <= a], minlength=N)][live]

        def f(t, y):
            Y = y.reshape(N, n)[live]
            dY = np.asarray(sys.rhs(Y, U))
            if dY.shape != Y.shape:
                raise ValueError(
                    f"rhs of system {sys.name!r} returned shape {dY.shape} for states"
                    f" {Y.shape} and inputs {U.shape}; it must be row-wise"
                )
            if A is not None:
                dY = dY + Y @ A.T
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

    def scatter(k, got, Y):
        """Grid entries at union times k .. k + got - 1 from Y, shape (N, n, got)."""
        for read in reads:
            rows, at, lo = read
            hi = int(np.searchsorted(at, k + got))
            if hi > lo:
                block = Y[np.ix_(rows, np.arange(n), at[lo:hi] - k)]
                samples[lo:hi, rows] = block.transpose(2, 0, 1)
                read[2] = hi

    per_call = max(1, _REPORT_VALUES // (N * n))
    edges = _segment_edges(
        np.concatenate([switch_at, ends, union[per_call::per_call]]), ends.max()
    )
    k = 0  # union times filled so far

    def keep(b, sol):
        nonlocal k
        got = int(np.searchsorted(sol.t, b))  # the union times in the solve, b aside
        if got > 0:
            scatter(k, got, sol.y[:, :got].reshape(N, n, got))
            k += got

    solver = _solver(A, ends.max(), N)
    end, t_cross = _run(f_at, X0.ravel(), edges, cfg, ends, solver, keep, union)
    # the union times at the last end, or after the last row froze, hold the last state
    rest = union.size - k
    scatter(k, rest, np.broadcast_to(end.reshape(N, n, 1), (N, n, rest)))
    return samples, t_cross


def semigroup_growth(A: np.ndarray, t_cert: float = 10.0) -> tuple[float, float]:
    """Estimated pair (M, lambda) for ||exp(A t)|| <= M exp(lambda t).

    lambda is the spectral abscissa; M is the max ratio observed on a
    60-point logarithmic time grid in (0, t_cert], at least 1.  For a normal
    A that is M = 1 and the bound holds; for a non-normal A the ratio can
    peak between grid points or after t_cert, so M is an estimate from
    below, not a certificate.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must have finite entries")
    lam = float(np.max(np.linalg.eigvals(A).real))
    ts = np.logspace(-3, math.log10(t_cert), 60)
    M = 1.0
    for t in ts:
        ratio = np.linalg.norm(expm(A * t), ord=2) / math.exp(lam * t)
        M = max(M, float(ratio))
    return M, lam
