"""Control-system abstraction, input signals, and trajectory integration.

Systems are x' = A x + f(x, u) with the linear part optional.  Inputs are
piecewise-constant signals (the dense approximating class for essentially
bounded inputs); integration restarts at every input breakpoint so the
right-hand side stays smooth within each solver step.  The solver is RK45,
or BDF with the linear part as its Newton matrix when that part is stiff
over the span integrated.  Blow-up is detected by a norm-threshold event
and reported as data, never as a crash.  One loop, `_run`, steps every
solve, builds each step's interpolant and hands it to its caller: `integrate`
keeps every step, and the ensemble sampler, which integrates a family of
trajectories of one system as a single stacked ODE, reads each step's
interpolant at the grid times inside it as the step is taken, without
holding them to the end.  Every solve goes on from the solver's own state
where the last one stopped, so a one-row ensemble has the bits of
`integrate`'s dense solution.  A sampled row freezes at the end of its grid
or at its blow-up, whichever comes first, and the rest go on.

RK45 and BDF are sysdyn's own ports of scipy's, and so is the brentq that
finds a blow-up crossing, so importing sysdyn loads no part of scipy and no
solve loads scipy.integrate or scipy.optimize; `RkDenseOutput` is the one
reader of an RK45 step, and a `Trajectory` holds its solver's interpolants
and searches them itself.  A path imports what it needs of scipy when it
runs: LAPACK's LU routines from scipy.linalg for a one-row stiff solve and
expm in `semigroup_growth`; a stacked stiff solve applies the inverse of
its one n x n Newton block in numpy's own BLAS and loads no scipy module.
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
    "BDF",
    "BdfDenseOutput",
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


def _norms(x: np.ndarray):
    """The Euclidean norm of a vector x, shape (n,), or of each vector along
    the last axis of a stack: the one reader of every norm that is compared
    with a bound, divided by or written out.  Where the norm's square is
    finite its bits are np.linalg.norm's (a dot product for one vector, a
    sum of squares along the axis for a stack); a square that overflows (a
    norm past about 1.3e154) is read from the vector scaled by its largest
    entry (Blue, ACM TOMS 4, 1978, as LAPACK's dnrm2), so the norm is finite
    where it is, and nothing warns.  The first pass raises at an overflow,
    so a call with none pays no search for it."""
    try:
        with np.errstate(over="raise"):
            return np.sqrt(x.dot(x)) if x.ndim == 1 else np.sqrt((x * x).sum(axis=-1))
    except FloatingPointError:
        pass
    stack = np.atleast_2d(x)
    with np.errstate(over="ignore"):
        norms = np.sqrt((stack * stack).sum(axis=-1))
        over = np.isinf(norms) & np.isfinite(stack).all(axis=-1)
        big = np.abs(stack[over]).max(axis=-1, keepdims=True)
        z = stack[over] / big
        norms[over] = big[:, 0] * np.sqrt((z * z).sum(axis=-1))
    return norms if x.ndim > 1 else norms[0]


class InputSignal:
    """Piecewise-constant vector-valued signal on [0, inf), one table.

    `breakpoints` b_0 < ... < b_{k-1} are a strictly increasing 1-D array of
    numbers > 0 and `values` a finite (k + 1, m) array with m >= 1: row i
    holds on [b_{i-1}, b_i), with b_{-1} = 0 and b_k = inf.  The value AT a
    breakpoint belongs to the new segment.  Any other shape is a ValueError
    that names `breakpoints` or `values`.
    """

    def __init__(self, breakpoints: Sequence[float], values):
        self.breakpoints = _numbers("breakpoints", breakpoints, gt=0)
        if self.breakpoints.ndim != 1:
            raise ValueError(f"breakpoints must be a 1-D array, got shape {self.breakpoints.shape}")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self._bps = self.breakpoints.tolist()  # eval's bisect beats searchsorted
        self.values = _numbers("values", values)
        rows = self.breakpoints.size + 1
        if self.values.ndim != 2 or self.values.shape[0] != rows or self.values.shape[1] < 1:
            raise ValueError(f"values must have shape ({rows}, m) with m >= 1, one row per"
                             f" segment, got {self.values.shape}")

    @classmethod
    def constant(cls, value) -> "InputSignal":
        return cls([], [np.atleast_1d(value)])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def eval(self, t: float) -> np.ndarray:
        if not t >= 0:  # negative, or NaN
            raise ValueError(f"signals are defined for t >= 0 only, got {t!r}")
        return self.values[bisect.bisect_right(self._bps, t)]

    def sup_norm(self) -> float:
        """Essential supremum of the value norm over [0, inf)."""
        return float(_norms(self.values).max())


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
    I, sec. II.6), which `state_at` reads, a step's end from the step that
    ends there on every solver.  `==` and `hash` go by identity."""

    times: np.ndarray
    states: np.ndarray
    t_max_estimate: float
    blew_up: bool
    steps: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_ts", self.times.tolist())  # the float path's search

    def norms(self) -> np.ndarray:
        return _norms(self.states)

    def state_at(self, t) -> np.ndarray:
        """State at time t, shape (n,), or at a 1-D array of times, shape
        (T, n), read from the step that holds t, a step's end times[i] from
        steps[i - 1], as the ensemble sampler reads it, so a one-row ensemble
        has these bits at every grid time; times outside [0, times[-1]] read
        the nearer end, and a time that is not a finite number is a ValueError
        that names t.  A number (what a FeedbackSignal reads on every
        right-hand-side call) is one interpolant call, an array sorted and
        read in runs of one step, one call each."""
        if not isinstance(t, float):
            if np.ndim(t) == 0:
                return self.state_at(float(_numbers("t", t)))
            t = _numbers("t", t)
            if t.ndim != 1:
                raise ValueError(f"t must be a number or a 1-D array, got shape {t.shape}")
            order = np.argsort(t)
            t = np.clip(t[order], 0.0, self.times[-1])
            idx = np.clip(np.searchsorted(self.times, t) - 1, 0, len(self.steps) - 1)
            cut = (np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()  # where each run starts
            out = np.empty((self.states.shape[1], t.size))
            if t.size:  # one interpolant call per run of one step
                out[:, order] = np.hstack([self.steps[idx[lo]](t[lo:hi])
                                           for lo, hi in zip([0, *cut], [*cut, t.size])])
            return out.T
        ts, steps = self._ts, self.steps
        if not 0.0 <= t <= ts[-1]:  # outside [0, end], or NaN
            if not math.isfinite(t):
                _number("t", t)
            t = 0.0 if t < 0.0 else ts[-1]
        return steps[min(max(bisect.bisect_left(ts, t) - 1, 0), len(steps) - 1)](t)


class _Stepper:
    """The stepping rule scipy's OdeSolver gives its solvers, for a forward
    solve: step() takes one step by the subclass's _step_impl(), which
    returns None or the message of a failed step; dense_output() is the
    interpolant over the last one, by the subclass's _interpolant()."""

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

    def dense_output(self):
        """The interpolant over the last step."""
        if self.t_old is None:
            raise RuntimeError("Dense output is available after a successful step was made.")
        if self.t == self.t_old:  # the zero-length span
            return _constant(self.y)
        return self._interpolant()


_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _start(t0, y0, t_bound, rtol):
    """y0 as a float vector and rtol as scipy's solvers check them, for a
    forward solve."""
    y0 = np.asarray(y0).astype(float, copy=False)
    if y0.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if t_bound < t0:
        raise ValueError("sysdyn's solvers step forward only: t_bound < t0")
    eps100 = 100 * np.finfo(float).eps
    if np.any(rtol < eps100):
        warnings.warn("At least one element of `rtol` is too small. Setting"
                      f" `rtol = np.maximum(rtol, {eps100})`.", stacklevel=3)
        rtol = np.maximum(rtol, eps100)
    return y0, rtol


def _initial_step(fun, t0, y0, t_bound, f0, order, rtol, atol) -> float:
    """scipy's select_initial_step (Hairer, Norsett & Wanner, sec. II.4)
    for an error estimate of order `order`."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
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
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval_length)


class RK45(_Stepper):
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
        y0, rtol = _start(t0, y0, t_bound, rtol)
        self.fun, self.t, self.y, self.t_bound = fun, t0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.t_old = self.y_old = None
        self.status = "running"
        self.f = fun(t0, y0)
        self.h_abs = _initial_step(fun, t0, y0, t_bound, self.f, 4, rtol, atol)
        self.K = np.empty((7, y0.size))

    def _step_impl(self):
        t, y, fun, K = self.t, self.y, self.fun, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                return _TOO_SMALL_STEP
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

    def _interpolant(self):
        return RkDenseOutput(self.t_old, self.t, self.y_old, self.K.T.dot(self.P))


def _rms(x) -> float:
    """scipy's solver error norm, np.linalg.norm(x) / sqrt(x.size), by the
    same arithmetic without its dispatch."""
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
        if isinstance(t, float) or np.ndim(t) == 0:
            # one time in Python floats: the powers x, x^2, ... by repeated
            # multiplication, as np.cumprod builds them in scipy's 0-d read
            x = (float(t) - self.t_old) / self.h
            p = [x]
            for _ in range(self.order):
                p.append(p[-1] * x)
            y = self.h * np.dot(self.Q, p)
            y += self.y_old
            return y
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        x = (t - self.t_old) / self.h
        p = np.cumprod(np.tile(x, (self.order + 1, 1)), axis=0)
        y = self.h * np.dot(self.Q, p)
        y += self.y_old[:, None]
        return y


def _compute_R(order, factor):
    """scipy's compute_R: the matrix that rescales the backward differences
    of a BDF step of order `order` when the step size changes by factor."""
    I = np.arange(1, order + 1)[:, None]
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.cumprod(M, axis=0)


# the constant right factor of every _change_D, by order
_R_UNIT = [None] + [_compute_R(order, 1) for order in range(1, 6)]


def _change_D(D, order, factor):
    """scipy's change_D: rescale the differences D in place for a step size
    changed by factor."""
    RU = _compute_R(order, factor).dot(_R_UNIT[order])
    D[:order + 1] = np.dot(RU.T, D[:order + 1])


def _lapack_lu():
    """(factor, solve): scipy.linalg's lu_factor(A, overwrite_a=True) and
    lu_solve(LU, b, overwrite_b=True) as BDF calls them, by LAPACK's dgetrf
    and dgetrs called directly, with the checks those make: an input that is
    not finite is a ValueError, an illegal argument too, and a zero pivot a
    LinAlgWarning."""
    from scipy.linalg import LinAlgWarning
    from scipy.linalg.lapack import dgetrf, dgetrs

    def factor(A):
        if not np.isfinite(A).all():
            raise ValueError("array must not contain infs or NaNs")
        lu, piv, info = dgetrf(A, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
        if info > 0:
            warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                          LinAlgWarning, stacklevel=3)
        return lu, piv

    def solve(LU, b):
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = dgetrs(LU[0], LU[1], b, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal gesv|posv")
        return x

    return factor, solve


def _block_solve(inverse, b):
    """The solution of the block-diagonal system kron(I_rows, I - c A) x = b,
    b flat, one row of (rows, n) per block, from the inverse of I - c A, in
    numpy's BLAS: scipy bundles its own, whose thread pool, once woken,
    slows numpy's products (ROADMAP)."""
    return np.dot(b.reshape(-1, inverse.shape[0]), inverse.T).ravel()


class BDF(_Stepper):
    """Implicit variable-order stepper, the backward differentiation formulas
    of orders 1 to 5 in the quasi-constant step form of Byrne & Hindmarsh
    (ACM TOMS 1, 1975) with the NDF modification and error estimate of
    Shampine & Reichelt (SIAM J. Sci. Comput. 18, 1997): scipy 1.17's
    scipy.integrate.BDF, ported expression for expression for a forward
    solve with the constant Newton matrix `jac`, so it takes the same steps
    to the bit.

    `jac` is the n x n float array A.  For one state of n components the
    iteration matrices I - c A are factored by LAPACK's dgetrf and solved by
    dgetrs, as in scipy; for a stack of states, y0 of rows * n components,
    the matrix is the block diagonal kron(I_rows, I - c A), and its one
    block is inverted once per factorization and applied to the (rows, n)
    right-hand side.  `t`, `y`, `t_old`, `h_abs`, `order` and `status`
    read as scipy's, and step() and dense_output() work as RK45's.  The
    stepper holds no reference to itself, so a finished one is freed at
    once, not by the cyclic collector.
    """

    MAX_ORDER, NEWTON_MAXITER = 5, 4
    MIN_FACTOR, MAX_FACTOR = 0.2, 10
    KAPPA = np.array([0, -0.1850, -1/9, -0.0823, -0.0415, 0])
    GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, MAX_ORDER + 1))))
    ALPHA = (1 - KAPPA) * GAMMA
    ERROR_CONST = KAPPA * GAMMA + 1 / np.arange(1, MAX_ORDER + 2)

    def __init__(self, fun, t0, y0, t_bound, rtol=1e-3, atol=1e-6, *, jac):
        # scipy's Newton tolerance reads rtol before the floor raises it
        self.newton_tol = max(10 * np.finfo(float).eps / rtol, min(0.03, rtol ** 0.5))
        y0, rtol = _start(t0, y0, t_bound, rtol)
        self.fun, self.t, self.y, self.t_bound = fun, t0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.t_old = None
        self.status = "running"
        f = fun(t0, y0)
        self.h_abs = _initial_step(fun, t0, y0, t_bound, f, 1, rtol, atol)
        n = jac.shape[0]
        if n == y0.size:
            self.lu, self.solve_lu = _lapack_lu()
        else:
            self.lu, self.solve_lu = np.linalg.inv, _block_solve
        self.I = np.identity(n)
        self.J = jac
        D = np.empty((self.MAX_ORDER + 3, y0.size))
        D[0] = y0
        D[1] = f * self.h_abs
        self.D = D
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def _newton(self, t_new, y_predict, c, psi, LU, scale):
        """scipy's solve_bdf_system: the simplified Newton iteration for the
        step's implicit equation; returns (converged, iterations, y, d)."""
        d = 0
        y = y_predict.copy()
        dy_norm_old = None
        converged = False
        for k in range(self.NEWTON_MAXITER):
            f = self.fun(t_new, y)
            if not np.isfinite(f).all():
                break
            dy = self.solve_lu(LU, c * f - psi - d)
            dy_norm = _rms(dy / scale)
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if (rate is not None and (rate >= 1 or rate ** (self.NEWTON_MAXITER - k)
                                      / (1 - rate) * dy_norm > self.newton_tol)):
                break
            y += dy
            d += dy
            if dy_norm == 0 or rate is not None and rate / (1 - rate) * dy_norm < self.newton_tol:
                converged = True
                break
            dy_norm_old = dy_norm
        return converged, k + 1, y, d

    def _step_impl(self):
        t, D = self.t, self.D
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            _change_D(D, self.order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs
        atol, rtol, order = self.atol, self.rtol, self.order
        alpha, gamma, error_const = self.ALPHA, self.GAMMA, self.ERROR_CONST
        LU = self.LU
        while True:
            if h_abs < min_step:
                return _TOO_SMALL_STEP
            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
                _change_D(D, order, np.abs(t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None
            h = t_new - t
            h_abs = np.abs(h)
            y_predict = D[:order + 1].sum(axis=0)
            scale = atol + rtol * np.abs(y_predict)
            psi = np.dot(D[1: order + 1].T, gamma[1: order + 1]) / alpha[order]
            c = h / alpha[order]
            if LU is None:
                LU = self.lu(self.I - c * self.J)
            converged, n_iter, y_new, d = self._newton(t_new, y_predict, c, psi, LU, scale)
            if not converged:  # the Newton matrix is constant: halve the step
                factor = 0.5
                h_abs *= factor
                _change_D(D, order, factor)
                self.n_equal_steps = 0
                LU = None
                continue
            safety = 0.9 * (2 * self.NEWTON_MAXITER + 1) / (2 * self.NEWTON_MAXITER + n_iter)
            scale = atol + rtol * np.abs(y_new)
            error = error_const[order] * d
            error_norm = _rms(error / scale)
            if not error_norm > 1:  # a NaN norm accepts the step, as in scipy
                break
            factor = max(self.MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            _change_D(D, order, factor)
            self.n_equal_steps = 0  # the factorization stays: Newton converged
        self.n_equal_steps += 1
        self.t, self.y, self.h_abs, self.LU = t_new, y_new, h_abs, LU
        # D^{j + 1} y_n = D^j y_n - D^j y_{n - 1}, with d = D^{k + 1} y_n
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]
        if self.n_equal_steps < order + 1:
            return None
        if order > 1:
            error_m = error_const[order - 1] * D[order]
            error_m_norm = _rms(error_m / scale)
        else:
            error_m_norm = np.inf
        if order < self.MAX_ORDER:
            error_p = error_const[order + 1] * D[order + 2]
            error_p_norm = _rms(error_p / scale)
        else:
            error_p_norm = np.inf
        error_norms = np.array([error_m_norm, error_norm, error_p_norm])
        with np.errstate(divide="ignore"):
            factors = error_norms ** (-1 / np.arange(order, order + 3))
        order += np.argmax(factors) - 1
        self.order = order
        factor = min(self.MAX_FACTOR, safety * np.max(factors))
        self.h_abs *= factor
        _change_D(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None
        return None

    def _interpolant(self):
        return BdfDenseOutput(self.t_old, self.t, self.h_abs, self.order,
                              self.D[:self.order + 1].copy())


class BdfDenseOutput:
    """scipy's BdfDenseOutput: the polynomial over one BDF step from t_old to
    t, held as the step's backward differences D, read at a time, shape
    (n,), or at an array of times, shape (n, T).

    Every read is one matrix product of D with the powers of the times,
    read as scipy's array read: BLAS takes a product with one column as a
    matrix-vector one, whose sums round otherwise, so a single time, a
    float or an array of one, is read as two copies of it.  A time has then
    the same bits however many are read with it, for a state of two or more
    components; with one, numpy's vector products still round by the number
    of times read."""

    def __init__(self, t_old, t, h, order, D):
        self.t_old, self.t, self.h = t_old, t, h
        self.order = order
        self.D = D

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        if ts.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        if ts.size == 1:
            y = self(np.repeat(ts.reshape(1), 2))[:, 0].copy()
            return y if ts.ndim == 0 else y[:, None]
        k = np.arange(self.order)  # scipy's t_shift and denom, formed at a read
        x = (ts - (self.t - self.h * k)[:, None]) / (self.h * (1 + k))[:, None]
        p = np.cumprod(x, axis=0)
        y = np.dot(self.D[1:].T, p)
        y += self.D[0, :, None]
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


def _solver(A, span: float) -> dict:
    """The solver class and its options for one state or a stack of states
    of a system with linear part A (None if it has none) integrated over
    `span`.

    RK45 unless rho(A) * span reaches _STIFF_RHO_SPAN; then BDF with the
    constant Newton matrix A for one row or a stack alike: every block of a
    stack's Newton matrix is the same I - c A, so BDF solves with that one
    block.  The rest of the right-hand side is taken as non-stiff, so its
    derivative is left out.
    """
    if A is None or np.abs(np.linalg.eigvals(A)).max() * span < _STIFF_RHO_SPAN:
        return {"method": RK45}
    return {"method": BDF, "jac": A}


def _first_call(fun, f0):
    """fun, but its first call returns f0: the solver's constructor reads
    the slope at the solve's start, which `_run` has just evaluated there."""
    pending = [f0]
    return lambda t, y: pending.pop() if pending else fun(t, y)


_ROOT_TOL = 4.0 * np.finfo(float).eps  # solve_ivp's tolerance on an event's root


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [xa, xb], across which f changes sign, to within
    xtol + rtol |root|: Brent's method (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4), scipy 1.17's brentq, whose C loop
    this ports expression for expression, so it returns the same root to the
    bit.  A NaN value of f, or f with one sign at both ends, is a
    ValueError, and no convergence in maxiter steps a RuntimeError, as in
    scipy."""

    def fx(x):
        y = float(f(x))
        if y != y:
            raise ValueError(f"The function value at x={x:.6g} is NaN; solver cannot converge.")
        return y

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}.")


def _far_below(y, screen: float) -> bool:
    """Every entry of y is below `screen`, threshold / (2 sqrt(n)) for rows
    of n entries, so no row's norm, at most sqrt(n) max|y|, reaches half
    the threshold: `_run`'s step event reads no norm then."""
    return np.abs(y).max() < screen


def _run(f_at, y0, edges, cfg: IntegratorConfig, ends, on_step, A):
    """Solve the stack y' = f_at(a, b, live)(t, y) of len(ends) rows across
    `edges`, one solve per [a, b] from the solver's own state where the
    previous solve stopped, by the solver `_solver` picks for linear part A
    (None if the system has none) over the whole run, calling
    on_step(t, y, sol) after each step, as solve_ivp's loop reads its outputs
    there: t and y are the step's end and the state there, sol the step's
    interpolant, built once here (at a crossing, the one its root search
    read).  on_step only reads them.  Returns the state where the run ended
    and each row's blow-up crossing time (inf if it did not cross); rows that
    start at or above the threshold cross at edges[0].

    Row i is live from a while a < ends[i]; `live` selects those rows and
    f_at must hold the others still.  The blow-up event is the largest live
    row norm crossing the threshold upward across a step: its root on the
    step's interpolant ends the step and the solve (solve_ivp's terminal
    event).  Every row norm here, at the start, in the event and at a
    crossing, is `_norms` of the row divided by the threshold, so a row far
    past it reads finite and nothing warns.  A step's event forms no norm
    while sqrt(n) max|y| stays below half the threshold, which no row's
    norm can then reach, even rounded: it reads -1 there, below 0 as the
    exact event would be, so no crossing is missed or added; the crossing's
    root search and its rule read the exact event.  The crossing row, and
    any other live row at or above the threshold by then, is frozen at its state
    there, as at its end, and the other rows go on from the crossing time.
    The run ends when no row is live.  A right-hand side not finite where a
    solve starts is a StepSizeError, and so is one whose error norm at the
    solve's tolerances overflows, from which the solver would take a first
    step of 0 and crawl; the value checked there is the solver's first
    evaluation.  The tolerances are divided by sqrt(rows), so
    every row stays within `cfg` although the solver's error norm is an RMS
    over all components.
    """
    threshold = cfg.blowup_threshold
    stop = np.array(ends, dtype=float)  # a crossing row stops at its crossing time
    rows = stop.size
    t_cross = np.full(rows, math.inf)

    def blowup_event(y):
        return _norms(y.reshape(rows, -1) / threshold)[sel].max() - 1.0

    screen = threshold / (2.0 * math.sqrt(y0.size // rows))

    def step_event(y):
        return -1.0 if _far_below(y, screen) else blowup_event(y)

    tol = {"rtol": cfg.rel_tol / math.sqrt(rows), "atol": cfg.abs_tol / math.sqrt(rows)}
    options = _solver(A, edges[-1])
    method = options.pop("method")
    y, a = y0, edges[0]
    # the upward event never fires for a row that starts above the threshold
    crossed = _norms(y0.reshape(rows, -1) / threshold) >= 1.0
    stop[crossed] = t_cross[crossed] = a
    for b in edges[1:]:
        while a < b:
            live = stop > a
            if not live.any():
                return y, t_cross
            sel = slice(None) if live.all() else live  # read by blowup_event
            fun = f_at(a, b, sel)
            a, b = float(a), float(b)
            # the first-step selection loops without end on a NaN slope
            f0 = fun(a, y)
            if not np.isfinite(f0).all():
                raise StepSizeError(f"integrator failed on [{a}, {b}]:"
                                    " the right-hand side is not finite at its start")
            # the first step is 0 where the slope's error norm, the solver's
            # _rms(f0 / scale), overflows: past 2**512 in an entry or in all
            scale = tol["atol"] + np.abs(y) * tol["rtol"]
            if not ((np.abs(f0) * 2.0 ** -512 <= scale).all()
                    and _norms(f0 / scale) < 2.0 ** 512):
                raise StepSizeError(f"integrator failed on [{a}, {b}]: the right-hand"
                                    " side's error norm overflows at its start")
            solver = method(_first_call(fun, f0), a, y, b, **tol, **options)
            g, event = step_event(y), False
            while not event and solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    raise StepSizeError(f"integrator failed on [{a}, {b}]: {message}")
                t, y, sol = solver.t, solver.y, None
                g_old, g = g, step_event(y)
                event = g_old <= 0.0 <= g
                if event:
                    sol = solver.dense_output()
                    t = _brentq(lambda s: blowup_event(sol(s)), solver.t_old, t,
                                _ROOT_TOL, _ROOT_TOL)
                    y = sol(t)
                # as solve_ivp keeps its steps: not a zero-length last one
                # (a crossing at the start of a step that is not the first)
                if t != solver.t_old or t == a:
                    on_step(t, y, solver.dense_output() if sol is None else sol)
            del solver  # its (7, rows n) stages go before the next solve's are built
            a = t
            if event:
                r = _norms(y.reshape(rows, -1) / threshold)
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

    def keep(t, y, sol):
        times.append(t)
        states.append(y)
        steps.append(sol)

    _, t_cross = _run(f_at, x0, _segment_edges(u.breakpoints, tau), cfg, [tau], keep,
                      sys.linear_part)
    t_max = float(t_cross[0])
    if not steps:  # a run that ends where it starts holds x0
        steps.append(_constant(x0))
    return Trajectory(np.array(times), np.vstack(states), t_max, t_max < math.inf, tuple(steps))


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
    grid ends, from the solver's own state there, as `integrate` does.  Each
    step's interpolant is read at the union grid times up to and at its end
    (`_run`'s hook); the sampler holds those states until one more step
    would take them past _HELD_VALUES values, then scatters them into the
    samples, each group's times and rows in one copy, so nothing but the
    samples grows with the grid.  Returns the samples, shape
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
    values = np.vstack([u.values for u in inputs])
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

    def sample_step(t, y, sol):
        """Hold the step's states at the union times up to and at its end."""
        nonlocal emitted
        ts = union[emitted : np.searchsorted(union, t, "right")]
        if ts.size:
            if (emitted - k + ts.size) * N * n > _HELD_VALUES:
                flush()
            held.append(sol(ts))
            emitted += ts.size

    edges = _segment_edges(np.concatenate([switch_at, ends]), ends.max())
    end, t_cross = _run(f_at, X0.ravel(), edges, cfg, ends, sample_step, sys.linear_part)
    flush()
    # the union times after the last row froze hold its state there
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
    # scipy.integrate: solve_ivp, which sysdyn no longer calls (`_run`
    # steps every solve) but bench/tracer.py wraps to count solver work; it
    # goes when the tracer counts the steps of `_run` instead (ROADMAP
    # item 6).
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
