"""Trajectory-dominated input sets: lifting and projection.

An input v is trajectory-dominated for initial state x and growth margin eta
when ||v(t)|| <= eta(||phi(t, x, v)||) along its own trajectory.  Such inputs
are in bijection with unit-ball disturbances d driving the auxiliary closed
loop x' = A x + f(x, d * eta(||x||)); lifting integrates the closed loop and
reads the input off the trajectory, projection divides the input back out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compfun import ScalarFun
from .sysdyn import InputSignal, IntegratorConfig, SystemDef, Trajectory, _time_grid, integrate

__all__ = [
    "GrowthMargin",
    "DisturbanceSignal",
    "FeedbackSignal",
    "DivisionGuardError",
    "closed_loop",
    "lift_disturbance",
    "project_input",
    "disturbance_family",
]

EPS_DIV = 1e-9
TOL_MEMBERSHIP = 1e-6


@dataclass(frozen=True)
class GrowthMargin:
    """K-inf, unit-Lipschitz gauge bounding admissible input norms."""

    eta: ScalarFun

    def __post_init__(self):
        if not {"Kinf", "Lip1"} <= self.eta.tags:
            raise ValueError("growth margin must be tagged Kinf and Lip1")

    def __call__(self, s):
        return self.eta(s)


class DisturbanceSignal(InputSignal):
    """Piecewise-constant signal with every value in the closed unit ball."""

    def __init__(self, breakpoints, segment_values, tail_value):
        super().__init__(breakpoints, segment_values, tail_value)
        norms = np.linalg.norm(self._all_values(), axis=1)
        if np.any(norms > 1 + 1e-9):
            raise ValueError(f"disturbance norm {norms.max()} exceeds the unit ball")


class FeedbackSignal:
    """Input u(t) = d(t) * eta(||x_cl(t)||) read off a dense closed-loop path.

    Continuous within the disturbance's segments, so an open-loop
    integration driven by it reproduces the closed-loop trajectory to
    integrator accuracy (the exact matched input of the bijection).
    """

    def __init__(self, d: InputSignal, margin: GrowthMargin, traj: Trajectory):
        self._d = d
        self._margin = margin
        self._traj = traj
        self.breakpoints = d.breakpoints

    @property
    def dim(self) -> int:
        return self._d.dim

    def eval(self, t: float) -> np.ndarray:
        x = self._traj.state_at(t)  # past the path's end: its last state
        # np.linalg.norm's own formula for a 1-D x, as a float for the margin
        return self._d.eval(t) * float(self._margin(math.sqrt(x.dot(x))))


class DivisionGuardError(ValueError):
    """Input is non-dominated at a time where the margin vanishes."""


def closed_loop(sys: SystemDef, margin: GrowthMargin) -> SystemDef:
    """Auxiliary system driven by d * eta(||x||) in place of u."""
    eta = margin.eta

    def rhs_cl(x, d):
        # np.linalg.norm's own sum of squares, without its dispatch on every call
        return sys.rhs(x, d * eta(np.sqrt((x * x).sum(axis=-1, keepdims=True))))

    return SystemDef(
        state_dim=sys.state_dim,
        input_dim=sys.input_dim,
        rhs=rhs_cl,
        linear_part=sys.linear_part,
        name=f"{sys.name}:eta-loop" if sys.name else "eta-loop",
    )


def lift_disturbance(
    sys: SystemDef,
    margin: GrowthMargin,
    x0,
    d: DisturbanceSignal,
    tau: float,
    cfg: IntegratorConfig | None = None,
):
    """Integrate the closed loop under d and read off the matched input, an
    exact FeedbackSignal backed by the dense closed-loop solution."""
    traj = integrate(closed_loop(sys, margin), x0, d, tau, cfg)
    return FeedbackSignal(d, margin, traj), traj


def project_input(
    sys: SystemDef,
    margin: GrowthMargin,
    x0,
    u,
    tau: float,
    cfg: IntegratorConfig | None,
    grid: np.ndarray,
) -> DisturbanceSignal:
    """Recover the disturbance d(t) = u(t) / eta(||phi(t, x0, u)||).

    d is read at the times of `grid`, which must be non-empty and strictly
    increasing in [0, tau] (else a ValueError); cfg None selects the default
    tolerances.  Where the margin is below EPS_DIV the convention d = 0
    applies, but only for dominated inputs; otherwise a DivisionGuardError
    names the time.
    """
    ts = _time_grid(grid, tau)
    X = integrate(sys, x0, u, tau, cfg).state_at(ts)
    e = np.asarray(margin(np.linalg.norm(X, axis=1)), dtype=float)
    U = np.array([u.eval(t) for t in ts], dtype=float)
    u_norm = np.linalg.norm(U, axis=1)
    vanish = e <= EPS_DIV
    bad = np.flatnonzero(vanish & (u_norm > TOL_MEMBERSHIP))
    if bad.size:
        i = bad[0]
        raise DivisionGuardError(
            f"input not dominated at t={ts[i]}: margin {e[i]} but ||u||={u_norm[i]}"
        )
    d_vals = U / np.where(vanish, 1.0, e)[:, None]
    d_vals[vanish] = 0.0
    # clip roundoff excursions back onto the unit ball
    d_vals /= np.maximum(np.linalg.norm(d_vals, axis=1), 1.0)[:, None]
    return DisturbanceSignal(ts[1:], d_vals[:-1], d_vals[-1])


def disturbance_family(
    input_dim: int, tau: float, n: int, seed: int
) -> list[DisturbanceSignal]:
    """Deterministic family: zero, the signed unit axes, then seeded random
    piecewise-constant signals with values on the unit sphere."""
    if n < 1:
        raise ValueError("need n >= 1")
    family: list[DisturbanceSignal] = [
        DisturbanceSignal.constant(np.zeros(input_dim))
    ]
    for i in range(input_dim):
        for sign in (1.0, -1.0):
            e = np.zeros(input_dim)
            e[i] = sign
            family.append(DisturbanceSignal.constant(e))
    idx = len(family)
    while len(family) < n:
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        n_switch = int(rng.integers(1, 5))
        bps = np.sort(rng.uniform(0.0, tau, n_switch))
        bps = bps[np.concatenate([[True], np.diff(bps) > 0]) & (bps > 0)]
        vals = rng.standard_normal((bps.size + 1, input_dim))
        vals /= np.linalg.norm(vals, axis=1, keepdims=True)
        family.append(DisturbanceSignal(bps, vals[:-1], vals[-1]))
        idx += 1
    return family[:n]
