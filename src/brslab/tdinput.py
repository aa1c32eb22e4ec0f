"""Trajectory-dominated input sets: lifting and projection.

An input v is trajectory-dominated for initial state x and growth margin eta
when ||v(t)|| <= eta(||phi(t, x, v)||) along its own trajectory.  Such inputs
are in bijection with unit-ball disturbances d driving the auxiliary closed
loop x' = A x + f(x, d * eta(||x||)); lifting integrates the closed loop and
reads the input off the trajectory, projection divides the input back out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compfun import ScalarFun, chi_from_eta
from .sysdyn import (InputSignal, IntegratorConfig, SystemDef, Trajectory, _norms, _number,
                     _numbers, _time_grid, integrate)

__all__ = [
    "GrowthMargin",
    "DisturbanceSignal",
    "FeedbackSignal",
    "DivisionGuardError",
    "closed_loop",
    "lift_disturbance",
    "project_input",
    "disturbance_family",
    "seeded_rng",
]

EPS_DIV = 1e-9
TOL_MEMBERSHIP = 1e-6
# Each seeded draw has the SeedSequence [seed, *SEED_TAGS[purpose], *index].
# SeedSequence ignores trailing zeros, so the streams are not disjoint: the
# untagged reach draw or family member i is also the tagged draw of tag i
# with index 0 or none (rfc_states 0 is reach draw 7; ROADMAP item 11).
SEED_TAGS = {
    "reach_samples": (),
    "disturbances": (),
    "rfc_states": (7,),
    "open_probe_pairs": (11,),
    "open_probe_inputs": (13,),
    "tdi_probe_pairs": (17,),
    "growth_pairs": (23,),
}


def seeded_rng(seed: int, purpose: str, *index: int) -> np.random.Generator:
    """Generator on the SeedSequence [seed, *SEED_TAGS[purpose], *index]; every
    draw reads its seed here."""
    seed = _number("seed", seed, int, ge=0)
    return np.random.default_rng(np.random.SeedSequence([seed, *SEED_TAGS[purpose], *index]))


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A uniformly distributed unit vector of R^dim."""
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_steps(rng: np.random.Generator, dim: int, tau: float, n_switch: int):
    """(times, vectors) of a random step signal: the sorted distinct positive
    values of n_switch uniform draws in [0, tau), and one unit vector of R^dim
    per segment, one more than the times."""
    times = np.unique(rng.uniform(0.0, tau, n_switch))
    times = times[times > 0]
    vals = rng.standard_normal((times.size + 1, dim))
    return times, vals / np.linalg.norm(vals, axis=1, keepdims=True)


@dataclass(frozen=True)
class GrowthMargin:
    """K-inf, unit-Lipschitz gauge bounding admissible input norms, with
    the premise gauge chi = eta^{-1}(2 s) of the growth check derived once,
    when the margin is built.  `==` and `hash` go by eta."""

    eta: ScalarFun
    chi: ScalarFun = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not {"Kinf", "Lip1"} <= self.eta.tags:
            raise ValueError("growth margin must be tagged Kinf and Lip1")
        object.__setattr__(self, "chi", chi_from_eta(self.eta))

    def __call__(self, s):
        return self.eta(s)


class DisturbanceSignal(InputSignal):
    """Piecewise-constant signal with every value in the closed unit ball."""

    def __init__(self, breakpoints, values):
        super().__init__(breakpoints, values)
        norms = _norms(self.values)
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
        # np.linalg.norm's own sum of squares, without its dispatch on every
        # call; one state reads the margin on its float path
        if x.ndim == 1:
            return sys.rhs(x, d * eta(math.sqrt((x * x).sum())))
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
    tau = _number("tau", tau, gt=0)
    ts = _time_grid(_numbers("grid", grid), tau)
    X = integrate(sys, x0, u, tau, cfg).state_at(ts)
    e = np.asarray(margin(_norms(X)), dtype=float)
    U = np.array([u.eval(t) for t in ts], dtype=float)
    u_norm = _norms(U)
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
    d_vals /= np.maximum(_norms(d_vals), 1.0)[:, None]
    return DisturbanceSignal(ts[1:], d_vals)


def disturbance_family(
    input_dim: int, tau: float, n: int, seed: int
) -> list[DisturbanceSignal]:
    """Deterministic family: zero, the signed unit axes, then seeded random
    piecewise-constant signals with values on the unit sphere.  The seed is
    read even when no random member is drawn."""
    input_dim = _number("input_dim", input_dim, int, ge=1)
    tau, n = _number("tau", tau, gt=0), _number("n", n, int, ge=1)
    seed = _number("seed", seed, int, ge=0)
    family: list[DisturbanceSignal] = [
        DisturbanceSignal.constant(np.zeros(input_dim))
    ]
    for i in range(input_dim):
        for sign in (1.0, -1.0):
            e = np.zeros(input_dim)
            e[i] = sign
            family.append(DisturbanceSignal.constant(e))
    while len(family) < n:
        rng = seeded_rng(seed, "disturbances", len(family))
        bps, vals = _random_steps(rng, input_dim, tau, int(rng.integers(1, 5)))
        family.append(DisturbanceSignal(bps, vals))
    return family[:n]
