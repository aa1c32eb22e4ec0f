"""Empirical reachability-bound fits and Lipschitz-flow probes.

Bounded reachability is checked by fitting dominating additive envelopes
chi1(t) + chi2(||x||) + chi3(||u||) + c over seeded trajectory samples.
Robust forward completeness over trajectory-dominated inputs is verified
against kappa^{-1}(t + ||x|| + c).  Flow regularity is probed by trajectory
pairs: open loop with a shared input, or closed loop with a shared
disturbance (the matched-input pairing of the bijection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compfun import ScalarFun, inverse
from .sysdyn import (InputSignal, IntegratorConfig, SystemDef, _norms, _number, _numbers,
                     _sample_ensemble)
from .tdinput import (GrowthMargin, _random_steps, _unit, closed_loop, disturbance_family,
                      seeded_rng)

__all__ = [
    "ReachSamples",
    "ReachBoundFit",
    "RFCBoundReport",
    "LipschitzProbeReport",
    "NotBrsError",
    "NotRfcTdiError",
    "sample_reach",
    "fit_additive_bound",
    "verify_rfc_tdi",
    "find_rfc_offset",
    "probe_lipschitz_openloop",
    "probe_lipschitz_tdi",
    "gronwall_bound",
]

RATIO_CAP = 1e6
# Offsets `find_rfc_offset` tries, smallest first.
RFC_OFFSETS = (0.0, 1.0, 2.0, 4.0, 8.0)
# Tolerances of the reach samples and the RFC check, of the open-loop probe,
# and the closed-loop probe's default.
_SAMPLE_CFG = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
_OPEN_PROBE_CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
_TDI_PROBE_CFG = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
NEAR_ZERO_LADDER = tuple(10.0 ** (-k) for k in range(3, 13))


class NotBrsError(RuntimeError):
    """Samples contain blow-ups: the system is not BRS on the sampled box."""


class NotRfcTdiError(RuntimeError):
    """The RFC bound or a closed-loop trajectory fails: the system is not
    RFC over trajectory-dominated inputs on this ball."""


@dataclass
class ReachSamples:
    t: np.ndarray
    norm_x: np.ndarray
    norm_u: np.ndarray
    norm_phi: np.ndarray


@dataclass
class ReachBoundFit:
    chi1: ScalarFun
    chi2: ScalarFun
    chi3: ScalarFun
    c: float
    residual: float

    def bound(self, t, norm_x, norm_u):
        return self.chi1(t) + self.chi2(norm_x) + self.chi3(norm_u) + self.c


@dataclass
class RFCBoundReport:
    c: float
    max_violation: float
    holds: bool
    worst: tuple
    blowup_time: float | None = None  # the earliest crossing of the blow-up threshold


@dataclass
class LipschitzProbeReport:
    tau: float
    C: float
    pair_count: int
    max_ratio: float
    L_estimate: float
    diverged: bool
    blowup_time: float | None = None  # the level's earliest crossing of the blow-up threshold


def _random_in_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    return _unit(rng, dim) * radius * rng.uniform() ** (1.0 / dim)


def _random_pc_input(
    rng: np.random.Generator, dim: int, tau: float, sup_bound: float
) -> InputSignal:
    bps, vals = _random_steps(rng, dim, tau, int(rng.integers(0, 4)))
    vals *= rng.uniform(0.0, sup_bound, (bps.size + 1, 1))
    return InputSignal(bps, vals)


def sample_reach(sys: SystemDef, C: float, tau: float, n: int, seed: int) -> ReachSamples:
    """Seeded reachability samples (t, ||x||, ||u||, ||phi(t,x,u)||).

    Initial states are uniform in the C-ball, inputs random piecewise
    constant with sup-norm below C; each draw is recorded at the 8 times
    tau/8, 2 tau/8, .., tau.  All draws are sampled as one ensemble; a draw
    that blows up is +inf from its crossing time on.
    """
    C, tau, n = _number("C", C, gt=0), _number("tau", tau, gt=0), _number("n", n, int, ge=1)
    t_grid = np.linspace(0.0, tau, 9)[1:]
    X0, us = [], []
    for i in range(n):
        rng = seeded_rng(seed, "reach_samples", i)
        X0.append(_random_in_ball(rng, sys.state_dim, C))
        us.append(_random_pc_input(rng, sys.input_dim, tau, 0.999 * C))
    samples, t_cross = _sample_ensemble(sys, X0, us, [(t_grid, np.arange(n))], _SAMPLE_CFG)
    phi = _norms(samples).T
    phi[t_grid >= t_cross[:, None]] = math.inf
    return ReachSamples(
        np.tile(t_grid, n),
        np.repeat([float(_norms(x0)) for x0 in X0], t_grid.size),
        np.repeat([u.sup_norm() for u in us], t_grid.size),
        phi.ravel(),
    )


def _monotone_envelope(m: np.ndarray, y: np.ndarray):
    """Nondecreasing PL envelope dominating every (m_i, y_i) at its abscissa.

    The sorted abscissae are split at their quantiles into 32 closed bins
    (one, [m, m], if they are all equal).  Each non-empty bin's left edge
    above 0 is a knot, and knot 0 sits at 0 with the first bin; a knot
    carries the prefix maximum of y at its bin's last sample, so the
    envelope dominates within each bin as well.
    """
    order = np.argsort(m)
    m, top = m[order], np.maximum.accumulate(y[order])
    edges = np.unique(np.quantile(m, np.linspace(0.0, 1.0, 33)))
    lo, hi = (edges[:-1], edges[1:]) if edges.size > 1 else (edges, edges)
    last = np.searchsorted(m, hi, "right") - 1
    full = last >= np.searchsorted(m, lo)
    lo, top = lo[full], top[last[full]]
    return np.concatenate([[0.0], lo[lo > 0]]), np.concatenate([top[:1], top[lo > 0]])


def fit_additive_bound(samples: ReachSamples) -> ReachBoundFit:
    """Fit a dominating bound chi1(t) + chi2(||x||) + chi3(||u||) + c.

    A single monotone envelope g of ||phi|| against max(t, ||x||, ||u||)
    dominates the data; since the max is one of the three coordinates and g
    is nonnegative and increasing, using g for every chi preserves
    domination (the same splitting as the component-wise characterization).
    chi is g less its value c at 0, inflated by 5 percent.
    """
    if np.any(~np.isfinite(samples.norm_phi)):
        raise NotBrsError("samples contain blow-ups: not BRS on the sampled box")
    m = np.maximum(np.maximum(samples.t, samples.norm_x), samples.norm_u)
    knots, env = _monotone_envelope(m, samples.norm_phi)
    c = float(env[0])
    eps = 1e-9 * max(1.0, knots[-1])
    values = 1.05 * np.maximum(env - c, 0.0) + eps * knots / max(knots[-1], 1.0)
    if knots.size < 2:
        knots = np.array([0.0, 1.0])
        values = np.array([0.0, eps])
    last_slope = (values[-1] - values[-2]) / (knots[-1] - knots[-2])
    chi = ScalarFun(knots, values, max(last_slope, eps), frozenset({"K"}))
    fit = ReachBoundFit(chi, chi, chi, c, math.nan)
    fit.residual = float(
        (samples.norm_phi - fit.bound(samples.t, samples.norm_x, samples.norm_u)).max())
    return fit


def verify_rfc_tdi(
    sys: SystemDef,
    margin: GrowthMargin,
    kappa: ScalarFun,
    c,
    C: float,
    tau: float,
    n: int,
    seed: int,
) -> RFCBoundReport | list[RFCBoundReport]:
    """Check ||phi|| <= kappa^{-1}(t + ||x|| + c) over lifted disturbances.

    n >= 1 seeded states in the C-ball are sampled as one closed-loop ensemble,
    read on the 65-point grid of [0, tau]; a blow-up holds its crossing
    state, and its crossing time is `blowup_time`.  A blow-up falsifies the
    bound even where its crossing state lies within it, as a state that
    starts past the blow-up threshold does.  `worst` is the (t, ||x||,
    ||phi||) of the largest violation.  A number c gives one report, a
    non-empty 1-D array one per offset from the same ensemble.
    """
    if not {"Kinf"} <= kappa.tags:
        raise ValueError("kappa must be tagged Kinf")
    # n >= 1: on no states the bound holds vacuously
    offsets, C, n = _numbers("c", c, ge=0), _number("C", C, gt=0), _number("n", n, int, ge=1)
    if offsets.ndim > 1 or offsets.size == 0:
        raise ValueError(f"c must be a number or a non-empty 1-D array: {c}")
    dists = disturbance_family(sys.input_dim, tau, max(3, n // 4), seed)
    X0 = [_random_in_ball(seeded_rng(seed, "rfc_states", i), sys.state_dim, C) for i in range(n)]
    grid = np.linspace(0.0, tau, 65)
    samples, t_cross = _sample_ensemble(
        closed_loop(sys, margin), X0, [dists[i % len(dists)] for i in range(n)],
        [(grid, np.arange(n))], _SAMPLE_CFG,
    )
    norms = _norms(samples)  # row = grid time, column = state
    nx = _norms(np.array(X0))
    bound, first = inverse(kappa), float(t_cross.min())
    blowup_time = first if math.isfinite(first) else None
    reports = []
    for c_k in offsets.reshape(-1).tolist():
        viol = norms - np.asarray(bound(grid[:, None] + nx + c_k))
        j, i = np.unravel_index(int(np.argmax(viol)), viol.shape)
        max_violation = float(viol[j, i])
        worst = (float(grid[j]), float(nx[i]), float(norms[j, i]))
        reports.append(RFCBoundReport(c_k, max_violation,
                                      max_violation <= 1e-9 and blowup_time is None, worst,
                                      blowup_time))
    return reports if offsets.ndim else reports[0]


def find_rfc_offset(
    sys: SystemDef,
    margin: GrowthMargin,
    kappa: ScalarFun,
    C: float,
    tau: float,
    n: int,
    seed: int,
) -> float:
    """Smallest offset in RFC_OFFSETS whose RFC bound holds on n >= 1 states (one ensemble)."""
    for report in verify_rfc_tdi(sys, margin, kappa, np.array(RFC_OFFSETS), C, tau, n, seed):
        if report.holds:
            return report.c
    raise NotRfcTdiError(f"RFC bound fails for every offset in RFC_OFFSETS = {RFC_OFFSETS}")


def _probe_pairs(dim, C, pairs, seed, purpose, n_ladder):
    """Near-zero ladder pairs (0, r e1), then seeded random pairs in the
    C-ball; the seed is read even when no pair is drawn."""
    seed = _number("seed", seed, int, ge=0)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    pair_list = [(np.zeros(dim), r * e1) for r in NEAR_ZERO_LADDER[:n_ladder]]
    for i in range(pairs):
        rng = seeded_rng(seed, purpose, i)
        pair_list.append((_random_in_ball(rng, dim, C), _random_in_ball(rng, dim, C)))
    return pair_list


def _probe_reports(sys, levels, cfg) -> list[LipschitzProbeReport]:
    """One report per level (tau, C, pair_count, rows): the max over every
    row (x1, x2, u) of max_grid ||phi(t,x1,u) - phi(t,x2,u)|| / ||x1 - x2||,
    on the level's 65-point grid of [0, tau].

    Both states of every row of every level are sampled as one ensemble.  A
    level diverges if one of its own rows blows up, at its `blowup_time`, or
    its ratio passes RATIO_CAP.
    """
    rows = [row for *_, level_rows in levels for row in level_rows]
    level_of = np.repeat(np.arange(len(levels)), [len(level_rows) for *_, level_rows in levels])
    P = len(rows)
    X1, X2, us = zip(*rows)
    X1, X2 = np.array(X1, dtype=float), np.array(X2, dtype=float)
    groups = []
    for k, (tau, *_) in enumerate(levels):
        mine = np.flatnonzero(level_of == k)  # rows i and P + i of the level's pairs
        groups.append((np.linspace(0.0, tau, 65), np.concatenate([mine, P + mine])))
    samples, both = _sample_ensemble(sys, np.vstack([X1, X2]), us * 2, groups, cfg)
    diff = _norms(samples[:, :P] - samples[:, P:]).max(axis=0)
    ratios = diff / _norms(X1 - X2)
    t_cross = np.minimum(both[:P], both[P:])  # per pair: its first crossing
    reports = []
    for k, (tau, C, pair_count, _) in enumerate(levels):
        mine = level_of == k
        max_ratio = float(ratios[mine].max())
        first = float(t_cross[mine].min())
        diverged = math.isfinite(first) or max_ratio > RATIO_CAP
        reports.append(LipschitzProbeReport(
            tau, C, pair_count, max_ratio, math.inf if diverged else max_ratio, diverged,
            first if math.isfinite(first) else None,
        ))
    return reports


def probe_lipschitz_openloop(
    sys: SystemDef,
    tau: float,
    C: float,
    pairs: int,
    seed: int,
    u_fixed: InputSignal | None = None,
) -> LipschitzProbeReport:
    """Sup of ||phi(t,x1,u) - phi(t,x2,u)|| / ||x1 - x2|| over sampled pairs.

    Includes a geometric near-zero ladder of pairs (0, 1e-3 .. 1e-12) since
    non-Lipschitz behavior concentrates at the origin.  `diverged` flags any
    ratio beyond RATIO_CAP.
    """
    tau, C = _number("tau", tau, gt=0), _number("C", C, gt=0)
    pairs = _number("pairs", pairs, int, ge=0)
    pair_list = _probe_pairs(
        sys.state_dim, C, pairs, seed, "open_probe_pairs", len(NEAR_ZERO_LADDER)
    )
    rows = []
    for i, (x1, x2) in enumerate(pair_list):
        u = u_fixed
        if u is None:
            rng = seeded_rng(seed, "open_probe_inputs", i)
            u = _random_pc_input(rng, sys.input_dim, tau, 0.999 * C)
        rows.append((x1, x2, u))
    return _probe_reports(sys, [(tau, C, len(pair_list), rows)], _OPEN_PROBE_CFG)[0]


def probe_lipschitz_tdi(
    sys: SystemDef,
    margin: GrowthMargin,
    tau,
    C,
    pairs: int,
    seed: int,
    cfg: IntegratorConfig = _TDI_PROBE_CFG,
    n_dist: int = 4,
) -> LipschitzProbeReport | list[LipschitzProbeReport]:
    """Pair probe under matched trajectory-dominated inputs.

    Each pair shares a disturbance lifted from both initial states through
    the closed loop, realizing the matched-input map u1 -> u2.  Scalar tau
    and C give one report; equal-length 1-D arrays give one report per
    level (tau[k], C[k]), all levels sampled as one ensemble.
    """
    taus, Cs = _numbers("tau", tau, gt=0), _numbers("C", C, gt=0)
    pairs = _number("pairs", pairs, int, ge=0)
    if taus.shape != Cs.shape or taus.ndim > 1 or taus.size == 0:
        raise ValueError(f"tau and C must be numbers or 1-D arrays of one length: {tau}, {C}")
    levels = []
    for tau_k, C_k in zip(taus.ravel().tolist(), Cs.ravel().tolist()):
        pair_list = _probe_pairs(sys.state_dim, C_k, pairs, seed, "tdi_probe_pairs", 4)
        dists = disturbance_family(sys.input_dim, tau_k, n_dist, seed)
        rows = [(x1, x2, d) for x1, x2 in pair_list for d in dists]
        levels.append((tau_k, C_k, len(pair_list), rows))
    reports = _probe_reports(closed_loop(sys, margin), levels, cfg)
    return reports if taus.ndim else reports[0]


def gronwall_bound(M_sg: float, lambda_sg: float, L: float, tau: float) -> float:
    """Trajectory-sensitivity constant M exp((2 M L + lambda) tau)."""
    M_sg, lambda_sg = _number("M_sg", M_sg, ge=1), _number("lambda_sg", lambda_sg)
    L, tau = _number("L", L, ge=0), _number("tau", tau, ge=0)
    return M_sg * math.exp((2.0 * M_sg * L + lambda_sg) * tau)
