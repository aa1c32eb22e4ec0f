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
from .sysdyn import InputSignal, IntegratorConfig, SystemDef, _sample_ensemble
from .tdinput import GrowthMargin, closed_loop, disturbance_family

__all__ = [
    "ReachSamples",
    "ReachBoundFit",
    "RFCBoundReport",
    "LipschitzProbeReport",
    "NotBrsError",
    "sample_reach",
    "fit_additive_bound",
    "verify_rfc_tdi",
    "find_rfc_offset",
    "probe_lipschitz_openloop",
    "probe_lipschitz_tdi",
    "gronwall_bound",
    "seeded_rng",
]

RATIO_CAP = 1e6
# Offsets `find_rfc_offset` tries, smallest first.
RFC_OFFSETS = (0.0, 1.0, 2.0, 4.0, 8.0)
# Tolerances of the reach samples and the RFC check.
_SAMPLE_CFG = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
# Second SeedSequence entry of each seeded draw, [seed, tag, *index]: one stream
# per purpose, so adding draws to one never shifts another.
SEED_TAGS = {
    "rfc_states": 7,
    "open_probe_pairs": 11,
    "open_probe_inputs": 13,
    "tdi_probe_pairs": 17,
    "growth_pairs": 23,
}


def seeded_rng(seed: int, purpose: str, *index: int) -> np.random.Generator:
    """Generator on the SeedSequence [seed, SEED_TAGS[purpose], *index]."""
    return np.random.default_rng(np.random.SeedSequence([seed, SEED_TAGS[purpose], *index]))


NEAR_ZERO_LADDER = tuple(10.0 ** (-k) for k in range(3, 13))


class NotBrsError(RuntimeError):
    """Samples contain blow-ups: the system is not BRS on the sampled box."""


@dataclass
class ReachSamples:
    t: np.ndarray
    norm_x: np.ndarray
    norm_u: np.ndarray
    norm_phi: np.ndarray

    def to_csv(self, path) -> None:
        np.savetxt(
            path,
            np.column_stack([self.t, self.norm_x, self.norm_u, self.norm_phi]),
            delimiter=",",
            header="t,norm_x,norm_u,norm_phi",
            comments="",
        )


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
    worst: tuple | None = None


@dataclass
class LipschitzProbeReport:
    tau: float
    C: float
    pair_count: int
    max_ratio: float
    L_estimate: float
    diverged: bool


def _random_in_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return v * radius * rng.uniform() ** (1.0 / dim)


def _random_pc_input(
    rng: np.random.Generator, dim: int, tau: float, sup_bound: float
) -> InputSignal:
    n_switch = int(rng.integers(0, 4))
    bps = np.sort(rng.uniform(0.0, tau, n_switch)) if n_switch else np.array([])
    vals = rng.standard_normal((bps.size + 1, dim))
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    vals *= rng.uniform(0.0, sup_bound, (bps.size + 1, 1))
    return InputSignal(bps, vals[:-1], vals[-1])


def sample_reach(sys: SystemDef, C: float, tau: float, n: int, seed: int) -> ReachSamples:
    """Seeded reachability samples (t, ||x||, ||u||, ||phi(t,x,u)||).

    Initial states are uniform in the C-ball, inputs random piecewise
    constant with sup-norm below C; each draw is recorded at the 8 times
    tau/8, 2 tau/8, .., tau.  All draws are sampled as one ensemble; a draw
    that blows up is +inf from its crossing time on.
    """
    if C <= 0 or tau <= 0:
        raise ValueError("C and tau must be positive")
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    t_grid = np.linspace(0.0, tau, 9)[1:]
    X0, us = [], []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        X0.append(_random_in_ball(rng, sys.state_dim, C))
        us.append(_random_pc_input(rng, sys.input_dim, tau, 0.999 * C))
    samples, t_cross = _sample_ensemble(sys, X0, us, [(t_grid, np.arange(n))], _SAMPLE_CFG)
    phi = np.linalg.norm(samples, axis=2).T
    phi[t_grid >= t_cross[:, None]] = math.inf
    return ReachSamples(
        np.tile(t_grid, n),
        np.repeat([float(np.linalg.norm(x0)) for x0 in X0], t_grid.size),
        np.repeat([u.sup_norm() for u in us], t_grid.size),
        phi.ravel(),
    )


def _monotone_envelope(m: np.ndarray, y: np.ndarray):
    """Nondecreasing PL envelope dominating every (m_i, y_i) at its abscissa.

    The abscissae are split at their quantiles into 32 bins.  Knot j sits
    at a bin's left edge and carries the running maximum of all bins up to
    and including that bin, so the envelope dominates within each bin as
    well.
    """
    order = np.argsort(m)
    m, y = m[order], y[order]
    edges = np.quantile(m, np.linspace(0.0, 1.0, 33))
    edges = np.unique(edges)
    knots = [0.0]
    maxima = []
    running = -math.inf
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (m >= lo) & (m <= hi)
        if not sel.any():
            continue
        running = max(running, float(y[sel].max()))
        maxima.append(running)
        if lo > knots[-1]:
            knots.append(float(lo))
    # first bin's max also covers [0, first edge]
    values = [maxima[0]] + maxima[: len(knots) - 1]
    return np.asarray(knots), np.asarray(values[: len(knots)])


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
    residual = float(
        (samples.norm_phi - (chi(samples.t) + chi(samples.norm_x) + chi(samples.norm_u) + c)).max()
    )
    return ReachBoundFit(chi, chi, chi, c, residual)


def verify_rfc_tdi(
    sys: SystemDef,
    margin: GrowthMargin,
    kappa: ScalarFun,
    c: float,
    C: float,
    tau: float,
    n: int,
    seed: int,
) -> RFCBoundReport:
    """Check ||phi|| <= kappa^{-1}(t + ||x|| + c) over lifted disturbances.

    n seeded states in the C-ball are sampled as one closed-loop ensemble,
    read on the 65-point grid of [0, tau]; a blow-up holds its crossing
    state, far above any bound.  `worst` is the (t, ||x||, ||phi||) of the
    largest violation.
    """
    if not {"Kinf"} <= kappa.tags:
        raise ValueError("kappa must be tagged Kinf")
    if n == 0:
        return RFCBoundReport(c, -math.inf, True, None)
    dists = disturbance_family(sys.input_dim, tau, max(3, n // 4), seed)
    X0 = [_random_in_ball(seeded_rng(seed, "rfc_states", i), sys.state_dim, C) for i in range(n)]
    grid = np.linspace(0.0, tau, 65)
    samples, _ = _sample_ensemble(
        closed_loop(sys, margin), X0, [dists[i % len(dists)] for i in range(n)],
        [(grid, np.arange(n))], _SAMPLE_CFG,
    )
    norms = np.linalg.norm(samples, axis=2)  # row = grid time, column = state
    nx = np.linalg.norm(X0, axis=1)
    viol = norms - np.asarray(inverse(kappa)(grid[:, None] + nx + c))
    j, i = np.unravel_index(int(np.argmax(viol)), viol.shape)
    max_violation = float(viol[j, i])
    worst = (float(grid[j]), float(nx[i]), float(norms[j, i]))
    return RFCBoundReport(c, max_violation, max_violation <= 1e-9, worst)


def find_rfc_offset(
    sys: SystemDef,
    margin: GrowthMargin,
    kappa: ScalarFun,
    C: float,
    tau: float,
    n: int,
    seed: int,
) -> float:
    """Smallest offset in RFC_OFFSETS for which the RFC bound holds."""
    for c in RFC_OFFSETS:
        if verify_rfc_tdi(sys, margin, kappa, c, C, tau, n, seed).holds:
            return c
    raise NotBrsError(
        f"RFC bound fails for every offset in {RFC_OFFSETS}: not RFC-TDI evidence"
    )


def _probe_pairs(dim, tau, C, pairs, seed, purpose, n_ladder):
    """Near-zero ladder pairs (0, r e1), then seeded random pairs in the C-ball."""
    if tau <= 0 or C <= 0:
        raise ValueError("tau and C must be positive")
    e1 = np.zeros(dim)
    e1[0] = 1.0
    pair_list = [(np.zeros(dim), r * e1) for r in NEAR_ZERO_LADDER[:n_ladder]]
    for i in range(pairs):
        rng = seeded_rng(seed, purpose, i)
        pair_list.append((_random_in_ball(rng, dim, C), _random_in_ball(rng, dim, C)))
    return pair_list


def _probe_reports(sys, levels, cfg, ratio_cap) -> tuple[list, int | None]:
    """One report per level (tau, C, pair_count, rows): the max over every
    row (x1, x2, u) of max_grid ||phi(t,x1,u) - phi(t,x2,u)|| / ||x1 - x2||,
    on the level's 65-point grid of [0, tau].

    Both states of every row of every level are sampled as one ensemble.  A
    level diverges if one of its own rows blows up or its ratio passes
    ratio_cap.  The level of the row that blows up first is returned too
    (None if none does).
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
    diff = np.linalg.norm(samples[:, :P] - samples[:, P:], axis=2).max(axis=0)
    ratios = diff / np.linalg.norm(X1 - X2, axis=1)
    t_cross = np.minimum(both[:P], both[P:])  # per pair: its first crossing
    reports = []
    for k, (tau, C, pair_count, _) in enumerate(levels):
        mine = level_of == k
        max_ratio = float(ratios[mine].max())
        diverged = bool(np.isfinite(t_cross[mine]).any()) or max_ratio > ratio_cap
        reports.append(LipschitzProbeReport(
            tau, C, pair_count, max_ratio, math.inf if diverged else max_ratio, diverged
        ))
    first = int(level_of[np.argmin(t_cross)]) if np.isfinite(t_cross).any() else None
    return reports, first


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
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    pair_list = _probe_pairs(
        sys.state_dim, tau, C, pairs, seed, "open_probe_pairs", len(NEAR_ZERO_LADDER)
    )
    rows = []
    for i, (x1, x2) in enumerate(pair_list):
        u = u_fixed
        if u is None:
            rng = seeded_rng(seed, "open_probe_inputs", i)
            u = _random_pc_input(rng, sys.input_dim, tau, 0.999 * C)
        rows.append((x1, x2, u))
    return _probe_reports(sys, [(tau, C, len(pair_list), rows)], cfg, RATIO_CAP)[0][0]


def probe_lipschitz_tdi(
    sys: SystemDef,
    margin: GrowthMargin,
    tau: float,
    C: float,
    pairs: int,
    seed: int,
    cfg: IntegratorConfig | None = None,
    n_dist: int = 4,
    ratio_cap: float = RATIO_CAP,
) -> LipschitzProbeReport:
    """Pair probe under matched trajectory-dominated inputs.

    Each pair shares a disturbance lifted from both initial states through
    the closed loop, realizing the matched-input map u1 -> u2.
    """
    return _tdi_probes(sys, margin, [(tau, C)], pairs, seed, cfg, n_dist, ratio_cap)[0][0]


def _tdi_probes(sys, margin, levels, pairs, seed, cfg, n_dist, ratio_cap):
    """`probe_lipschitz_tdi` at every (tau, C) in `levels`, sampled as one
    ensemble; returns the reports and the crossing level as `_probe_reports`."""
    cfg = cfg or IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
    specs = []
    for tau, C in levels:
        pair_list = _probe_pairs(sys.state_dim, tau, C, pairs, seed, "tdi_probe_pairs", 4)
        dists = disturbance_family(sys.input_dim, tau, n_dist, seed)
        rows = [(x1, x2, d) for x1, x2 in pair_list for d in dists]
        specs.append((tau, C, len(pair_list), rows))
    return _probe_reports(closed_loop(sys, margin), specs, cfg, ratio_cap)


def gronwall_bound(M_sg: float, lambda_sg: float, L: float, tau: float) -> float:
    """Trajectory-sensitivity constant M exp((2 M L + lambda) tau)."""
    if M_sg < 1 or L < 0 or tau < 0:
        raise ValueError("need M_sg >= 1, L >= 0, tau >= 0")
    return M_sg * math.exp((2.0 * M_sg * L + lambda_sg) * tau)
