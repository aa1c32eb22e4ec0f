"""Converse Lyapunov construction for bounded reachability sets.

Pre-Lyapunov functions U_q(x) = sup over trajectory-dominated inputs and
time of G_q(e^{-s} eta(||phi||)) are estimated by sampling lifted
disturbances on dyadic time grids; the candidate is the truncated series
V(x) = 1 + sum_q 2^{-q} U_q(x) / (1 + M(q,q)) with the logarithmic variant
W = ln(1 + V).  All estimates are sampled lower bounds of the exact sups,
up to integration error (ROADMAP items 8 and 18), so the sandwich and
growth checks carry explicit slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compfun import ScalarFun, gk_eval, theta
from .sysdyn import (InputSignal, IntegratorConfig, SystemDef, _norms, _number, _numbers,
                     _sample_ensemble)
from .tdinput import GrowthMargin, closed_loop, disturbance_family
from .brscheck import NotRfcTdiError, probe_lipschitz_tdi

__all__ = [
    "LyapunovConfig",
    "UqEstimate",
    "LyapunovValue",
    "GrowthReport",
    "LipschitzTable",
    "TailBudgetError",
    "NotRfcTdiError",
    "build_l_table",
    "lyap_M",
    "eval_V",
    "sandwich_funs",
    "verify_growth",
    "radial_table",
]

L_INFLATION = 1.1
L_PROBE_PAIRS, L_PROBE_DIST = 2, 3  # random pairs and disturbances per level of the probe
# Forward-difference steps of the Dini quotients, largest first, and the
# slack of the growth check: relative on dV/dt <= V and dW/dt <= 1,
# absolute on dV/dt.
DINI_STEPS = (1e-2, 1e-3)
TOL_GROWTH = 0.1
GROWTH_ABS_SLACK = 0.05
# Tolerances of the closed-loop trajectories behind U_q and the Dini steps.
_V_CFG = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)


class TailBudgetError(ValueError):
    """Truncation order too small for the requested tail budget."""

    def __init__(self, Q: int, tail_bound: float, tail_tol: float, min_Q: int):
        self.min_Q = min_Q
        super().__init__(
            f"Q={Q} leaves tail bound {tail_bound:.3e} > tail_tol {tail_tol:.1e};"
            f" minimal admissible Q is {min_Q}"
        )


@dataclass(frozen=True)
class LyapunovConfig:
    Q: int = 14
    n_dist: int = 6
    time_grid_density: int = 16
    seed: int = 0
    tail_tol: float = 1e-3

    def __post_init__(self):
        for name in ("Q", "n_dist", "time_grid_density"):
            _number(name, getattr(self, name), int, ge=1)
        _number("seed", self.seed, int, ge=0)
        _number("tail_tol", self.tail_tol, gt=0)


@dataclass
class UqEstimate:
    q: int
    R: float
    theta_Rq: float
    value: float
    argmax: tuple  # (disturbance index, time)


@dataclass
class LyapunovValue:
    V: float
    W: float
    tail_bound: float
    per_q: list


@dataclass(frozen=True)
class LipschitzTable:
    """Inflated flow-Lipschitz constants L[q-1] = L(Theta(q,q), q) of the
    levels q = 1..Q under RFC offset c, with theta[q-1] = Theta(q,q) and
    M[q-1] = max(L, Theta) derived when the table is built."""

    L: tuple
    c: float = 0.0
    theta: tuple = field(init=False)
    M: tuple = field(init=False)

    def __post_init__(self):
        L, c = tuple(float(v) for v in _numbers("L", self.L, ge=0)), _number("c", self.c, ge=0)
        thetas = tuple(theta(float(q), q, c) for q in range(1, len(L) + 1))
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "theta", thetas)
        object.__setattr__(self, "M", tuple(map(max, L, thetas)))

    @property
    def Q(self) -> int:
        return len(self.L)


def build_l_table(
    sys: SystemDef,
    margin: GrowthMargin,
    Q: int,
    c: float,
    seed: int,
) -> LipschitzTable:
    """Probe L(Theta(q,q), q) for q = 1..Q, inflated by 10 percent.

    The Q levels are one `probe_lipschitz_tdi` ensemble in which level q
    runs to Theta(q,q) and reads its own 65 grid points.  A diverged probe
    is a NotRfcTdiError naming the level with the earliest blow-up, or else
    the first level whose ratio passes RATIO_CAP.
    """
    Q, c = _number("Q", Q, int, ge=1), _number("c", c, ge=0)
    taus = [theta(float(q), q, c) for q in range(1, Q + 1)]
    reports = probe_lipschitz_tdi(sys, margin, np.array(taus), np.arange(1.0, Q + 1.0),
                                  L_PROBE_PAIRS, seed, n_dist=L_PROBE_DIST)
    bad = [q for q, rep in enumerate(reports, start=1) if rep.diverged]
    if bad:
        crossed = [(rep.blowup_time, q) for q, rep in enumerate(reports, start=1)
                   if rep.blowup_time is not None]
        q = min(crossed)[1] if crossed else bad[0]
        raise NotRfcTdiError(
            f"closed-loop pair probe diverged at level q={q} (tau={taus[q - 1]}, C={float(q)})"
        )
    return LipschitzTable(tuple(L_INFLATION * rep.max_ratio for rep in reports), c)


def lyap_M(R: float, q: int, l_table: LipschitzTable) -> float:
    """Series normalization M(q,q) = max{L(Theta(q,q), q), Theta(q,q)}.

    The series reads the table on its diagonal only, so R must equal q.
    """
    R, q = _number("R", R), _number("q", q, int)
    if R != q:
        raise ValueError(f"the Lipschitz table holds M(q,q) only, got R={R} and q={q}")
    if not 1 <= q <= l_table.Q:
        raise ValueError(f"q={q} lies outside the Lipschitz table's levels 1..Q={l_table.Q};"
                         f" build the table with Q >= {q}")
    return l_table.M[q - 1]


def _dyadic_grid(horizon: float, density: int) -> np.ndarray:
    """Grid 0..horizon with 2^m segments, m minimal for the density.

    Dyadic segment counts make a doubled density produce an exact superset
    grid, so sup estimates refine monotonically without float jitter.
    """
    n = 1 << max(0, math.ceil(math.log2(max(1.0, density * horizon))))
    return horizon * np.arange(n + 1) / n


def _check_tail_budget(
    X: np.ndarray, c: float, cfg: LyapunovConfig
) -> tuple[np.ndarray, list[float]]:
    """The norms of the states X, shape (K, n), and their tail bounds
    2^(1-Q) (1 + ||x|| + c), formed as s + s ||x|| + s c with s = 2^(1-Q):
    the same bits, finite for Q >= 2 wherever ||x|| and c are (inf, with no
    warning, where the sum is not); a TailBudgetError for the first bound
    over cfg.tail_tol, whose least admissible Q is ceil(1 + log2(1 + ||x||
    + c) - log2(tail_tol)) on the sum scaled by 2^-64, exactly as a power of
    two, so that it is finite for any state of fewer than 2^128 entries."""
    norms = _norms(X)
    s = 2.0 ** (1 - cfg.Q)
    tails = [s + s * nx + s * c for nx in norms.tolist()]
    for x, tail in zip(X, tails):
        if tail > cfg.tail_tol:
            scaled = 2.0**-64 + float(_norms(x * 2.0**-64)) + c * 2.0**-64
            min_Q = math.ceil(65 + math.log2(scaled) - math.log2(cfg.tail_tol))
            raise TailBudgetError(cfg.Q, tail, cfg.tail_tol, min_Q)
    return norms, tails


def eval_V(
    sys: SystemDef,
    margin: GrowthMargin,
    x,
    cfg: LyapunovConfig,
    l_table: LipschitzTable,
    R_override: float | None = None,
) -> LyapunovValue | list[LyapunovValue]:
    """Truncated series V(x) = 1 + sum_q 2^{-q} U_q(x) / (1 + M(q,q)): one
    LyapunovValue for one state x, shape (n,), or a list for a stack (K, n).

    State b's ball radius R_b is max(||x_b||, 1), or R_override, which is
    one radius for every state or one per state, shape (K,), each covering
    its ||x_b||.  All closed-loop families are one ensemble: state b's
    n_dist rows run to Theta(R_b, Q) and read the union of its ball's Q
    dyadic grids, which are built once per distinct R_b (one row group per
    ball); each q reads its own grid into `per_q`.  Every grid holds s = 0,
    so each U_q estimate dominates G_q(eta(||x||)).
    """
    x = _numbers("x", x)
    one = x.ndim < 2
    X = np.atleast_2d(x)
    if X.shape[1:] != (sys.state_dim,) or X.size == 0:
        raise ValueError(f"x must be one state or a non-empty stack of states of width"
                         f" {sys.state_dim}, got shape {x.shape}")
    c = l_table.c
    norms, tails = _check_tail_budget(X, c, cfg)
    if R_override is None:
        balls = np.maximum(norms, 1.0)
    else:
        balls = _numbers("R_override", R_override, ge=0)
        if balls.shape not in ((), (len(X),)):
            raise ValueError(f"R_override must be one radius or one per state, got shape"
                             f" {balls.shape} for {len(X)} states")
        balls = np.broadcast_to(balls, len(X))
        if np.any(balls < norms - 1e-12):
            raise ValueError("R_override must cover ||x||")
    qs = range(1, cfg.Q + 1)
    m_diag = [lyap_M(q, q, l_table) for q in qs]  # before integrating: Q must fit the table
    radii, ball_of = np.unique(balls, return_inverse=True)
    thetas = [[theta(float(R), q, c) for q in qs] for R in radii]
    grids = [[_dyadic_grid(th, cfg.time_grid_density) for th in ths] for ths in thetas]
    unions = [np.unique(np.concatenate(g)) for g in grids]
    nd = cfg.n_dist
    families = [disturbance_family(sys.input_dim, ths[-1], nd, cfg.seed) for ths in thetas]
    # state b owns rows b*nd .. b*nd + nd - 1, which read its ball's union grid
    rows = np.arange(len(X) * nd).reshape(len(X), nd)
    samples, t_cross = _sample_ensemble(
        closed_loop(sys, margin), np.repeat(X, nd, axis=0),
        [d for j in ball_of for d in families[j]],
        [(union, rows[ball_of == j].ravel()) for j, union in enumerate(unions)],
        _V_CFG,
    )
    row = int(np.argmin(t_cross))  # the first to blow up, if any does
    if math.isfinite(t_cross[row]):
        raise NotRfcTdiError(
            f"closed loop from ||x||={norms[row // nd]:.3g} blew up at"
            f" t={t_cross[row]:.3g} < {unions[ball_of[row // nd]][-1]:.3g}:"
            " not RFC-TDI on this ball"
        )
    # per ball: the discount at each union time, and where each q's grid sits in it
    decays = [np.exp(-union)[:, None] for union in unions]
    picks = [[np.searchsorted(union, g) for g in gs] for union, gs in zip(unions, grids)]
    values = []
    for b, k in enumerate(ball_of):
        S = samples[: unions[k].size, b * nd : (b + 1) * nd]
        # discounted margin, shape (T, n_dist): row = grid time, column = disturbance
        disc = decays[k] * np.asarray(margin(_norms(S)))
        V = 1.0
        per_q = []
        for q, th, g, pick, m in zip(qs, thetas[k], grids[k], picks[k], m_diag):
            gq = gk_eval(q, disc[pick])
            # first disturbance attaining the sup, at its earliest grid time
            j = np.argmax(gq, axis=0)
            i = int(np.argmax(gq[j, np.arange(gq.shape[1])]))
            value = float(gq[j[i], i])
            per_q.append(UqEstimate(q, float(balls[b]), th, value, (i, float(g[j[i]]))))
            V += 2.0 ** (-q) * value / (1.0 + m)
        values.append(LyapunovValue(V, math.log1p(V), tails[b], per_q))
    return values[0] if one else values


def sandwich_funs(
    margin: GrowthMargin,
    l_table: LipschitzTable,
    Q: int,
    s_max: float = 8.0,
) -> tuple[ScalarFun, ScalarFun, float]:
    """Two-sided comparison bounds alpha1(s) <= V <= alpha2(s) + C, C = 2 + c.

    alpha1 is the truncated series of G_q(eta(s)) terms; alpha2 is a
    piecewise-linear majorant of s + sum_{q <= floor(s)} 2^{-q}
    Theta(s,q)/(1+M(q,q)) on integer knots (interval-wise upper values keep
    it above the jumps of the floor).
    """
    Q, s_max = _number("Q", Q, int, ge=1), _number("s_max", s_max, ge=0)
    eta = margin.eta
    c = l_table.c
    m_qq = {q: lyap_M(q, q, l_table) for q in range(1, Q + 1)}

    crossings = [float(np.interp(1.0 / q, eta.values, eta.knots)) for q in range(1, Q + 1)]
    grid = np.unique(
        np.concatenate([eta.knots, crossings, np.linspace(0.0, s_max, 33)])
    )
    grid = grid[grid <= max(s_max, eta.knots[-1])]

    def a1(s):
        ev = eta(s)
        return sum(2.0 ** (-q) * gk_eval(q, ev) / (1.0 + m_qq[q]) for q in range(1, Q + 1))

    a1_vals = a1(grid)
    a1_slope = max((a1_vals[-1] - a1_vals[-2]) / (grid[-1] - grid[-2]), 0.0)
    alpha1 = ScalarFun(grid, a1_vals, a1_slope)

    def upper(j: int) -> float:
        # dominates s + sum_{q <= floor(s)} ... for every s in [j-1, j]
        return j + sum(
            2.0 ** (-q) * theta(float(j), q, c) / (1.0 + m_qq[q])
            for q in range(1, min(j, Q) + 1)
        )

    k_max = int(math.ceil(s_max)) + 1
    knots2 = np.arange(0.0, k_max + 1.0)
    # knot k carries the bound over [k, k+1], so the interpolant never dips
    # below the floor-jump expression inside any interval
    vals2 = np.array([0.0] + [upper(k + 1) for k in range(1, knots2.size)])
    alpha2 = ScalarFun(knots2, vals2, 2.0, frozenset({"Kinf"}))
    return alpha1, alpha2, 2.0 + c


@dataclass
class GrowthReport:
    x: np.ndarray
    u_value: np.ndarray
    premise_lhs: float
    premise_rhs: float
    vacuous: bool
    V0: float = math.nan
    W0: float = math.nan
    per_h_V: dict = field(default_factory=dict)
    per_h_W: dict = field(default_factory=dict)
    dini_V: float = math.nan
    dini_W: float = math.nan
    passes_V: bool = True
    passes_W: bool = True


def _premise(margin: GrowthMargin, x: np.ndarray, u_value: np.ndarray) -> tuple:
    """The growth premise chi(||u||) <= ||x|| of one pair, with the margin's
    chi = eta^{-1}(2 s): its two sides, and whether it holds."""
    lhs = float(margin.chi(_norms(u_value)))
    rhs = float(_norms(x))
    return lhs, rhs, lhs <= rhs


def verify_growth(
    sys: SystemDef,
    margin: GrowthMargin,
    x,
    u_value,
    cfg: LyapunovConfig,
    l_table: LipschitzTable,
) -> GrowthReport | list[GrowthReport]:
    """Dini check dV/dt <= V (and dW/dt <= 1) under the premise
    chi(||u||) <= ||x||, with chi = eta^{-1}(2 s): one GrowthReport for one
    pair, x of shape (n,), or a list for a stack of K pairs, x of shape
    (K, n) and u_value of shape (K, m).  A pair outside the premise is
    returned `vacuous`, with nothing integrated for it.

    The Dini derivative is estimated by forward differences over
    DINI_STEPS.  Each pair's open-loop window x(h), h in DINI_STEPS, is one
    row of one sampler call, read at the steps.  A blow-up inside any
    pair's window is a NotRfcTdiError naming the pair that crosses first,
    even if another pair of the stack fails the growth check.  Each pair's
    ball radius R = max(1, ||x||, ||x(h)||) is frozen across its
    evaluations so grid layouts match and discretization bias cancels in
    the quotient.  V at every x and every x(h) comes from one `eval_V`
    ensemble.
    """
    x, u_value = _numbers("x", x), _numbers("u_value", u_value)
    one = x.ndim < 2
    X, U = np.atleast_2d(x), np.atleast_2d(u_value)
    if (u_value.ndim < 2) != one or len(X) != len(U):
        raise ValueError(f"x and u_value must hold as many pairs, got shapes"
                         f" {x.shape} and {u_value.shape}")
    # before the premise: a vacuous pair of the wrong width is still wrong
    if X.shape[1:] != (sys.state_dim,) or U.shape[1:] != (sys.input_dim,):
        raise ValueError(f"x and u_value must have widths {sys.state_dim} and"
                         f" {sys.input_dim}, got shapes {x.shape} and {u_value.shape}")
    reports = []
    for xk, uk in zip(X, U):
        lhs, rhs, holds = _premise(margin, xk, uk)
        reports.append(GrowthReport(xk, uk, lhs, rhs, vacuous=not holds))
    live = [k for k, rep in enumerate(reports) if not rep.vacuous]
    if live:
        window, t_cross = _sample_ensemble(
            sys, X[live], [InputSignal.constant(u) for u in U[live]],
            [(sorted(DINI_STEPS), range(len(live)))], _V_CFG)
        row = int(np.argmin(t_cross))  # the first to blow up, if any does
        if math.isfinite(t_cross[row]):
            k = live[row]
            raise NotRfcTdiError(
                f"open loop of pair {k} from ||x||={reports[k].premise_rhs:.3g} blew up"
                f" at t={t_cross[row]:.3g} inside the Dini step window"
            )
        # per pair: x, then x(h) in DINI_STEPS order, all on the pair's frozen R
        states = np.stack([X[live], *window[::-1]], axis=1)
        R_frozen = np.maximum(1.0, _norms(states).max(axis=1))
        w = states.shape[1]
        values = eval_V(sys, margin, states.reshape(-1, X.shape[1]), cfg, l_table,
                        R_override=np.repeat(R_frozen, w))
        for j, k in enumerate(live):
            v0, *v_ladder = values[j * w : (j + 1) * w]
            rep = reports[k]
            rep.V0, rep.W0 = v0.V, v0.W
            for h, vh in zip(DINI_STEPS, v_ladder):
                rep.per_h_V[h] = (vh.V - v0.V) / h
                rep.per_h_W[h] = (vh.W - v0.W) / h
            rep.dini_V = max(rep.per_h_V.values())
            rep.dini_W = max(rep.per_h_W.values())
            rep.passes_V = rep.dini_V <= v0.V * (1.0 + TOL_GROWTH) + GROWTH_ABS_SLACK
            rep.passes_W = rep.dini_W <= 1.0 + TOL_GROWTH
    return reports[0] if one else reports


# the radial table's columns, in the order of its CSV
_COLUMNS = ("norm_x", "V", "W", "tail_bound", "alpha1", "alpha2_plus_C")


def radial_table(
    sys: SystemDef,
    margin: GrowthMargin,
    radii,
    cfg: LyapunovConfig,
    l_table: LipschitzTable,
) -> dict:
    """Evaluate V, W and the sandwich bounds along states r * e1, with V
    at every radius from one ensemble.  V comes first: a radius over the
    tail budget is a TailBudgetError before the bounds are built up to it."""
    radii = _numbers("radii", radii, ge=0)
    if radii.ndim != 1 or not radii.size:
        raise ValueError(f"radii must be a non-empty 1-D array, got shape {radii.shape}")
    e1 = np.zeros(sys.state_dim)
    e1[0] = 1.0
    values = eval_V(sys, margin, radii[:, None] * e1, cfg, l_table)
    alpha1, alpha2, C = sandwich_funs(
        margin, l_table, cfg.Q, s_max=max(8.0, float(radii.max()))
    )
    # a copy: `_numbers` hands a float array back as it came
    return {"norm_x": radii.copy(), "V": np.array([lv.V for lv in values]),
            "W": np.array([lv.W for lv in values]),
            "tail_bound": np.array([lv.tail_bound for lv in values]),
            "alpha1": alpha1(radii), "alpha2_plus_C": alpha2(radii) + C}
