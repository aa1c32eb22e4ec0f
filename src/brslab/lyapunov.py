"""Converse Lyapunov construction for bounded reachability sets.

Pre-Lyapunov functions U_q(x) = sup over trajectory-dominated inputs and
time of G_q(e^{-s} eta(||phi||)) are estimated by sampling lifted
disturbances on dyadic time grids; the candidate is the truncated series
V(x) = 1 + sum_q 2^{-q} U_q(x) / (1 + M(q,q)) with the logarithmic variant
W = ln(1 + V).  All estimates are certified lower bounds of the exact sups,
so the sandwich and growth checks carry explicit slack.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compfun import ScalarFun, chi_from_eta, gk_eval, theta
from .sysdyn import InputSignal, IntegratorConfig, SystemDef, _sample_ensemble, integrate
from .tdinput import GrowthMargin, closed_loop, disturbance_family
from .brscheck import RATIO_CAP, _tdi_probes

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
    "dump_table",
    "load_table",
]

L_INFLATION = 1.1
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


class NotRfcTdiError(RuntimeError):
    """Closed-loop blow-up inside the evaluation window: the system is not
    RFC over trajectory-dominated inputs on this ball."""


@dataclass(frozen=True)
class LyapunovConfig:
    Q: int = 14
    n_dist: int = 6
    time_grid_density: int = 16
    seed: int = 0
    tail_tol: float = 1e-3

    def __post_init__(self):
        for name in ("Q", "n_dist", "time_grid_density", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (isinstance(self.tail_tol, numbers.Real) and 0 < self.tail_tol < math.inf):
            raise ValueError(f"tail_tol must be a finite number > 0, got {self.tail_tol!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.Q < 1:
            raise ValueError("Q must be at least 1")
        if self.n_dist < 1 or self.time_grid_density < 1:
            raise ValueError("n_dist and time_grid_density must be >= 1")


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
        L = tuple(float(v) for v in self.L)
        thetas = tuple(theta(float(q), q, self.c) for q in range(1, len(L) + 1))
        object.__setattr__(self, "L", L)
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
    pairs: int = 2,
    n_dist: int = 3,
) -> LipschitzTable:
    """Probe L(Theta(q,q), q) for q = 1..Q, inflated by 10 percent.

    The Q probes are `probe_lipschitz_tdi`'s, sampled as one ensemble in
    which level q runs to Theta(q,q) and reads its own 65 grid points.  A
    diverged probe is a NotRfcTdiError naming the level of the first row to
    blow up, or else the first level whose ratio passes RATIO_CAP.
    """
    levels = [(theta(float(q), q, c), float(q)) for q in range(1, Q + 1)]
    reports, crossed = _tdi_probes(sys, margin, levels, pairs, seed, None, n_dist, RATIO_CAP)
    bad = [k for k, rep in enumerate(reports) if rep.diverged]
    if bad:
        k = bad[0] if crossed is None else crossed
        raise NotRfcTdiError(
            f"closed-loop pair probe diverged at level q={k + 1}"
            f" (tau={levels[k][0]}, C={levels[k][1]})"
        )
    return LipschitzTable(tuple(L_INFLATION * rep.max_ratio for rep in reports), c)


def lyap_M(R: float, q: int, l_table: LipschitzTable) -> float:
    """Series normalization M(q,q) = max{L(Theta(q,q), q), Theta(q,q)}.

    The series reads the table on its diagonal only, so R must equal q.
    """
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


def _tail_bound(Q: int, nx: float, c: float) -> float:
    return 2.0 ** (1 - Q) * (1.0 + nx + c)


def eval_V(
    sys: SystemDef,
    margin: GrowthMargin,
    x,
    cfg: LyapunovConfig,
    l_table: LipschitzTable,
    R_override: float | None = None,
) -> LyapunovValue:
    """Truncated series V(x) = 1 + sum_q 2^{-q} U_q(x) / (1 + M(q,q)).

    All U_q share one ensemble of closed-loop trajectories, integrated to
    the largest horizon and sampled once on the union of the Q dyadic grids;
    each q reads its own grid's points into `per_q`.  Every grid contains
    s = 0, so each U_q estimate dominates G_q(eta(||x||)), the zero-input
    zero-time substitution.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _eval_Vs(sys, margin, x[None, :], cfg, l_table, R_override)[0]


def _eval_Vs(
    sys: SystemDef,
    margin: GrowthMargin,
    X,
    cfg: LyapunovConfig,
    l_table: LipschitzTable,
    R_override: float | None = None,
) -> list[LyapunovValue]:
    """`eval_V` at every row of X, all closed-loop families in one ensemble.

    State b's n_dist rows run to its own Theta(R_b, Q) and read its own
    union grid, with R_b = R_override or max(||x_b||, 1).
    """
    norms = np.linalg.norm(X, axis=1)
    c = l_table.c
    if R_override is None:
        balls = np.maximum(norms, 1.0)
    else:
        balls = np.full(len(X), float(R_override))
        if np.any(balls < norms - 1e-12):
            raise ValueError("R_override must cover ||x||")
    tails = [_tail_bound(cfg.Q, nx, c) for nx in norms]
    for nx, tail in zip(norms, tails):
        if tail > cfg.tail_tol:
            min_Q = math.ceil(1.0 + math.log2((1.0 + nx + c) / cfg.tail_tol))
            raise TailBudgetError(cfg.Q, tail, cfg.tail_tol, min_Q)
    qs = range(1, cfg.Q + 1)
    m_diag = [lyap_M(q, q, l_table) for q in qs]  # before integrating: Q must fit the table
    thetas = [[theta(float(R), q, c) for q in qs] for R in balls]
    grids = [[_dyadic_grid(th, cfg.time_grid_density) for th in ths] for ths in thetas]
    unions = [np.unique(np.concatenate(g)) for g in grids]
    nd = cfg.n_dist
    # state b owns rows b*nd .. b*nd + nd - 1, which read its union grid
    dists = []
    for ths in thetas:
        dists += disturbance_family(sys.input_dim, ths[-1], nd, cfg.seed)
    samples, t_cross = _sample_ensemble(
        closed_loop(sys, margin), np.repeat(X, nd, axis=0), dists,
        [(union, np.arange(b * nd, (b + 1) * nd)) for b, union in enumerate(unions)],
        _V_CFG,
    )
    row = int(np.argmin(t_cross))  # the first to blow up, if any does
    if math.isfinite(t_cross[row]):
        raise NotRfcTdiError(
            f"closed loop from ||x||={norms[row // nd]:.3g} blew up at"
            f" t={t_cross[row]:.3g} < {unions[row // nd][-1]:.3g}: not RFC-TDI on this ball"
        )
    values = []
    for b, union in enumerate(unions):
        S = samples[: union.size, b * nd : (b + 1) * nd]
        # discounted margin, shape (T, n_dist): row = grid time, column = disturbance
        disc = np.exp(-union)[:, None] * np.asarray(margin(np.linalg.norm(S, axis=2)))
        V = 1.0
        per_q = []
        for q, th, g, m in zip(qs, thetas[b], grids[b], m_diag):
            gq = gk_eval(q, disc[np.searchsorted(union, g)])
            # first disturbance attaining the sup, at its earliest grid time
            j = np.argmax(gq, axis=0)
            i = int(np.argmax(gq[j, np.arange(gq.shape[1])]))
            value = float(gq[j[i], i])
            per_q.append(UqEstimate(q, float(balls[b]), th, value, (i, float(g[j[i]]))))
            V += 2.0 ** (-q) * value / (1.0 + m)
        values.append(LyapunovValue(V, math.log1p(V), tails[b], per_q))
    return values


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


def verify_growth(
    sys: SystemDef,
    margin: GrowthMargin,
    x,
    u_value,
    cfg: LyapunovConfig,
    l_table: LipschitzTable,
) -> GrowthReport:
    """Dini check dV/dt <= V (and dW/dt <= 1) under the premise
    chi(||u||) <= ||x||, with chi = eta^{-1}(2 s); a pair outside the
    premise is returned `vacuous`, with nothing integrated.

    The Dini derivative is estimated by forward differences over
    DINI_STEPS; the ball radius R is frozen across evaluations so grid layouts
    match and discretization bias cancels in the quotient.  V at x and at
    every x(h) comes from one ensemble.
    """
    chi = chi_from_eta(margin.eta)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u_value = np.atleast_1d(np.asarray(u_value, dtype=float))
    lhs = float(chi(np.linalg.norm(u_value)))
    rhs = float(np.linalg.norm(x))
    if lhs > rhs:
        return GrowthReport(x, u_value, lhs, rhs, vacuous=True)
    traj = integrate(sys, x, InputSignal.constant(u_value), DINI_STEPS[0], _V_CFG)
    if traj.blew_up:
        raise NotRfcTdiError("open loop blew up inside the Dini step window")
    R_frozen = max(1.0, rhs, float(traj.norms().max()))
    states = np.vstack([x] + [traj.state_at(h) for h in DINI_STEPS])
    v0, *v_ladder = _eval_Vs(sys, margin, states, cfg, l_table, R_override=R_frozen)
    report = GrowthReport(x, u_value, lhs, rhs, vacuous=False, V0=v0.V, W0=v0.W)
    for h, vh in zip(DINI_STEPS, v_ladder):
        report.per_h_V[h] = (vh.V - v0.V) / h
        report.per_h_W[h] = (vh.W - v0.W) / h
    report.dini_V = max(report.per_h_V.values())
    report.dini_W = max(report.per_h_W.values())
    report.passes_V = report.dini_V <= v0.V * (1.0 + TOL_GROWTH) + GROWTH_ABS_SLACK
    report.passes_W = report.dini_W <= 1.0 + TOL_GROWTH
    return report


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
    at every radius from one ensemble."""
    radii = np.asarray(radii, dtype=float)
    alpha1, alpha2, C = sandwich_funs(
        margin, l_table, cfg.Q, s_max=max(8.0, float(radii.max()))
    )
    e1 = np.zeros(sys.state_dim)
    e1[0] = 1.0
    rows = {c: [] for c in _COLUMNS}
    for r, lv in zip(radii, _eval_Vs(sys, margin, radii[:, None] * e1, cfg, l_table)):
        rows["norm_x"].append(float(r))
        rows["V"].append(lv.V)
        rows["W"].append(lv.W)
        rows["tail_bound"].append(lv.tail_bound)
        rows["alpha1"].append(float(alpha1(r)))
        rows["alpha2_plus_C"].append(float(alpha2(r)) + C)
    return {k: np.asarray(v) for k, v in rows.items()}


_TABLE_CSV = "lyapunov_table.csv"
_MANIFEST = "lyapunov_manifest.json"


def _m_table(l_table: LipschitzTable) -> dict:
    """The inflated L per level, keyed "Theta(q,q),q"."""
    return {
        f"{tau:.12g},{q:.12g}": L
        for q, (tau, L) in enumerate(zip(l_table.theta, l_table.L), start=1)
    }


def dump_table(
    table: dict,
    out_dir,
    cfg: LyapunovConfig,
    l_table: LipschitzTable,
    extra_manifest: dict | None = None,
) -> None:
    """Write the radial table to _TABLE_CSV (`%.18e`) and the LipschitzTable,
    cfg, `extra_manifest` and the table file's sha256 to _MANIFEST (JSON
    floats), both exact."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    np.savetxt(
        buf,
        np.column_stack([table[c] for c in _COLUMNS]),
        delimiter=",",
        header=",".join(_COLUMNS),
        comments="",
    )
    csv = buf.getvalue().encode("ascii")
    (out_dir / _TABLE_CSV).write_bytes(csv)
    manifest = {
        "cfg": {
            "Q": cfg.Q,
            "n_dist": cfg.n_dist,
            "time_grid_density": cfg.time_grid_density,
            "seed": cfg.seed,
            "tail_tol": cfg.tail_tol,
        },
        "seed": cfg.seed,
        "c": l_table.c,
        "M_table": _m_table(l_table),
        # a table truncated or rewritten since no longer matches its manifest
        "table_sha256": hashlib.sha256(csv).hexdigest(),
    }
    manifest.update(extra_manifest or {})
    (out_dir / _MANIFEST).write_text(json.dumps(manifest, sort_keys=True, indent=2))


def load_table(out_dir) -> tuple[dict, LipschitzTable, dict]:
    """The inverse of `dump_table`: (table, l_table, manifest) read from
    out_dir, bit for bit as written.

    A missing file is an OSError; any other content than `dump_table`
    writes is a ValueError.
    """
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / _MANIFEST).read_text())
    csv = (out_dir / _TABLE_CSV).read_bytes()
    try:
        if hashlib.sha256(csv).hexdigest() != manifest["table_sha256"]:
            raise ValueError(f"{_TABLE_CSV} is not the table {_MANIFEST} was written with")
        # the keys are sorted as strings; the level q is the part after the comma
        levels = sorted((float(key.split(",")[1]), L) for key, L in manifest["M_table"].items())
        l_table = LipschitzTable(tuple(L for _, L in levels), manifest["c"])
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"{_MANIFEST} holds no Lipschitz table: {exc!r}") from exc
    if manifest["M_table"] != _m_table(l_table):
        raise ValueError(f"{_MANIFEST}'s M_table is not a table of the levels 1..{l_table.Q}")
    data = np.loadtxt(csv.decode("ascii").splitlines()[1:], delimiter=",", ndmin=2)
    return {c: data[:, i] for i, c in enumerate(_COLUMNS)}, l_table, manifest
