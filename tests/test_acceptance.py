"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import math
import time

import numpy as np
import pytest

import brslab as bl
from brslab.compfun import gk_eval, theta
from conftest import SEED, suite_elapsed

TIGHT = bl.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)


def report(num: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_criterion_01_sigma1_cube_root_flow(sigma1):
    start = time.monotonic()
    u = bl.InputSignal.constant([1.0])
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 41):
        traj = bl.integrate(sigma1.system, [x], u, math.log(3))
        got = traj.states[-1][0]
        if abs(x) < 1e-6:
            assert got == 0.0
            continue
        expect = math.copysign(abs(x) ** (1 / 3), x)
        worst = max(worst, abs(got - expect) / abs(expect))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 2.0
    report(1, ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 2.0


def test_criterion_02_sigma1_global_bound(sigma1):
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 2]))
    cfg = bl.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)
    worst = -math.inf
    for _ in range(500):
        t = rng.uniform(0.01, 10.0)
        x0 = rng.uniform(-5.0, 5.0)
        n_seg = int(rng.integers(1, 4))
        bps = np.sort(rng.uniform(0.0, t, n_seg - 1)) if n_seg > 1 else np.array([])
        vals = rng.uniform(-5.0, 5.0, (n_seg, 1))
        u = bl.InputSignal(bps, vals)
        traj = bl.integrate(sigma1.system, [x0], u, t, cfg)
        worst = max(worst, float(traj.norms().max()) - max(1.0, abs(x0)))
    ok = worst <= 1e-9
    report(2, ok, f"max excess {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_03_gk_inequalities():
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 3]))
    worst = -math.inf
    for _ in range(10_000):
        z1, z2 = rng.uniform(0.0, 20.0, 2)
        a = rng.uniform(1.0, 20.0)
        k = int(rng.integers(1, 200))
        s1 = abs(z1 - z2) - abs(gk_eval(k, z1) - gk_eval(k, z2))
        s2 = a * gk_eval(k, z1) + (a - 1.0) / k - gk_eval(k, a * z1)
        worst = max(worst, -s1, -s2)
    ok = worst <= 1e-12
    report(3, ok, f"worst slack violation {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_04_theta_contract():
    c = 0.5
    monotone = True
    for q in range(1, 11):
        prev = None
        for R in np.linspace(0.0, 9.0, 10):
            t = theta(float(R), q, c)
            assert math.exp(-t) * (t + R + c) <= 1.0 / q
            if t > 1.0:
                assert math.exp(-(t - 1e-6)) * (t - 1e-6 + R + c) > 1.0 / q
            if prev is not None and t < prev:
                monotone = False
            prev = t
    report(4, monotone, "defining inequality + monotonicity on 10x10 grid")
    assert monotone


def test_criterion_05_bijection_roundtrip(sigma1):
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 5]))
    dists = bl.disturbance_family(1, 3.0, 50, seed=SEED)
    grid = np.linspace(0.0, 3.0, 61)
    worst_d, worst_traj = 0.0, 0.0
    for d in dists:
        x0 = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        u, traj_cl = bl.lift_disturbance(sigma1.system, sigma1.margin, [x0], d, 3.0, TIGHT)
        traj_ol = bl.integrate(sigma1.system, [x0], u, 3.0, TIGHT)
        for t in grid:
            worst_traj = max(
                worst_traj,
                float(np.linalg.norm(traj_cl.state_at(t) - traj_ol.state_at(t))),
            )
        d_back = bl.project_input(sigma1.system, sigma1.margin, [x0], u, 3.0, TIGHT, grid)
        for t in grid:
            if sigma1.margin(np.linalg.norm(traj_cl.state_at(t))) > 1e-6:
                worst_d = max(
                    worst_d, float(np.linalg.norm(d_back.eval(t) - d.eval(t)))
                )
    ok = worst_d <= 1e-6 and worst_traj <= 1e-5
    report(5, ok, f"d err {worst_d:.2e}, traj err {worst_traj:.2e}")
    assert worst_d <= 1e-6
    assert worst_traj <= 1e-5


def test_criterion_06_lipschitz_dichotomy(sigma1):
    tau = math.log(3)
    u1 = bl.InputSignal.constant([1.0])
    open_rep = bl.probe_lipschitz_openloop(
        sigma1.system, tau, 1.0, 3, seed=SEED, u_fixed=u1
    )
    grid = np.linspace(0, tau, 65)
    x1, x2 = (
        bl.integrate(sigma1.system, [x], u1, tau, TIGHT).state_at(grid) for x in (0.0, 1e-9)
    )
    pair_ratio = float(np.linalg.norm(x1 - x2, axis=1).max()) / 1e-9
    tdi_rep = bl.probe_lipschitz_tdi(sigma1.system, sigma1.margin, tau, 1.0, 3, seed=SEED)
    bound = bl.gronwall_bound(1.0, 0.0, 1.0, tau) * 1.1
    ok = (
        open_rep.diverged
        and pair_ratio >= 1e5
        and not tdi_rep.diverged
        and tdi_rep.L_estimate <= bound
    )
    report(
        6, ok,
        f"open ratio {open_rep.max_ratio:.2e} (pair {pair_ratio:.2e}),"
        f" tdi L {tdi_rep.L_estimate:.3f} <= {bound:.3f}",
    )
    assert open_rep.diverged and pair_ratio >= 1e5
    assert not tdi_rep.diverged and tdi_rep.L_estimate <= bound


def _sandwich(bundle, cfg, l_table):
    """(ok, V(0)) of V(0) = 1 and alpha1 <= V <= alpha2 + C on 21 radii in [0, 2]."""
    table = bl.radial_table(bundle.system, bundle.margin, np.linspace(0.0, 2.0, 21), cfg,
                            l_table)
    v0_ok = abs(table["V"][0] - 1.0) <= 1e-9
    lower_ok = bool(np.all(table["alpha1"] <= table["V"] + 1e-12))
    upper_ok = bool(np.all(table["V"] <= table["alpha2_plus_C"] + 1e-12))
    return v0_ok and lower_ok and upper_ok, table["V"][0]


def test_criterion_07_sandwich_bounds(sigma1, lyap_cfg, l_table, growing):
    # sigma1, whose sups sit at s = 0, and the growing witness, whose sups do not
    ok, v0 = _sandwich(sigma1, lyap_cfg, l_table)
    ok_growing, v0_growing = _sandwich(growing[0], lyap_cfg, growing[1])
    report(7, ok and ok_growing,
           f"V(0)={v0:.12f} (growing {v0_growing:.12f}), 21 radial points in [0,2]")
    assert ok and ok_growing


def _growth_margins(bundle, cfg, l_table, pairs):
    """Worst Dini margins (V, W) over `pairs` premise pairs r in [0.1, 2],
    each of which must pass."""
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 8]))
    checked = 0
    worst_v, worst_w = -math.inf, -math.inf
    while checked < pairs:
        r = rng.uniform(0.1, 2.0)
        x = np.array([r * rng.choice([-1.0, 1.0])])
        u = np.array([rng.uniform(0.0, 0.95) * 0.5 * bundle.margin(r)])
        rep = bl.verify_growth(bundle.system, bundle.margin, x, u, cfg, l_table)
        if rep.vacuous:
            continue
        checked += 1
        worst_v = max(worst_v, rep.dini_V - (rep.V0 * 1.1 + 0.05))
        worst_w = max(worst_w, rep.dini_W - 1.1)
        assert rep.passes_V and rep.passes_W
    return worst_v, worst_w


def test_criterion_08_growth_condition(sigma1, lyap_cfg, l_table, growing):
    worst_v, worst_w = _growth_margins(sigma1, lyap_cfg, l_table, 100)
    growing_v, growing_w = _growth_margins(growing[0], lyap_cfg, growing[1], 30)
    ok = max(worst_v, growing_v) <= 0 and max(worst_w, growing_w) <= 0
    report(8, ok, f"100 premise pairs, worst V margin {worst_v:.2e}, W {worst_w:.2e}; "
                  f"growing 30 pairs, V {growing_v:.2e}, W {growing_w:.2e}")


def _s0_series(margin, nx, Q, l_table):
    """V(x) when every U_q sup sits at s = 0: 1 + sum 2^{-q} G_q(eta(|x|)) / (1 + M)."""
    z = float(margin(nx))
    return 1.0 + sum(
        2.0 ** (-q) * gk_eval(q, z) / (1.0 + bl.lyap_M(q, q, l_table))
        for q in range(1, Q + 1)
    )


def test_criterion_09_monotone_refinement(sigma1, l_table):
    base = bl.LyapunovConfig(seed=SEED, n_dist=2, time_grid_density=4)
    fine = bl.LyapunovConfig(seed=SEED, n_dist=4, time_grid_density=8)
    radii = np.linspace(0.0, 2.0, 21)
    diffs, s0_err, argmax_times = [], 0.0, set()
    for r in radii:
        v0 = bl.eval_V(sigma1.system, sigma1.margin, [r], base, l_table)
        v1 = bl.eval_V(sigma1.system, sigma1.margin, [r], fine, l_table)
        diffs.append(v1.V - v0.V)
        exact = _s0_series(sigma1.margin, r, base.Q, l_table)
        s0_err = max(s0_err, abs(v0.V - exact), abs(v1.V - exact))
        argmax_times |= {u.argmax[1] for u in v0.per_q + v1.per_q if u.value > 0.0}
    diffs = np.asarray(diffs)
    s0_exact = s0_err <= 1e-12 and argmax_times == {0.0}
    never_decreases = bool(np.all(diffs >= 0.0))

    # On sigma1 the discounted margin decays along every closed-loop
    # trajectory, so each U_q is already exact at s = 0 on any grid and a
    # strict increase is impossible there.  The strict clause is checked on a
    # non-normal linear system, whose transient growth along e2 puts the sup
    # at interior times that coarse grids and few disturbances miss.
    lin = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]})
    half = lin.margin  # eta(s) = s/2
    lin_table = bl.build_l_table(lin.system, half, 13, 0.0, SEED)
    lin_base = bl.LyapunovConfig(seed=SEED, Q=13, n_dist=2, time_grid_density=4)
    lin_fine = bl.LyapunovConfig(seed=SEED, Q=13, n_dist=4, time_grid_density=8)
    lin_diffs = np.asarray([
        bl.eval_V(lin.system, half, [0.0, r], lin_fine, lin_table).V
        - bl.eval_V(lin.system, half, [0.0, r], lin_base, lin_table).V
        for r in np.linspace(0.0, 2.0, 9)
    ])
    lin_never_decreases = bool(np.all(lin_diffs >= 0.0))
    strictly_increases = bool(np.any(lin_diffs > 0.0))

    ok = s0_exact and never_decreases and lin_never_decreases and strictly_increases
    report(
        9, ok,
        f"sigma1 diffs [{diffs.min():.2e}, {diffs.max():.2e}],"
        f" s=0 err {s0_err:.1e}, max argmax t {max(argmax_times):.2g};"
        f" linear diffs [{lin_diffs.min():.2e}, {lin_diffs.max():.2e}]",
    )
    assert s0_err <= 1e-12
    assert argmax_times == {0.0}
    assert never_decreases and lin_never_decreases
    assert strictly_increases


def test_criterion_10_blowup_vs_forward_completeness(request):
    q = bl.make("quadratic")
    t_max = bl.integrate(q.system, [1.0], bl.InputSignal.constant([0.0]), 2.0).t_max_estimate
    tmax_ok = 0.95 <= t_max <= 1.05

    rd = bl.make("reaction_diffusion")
    cfg = bl.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 10]))
    no_blowup = True
    for _ in range(3):
        x0 = rng.standard_normal(rd.system.state_dim)
        x0 *= rng.uniform() / np.linalg.norm(x0)
        u = bl.InputSignal.constant([rng.uniform(-1.0, 1.0)])
        traj = bl.integrate(rd.system, x0, u, 1.0, cfg)
        no_blowup = no_blowup and not traj.blew_up

    M_sg, lam_sg = bl.semigroup_growth(rd.system.linear_part, t_cert=1.0)
    L_rhs = rd.system.lipschitz_hint(1.0)
    bound = bl.gronwall_bound(M_sg, lam_sg, L_rhs, 1.0) * 1.1
    probe = bl.probe_lipschitz_tdi(
        rd.system, rd.margin, 1.0, 1.0, 2, seed=SEED, cfg=cfg, n_dist=2
    )
    probe_ok = not probe.diverged and probe.L_estimate <= bound

    elapsed = suite_elapsed(request.config)
    runtime_ok = elapsed < 300.0
    ok = tmax_ok and no_blowup and probe_ok and runtime_ok
    report(
        10, ok,
        f"t_max {t_max:.4f}, rd L {probe.L_estimate:.3f} <= {bound:.3f},"
        f" suite {elapsed:.0f}s",
    )
    assert tmax_ok and no_blowup and probe_ok and runtime_ok


def test_criterion_11_sup_difference_property():
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 11]))
    worst = -math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        v = rng.uniform(-100.0, 100.0, n)
        w = rng.uniform(-100.0, 100.0, n)
        worst = max(worst, (np.max(v) - np.max(w)) - np.max(v - w))
    ok = worst <= 1e-12
    report(11, ok, f"worst slack violation {worst:.2e}")
    assert worst <= 1e-12
