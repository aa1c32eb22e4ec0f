import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import brslab as bl
import brslab.brscheck as brscheck
import brslab.lyapunov as lyapunov
import brslab.sysdyn as sysdyn
from brslab import cli
from brslab.compfun import theta
from brslab.lyapunov import LipschitzTable, _dyadic_grid, radial_table, sandwich_funs
from brslab.tdinput import closed_loop

from conftest import SEED, solver_work


class TestConfig:
    def test_defaults_valid(self):
        cfg = bl.LyapunovConfig()
        assert cfg.Q == 14 and cfg.tail_tol == 1e-3

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            bl.LyapunovConfig(Q=0)

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(ValueError):
            bl.LyapunovConfig(tail_tol=0.0)

    def test_rejects_tail_past_float_range(self):
        with pytest.raises(ValueError, match="^tail_tol must be"):
            bl.LyapunovConfig(tail_tol=10**400)


class TestLipschitzTable:
    def test_levels_derive_theta_and_m(self):
        t = LipschitzTable([0.5, 10.0, 1.0], c=0.5)
        assert t.Q == 3
        assert t.theta == tuple(theta(float(q), q, 0.5) for q in (1, 2, 3))
        assert t.M == (max(0.5, t.theta[0]), 10.0, max(1.0, t.theta[2]))

    def test_missing_entry_requests_probe(self):
        t = LipschitzTable([3.5], c=0.0)
        for q in (0, 2):
            with pytest.raises(ValueError, match=rf"q={q} .*Q=1.*build the table"):
                bl.lyap_M(q, q, t)

    def test_cfg_q_beyond_table_raises_before_integrating(self, sigma1, monkeypatch):
        calls = count_calls(monkeypatch)
        cfg = bl.LyapunovConfig(seed=1)
        short = unit_table(cfg.Q - 1, 0.0)
        with pytest.raises(ValueError, match=rf"q={cfg.Q} .*Q={cfg.Q - 1}"):
            bl.eval_V(sigma1.system, sigma1.margin, [0.8], cfg, short)
        with pytest.raises(ValueError, match=rf"q={cfg.Q} .*Q={cfg.Q - 1}"):
            sandwich_funs(sigma1.margin, short, cfg.Q)
        assert calls == {"ensemble": 0}


class TestLyapM:
    def test_zero_l_gives_theta(self):
        t = LipschitzTable([0.0] * 3, c=0.0)
        assert bl.lyap_M(3, 3, t) == theta(3.0, 3, 0.0) >= 1.0

    def test_derived_base_case(self):
        # theta(1, 1, 0) = 1, so max{0.5, 1} = 1
        t = LipschitzTable([0.5], c=0.0)
        assert bl.lyap_M(1, 1, t) == 1.0

    def test_reads_the_diagonal_only(self):
        with pytest.raises(ValueError, match="R=2.0 and q=3"):
            bl.lyap_M(2.0, 3, unit_table(3, 0.0))


def per_q(sigma1, x, R, cfg, l_table) -> list:
    """U_q estimates, q = 1..Q, as eval_V returns them at ball radius R."""
    lv = bl.eval_V(sigma1.system, sigma1.margin, x, cfg, l_table, R_override=R)
    assert [est.q for est in lv.per_q] == list(range(1, cfg.Q + 1))
    return [est.value for est in lv.per_q]


class TestEstimateUq:
    def test_zero_state_gives_zero(self, sigma1, lyap_cfg, l_table):
        assert per_q(sigma1, [0.0], 1.0, lyap_cfg, l_table)[3 - 1] == 0.0

    def test_dominates_zero_substitution(self, sigma1, lyap_cfg, l_table):
        for r in (0.3, 0.8, 1.7):
            value = per_q(sigma1, [r], max(1.0, r), lyap_cfg, l_table)[2 - 1]
            assert value >= max(0.0, sigma1.margin(r) - 0.5) - 1e-9

    def test_monotone_in_q(self, sigma1, lyap_cfg, l_table):
        uq = per_q(sigma1, [0.9], 1.0, lyap_cfg, l_table)
        vals = [uq[q - 1] for q in (1, 2, 4, 8)]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_doubling_n_dist_never_decreases(self, sigma1, l_table):
        base = bl.LyapunovConfig(seed=1, n_dist=2)
        fine = bl.LyapunovConfig(seed=1, n_dist=4)
        v0 = per_q(sigma1, [0.9], 1.0, base, l_table)
        v1 = per_q(sigma1, [0.9], 1.0, fine, l_table)
        assert all(b >= a for a, b in zip(v0, v1))

    def test_rejects_small_R(self, sigma1, lyap_cfg, l_table):
        with pytest.raises(ValueError, match="R_override"):
            bl.eval_V(sigma1.system, sigma1.margin, [2.0], lyap_cfg, l_table, R_override=1.0)


class TestEvalV:
    def test_equilibrium_value_is_one(self, sigma1, lyap_cfg, l_table):
        lv = bl.eval_V(sigma1.system, sigma1.margin, [0.0], lyap_cfg, l_table)
        assert lv.V == pytest.approx(1.0, abs=1e-12)
        assert lv.W == pytest.approx(math.log(2.0), abs=1e-12)

    def test_v_at_least_one_and_w_consistent(self, sigma1, lyap_cfg, l_table):
        for r in (0.2, 1.0, 1.8):
            lv = bl.eval_V(sigma1.system, sigma1.margin, [r], lyap_cfg, l_table)
            assert lv.V >= 1.0
            assert lv.W == pytest.approx(math.log1p(lv.V), abs=1e-15)

    def test_one_state_or_a_stack(self, sigma1, lyap_cfg, l_table):
        one = bl.eval_V(sigma1.system, sigma1.margin, [0.8], lyap_cfg, l_table)
        stack = bl.eval_V(sigma1.system, sigma1.margin, [[0.8]], lyap_cfg, l_table)
        assert isinstance(one, lyapunov.LyapunovValue) and len(stack) == 1
        assert (stack[0].V, stack[0].per_q) == (one.V, one.per_q)
        # an empty or wrong-width stack failed deep inside the sampler
        for bad in ([[[0.8]]], np.empty((0, 1)), [[0.8, 0.1, 0.2], [0.1, 0.2, 0.3]]):
            with pytest.raises(ValueError, match="stack of states"):
                bl.eval_V(sigma1.system, sigma1.margin, bad, lyap_cfg, l_table)
        with pytest.raises(ValueError, match="^radii must be a non-empty 1-D array"):
            radial_table(sigma1.system, sigma1.margin, [], lyap_cfg, l_table)

    def test_tail_budget_error_names_minimal_q(self, sigma1, l_table):
        cfg = bl.LyapunovConfig(Q=3, seed=1)
        with pytest.raises(bl.TailBudgetError) as exc:
            bl.eval_V(sigma1.system, sigma1.margin, [1.0], cfg, l_table)
        min_q = exc.value.min_Q
        assert 2.0 ** (1 - min_q) * (1.0 + 1.0 + l_table.c) <= cfg.tail_tol

    def test_tail_bound_past_a_norm_of_1e154_is_finite(self, sigma1, lyap_cfg, l_table):
        # ||x||^2 overflows, the bound 2^(1-Q) (1 + ||x|| + c) does not
        with pytest.raises(bl.TailBudgetError) as exc:
            bl.eval_V(sigma1.system, sigma1.margin, [1e300], lyap_cfg, l_table)
        bound = float(re.search(r"tail bound (\S+) >", str(exc.value)).group(1))
        assert bound == pytest.approx(2.0 ** (1 - lyap_cfg.Q) * 1e300, rel=1e-3)
        assert exc.value.min_Q == 1008

    def test_tail_bound_past_the_float_range(self):
        # at Q = 1 the sum 1 + ||x|| + c passes the float range and ||x||
        # itself does, on 100 entries by a factor of 5: the bound is inf,
        # its least Q finite, nothing warns
        cfg = bl.LyapunovConfig(Q=1)
        for x, c, min_q in [([[1e308]], 1e308, 1036), ([[1.5e308, 1.5e308]], 0.0, 1036),
                            ([[1e308] * 40], 1e308, 1037), ([[1e308] * 100], 0.0, 1038)]:
            with pytest.raises(bl.TailBudgetError, match="tail bound inf") as exc:
                lyapunov._check_tail_budget(np.array(x), c, cfg)
            assert exc.value.min_Q == min_q
        cfg = bl.LyapunovConfig(Q=1, tail_tol=7.0)
        norms, tails = lyapunov._check_tail_budget(np.array([[3.0, 4.0]]), 1.0, cfg)
        assert norms.tolist() == [5.0] and tails == [7.0]

    def test_lower_bound_by_alpha1_series(self, sigma1, lyap_cfg, l_table):
        r = 1.5
        lv = bl.eval_V(sigma1.system, sigma1.margin, [r], lyap_cfg, l_table)
        eta_r = sigma1.margin(r)
        series = sum(
            2.0 ** (-q) * max(0.0, eta_r - 1.0 / q) / (1.0 + bl.lyap_M(q, q, l_table))
            for q in range(1, lyap_cfg.Q + 1)
        )
        assert lv.V >= 1.0 + series - 1e-9

    def test_not_rfc_error_on_blowup(self, l_table):
        q = bl.make("quadratic")
        margin = bl.GrowthMargin(
            bl.ScalarFun(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0,
                         frozenset({"Kinf", "Lip1"}))
        )
        cfg = bl.LyapunovConfig(seed=1, n_dist=1)
        with pytest.raises(bl.NotRfcTdiError):
            bl.eval_V(q.system, margin, [2.0], cfg, l_table)

    def test_scale_step_estimate(self, sigma1, lyap_cfg, l_table):
        # V(phi(t,x,u)) <= e^t V(x) within 10 percent for admissible small steps
        x = np.array([0.8])
        u = bl.InputSignal.constant([0.5 * sigma1.margin(0.8)])
        v0 = bl.eval_V(sigma1.system, sigma1.margin, x, lyap_cfg, l_table).V
        for t in (1e-3, 1e-2):
            traj = bl.integrate(sigma1.system, x, u, t)
            vt = bl.eval_V(sigma1.system, sigma1.margin, traj.states[-1], lyap_cfg, l_table).V
            assert vt <= math.exp(t) * v0 * 1.1


def per_trajectory_uq(ex_sys, margin, x, cfg, c):
    """(value, argmax) per q from one integrate per disturbance, scanned in
    family order with the earliest grid time winning ties."""
    R = max(float(np.linalg.norm(x)), 1.0)
    thetas = [theta(R, q, c) for q in range(1, cfg.Q + 1)]
    cl = closed_loop(ex_sys, margin)
    dists = bl.disturbance_family(ex_sys.input_dim, thetas[-1], cfg.n_dist, cfg.seed)
    trajs = [bl.integrate(cl, x, d, thetas[-1], lyapunov._V_CFG) for d in dists]
    out = []
    for q, th in zip(range(1, cfg.Q + 1), thetas):
        grid = _dyadic_grid(th, cfg.time_grid_density)
        best, arg = -math.inf, None
        for i, traj in enumerate(trajs):
            norms = np.linalg.norm(traj.state_at(grid), axis=1)
            gq = np.maximum(0.0, np.exp(-grid) * margin(norms) - 1.0 / q)
            j = int(np.argmax(gq))
            if gq[j] > best:
                best, arg = float(gq[j]), (i, float(grid[j]))
        out.append((best, arg))
    return out


def unit_table(Q, c):
    return LipschitzTable([1.0] * Q, c)


class TestEnsembleEstimates:
    def assert_matches_reference(self, ex_sys, margin, x, cfg, c):
        lv = bl.eval_V(ex_sys, margin, x, cfg, unit_table(cfg.Q, c))
        ref = per_trajectory_uq(ex_sys, margin, x, cfg, c)
        for est, (value, arg) in zip(lv.per_q, ref):
            assert est.argmax == arg, est.q
            assert est.value == pytest.approx(value, rel=1e-6, abs=1e-12), est.q

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 1.7, -2.0])
    def test_sigma1(self, sigma1, r):
        cfg = bl.LyapunovConfig(seed=1)
        self.assert_matches_reference(sigma1.system, sigma1.margin, [r], cfg, 0.0)

    @pytest.mark.parametrize("n_dist, density", [(2, 4), (4, 8)])
    @pytest.mark.parametrize("r", [0.25, 1.0, 2.0])
    def test_non_normal_linear_witness(self, n_dist, density, r):
        lin = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]})
        cfg = bl.LyapunovConfig(seed=20240811, Q=13, n_dist=n_dist, time_grid_density=density)
        self.assert_matches_reference(lin.system, lin.margin, [0.0, r], cfg, 0.0)

    def test_one_ensemble_and_no_integrate_per_call(self, sigma1, monkeypatch):
        calls = count_calls(monkeypatch)
        bl.eval_V(sigma1.system, sigma1.margin, [0.8], bl.LyapunovConfig(seed=1),
                  unit_table(14, 0.0))
        assert calls == {"ensemble": 1}
        bl.probe_lipschitz_tdi(sigma1.system, sigma1.margin, 0.5, 1.0, 2, seed=3)
        bl.probe_lipschitz_openloop(sigma1.system, 0.5, 1.0, 2, seed=3)
        assert calls == {"ensemble": 3}


class TestGrowingLinear:
    """x' = x + u under linear's margin eta(s) = s/2: the closed loop grows
    like e^{1.5 t}, so the probe and the sups have something to find."""

    def test_l_table_is_the_growth_rate(self, growing):
        # d = +1 on two states of one sign scales their gap by e^{1.5 t}
        _, table = growing
        expect = [lyapunov.L_INFLATION * math.exp(1.5 * th) for th in table.theta]
        assert table.L == pytest.approx(expect, rel=1e-6)

    def test_sups_sit_past_time_zero(self, growing):
        lin, table = growing
        values = bl.eval_V(lin.system, lin.margin, [[0.5], [1.0], [2.0]],
                           bl.LyapunovConfig(seed=SEED), table)
        for r, lv in zip([0.5, 1.0, 2.0], values):
            s0 = 1.0 + sum(2.0 ** -q * bl.gk_eval(q, lin.margin(r)) / (1.0 + m)
                           for q, m in enumerate(table.M, start=1))
            assert lv.V > s0
            positive = [est for est in lv.per_q if est.value > 0]
            assert positive and all(est.argmax[1] > 0 for est in positive)
        assert values[-1].V == pytest.approx(1.094633, abs=1e-6)


def count_calls(monkeypatch) -> dict:
    """Counts of sampler calls made from lyapunov and brscheck; neither names
    `integrate` (test_sysdyn.py's guard), so the sampler is all they run."""
    calls = {"ensemble": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls["ensemble"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (lyapunov, brscheck):
        monkeypatch.setattr(mod, "_sample_ensemble", counting(mod._sample_ensemble))
    return calls


class TestOneSamplerCallPerStage:
    def test_build_l_table(self, sigma1, monkeypatch):
        calls = count_calls(monkeypatch)
        table = bl.build_l_table(sigma1.system, sigma1.margin, 14, 0.0, 3)
        assert calls == {"ensemble": 1}
        assert table.Q == 14

    def test_build_l_table_matches_one_probe_per_level(self, sigma1):
        # a ragged ensemble runs each level to its own Theta(q, q) at the
        # tolerance divided by sqrt of all levels' rows, so the constants
        # agree to integrator accuracy, not bit for bit
        table = bl.build_l_table(sigma1.system, sigma1.margin, 4, 0.5, 3)
        for q in range(1, 5):
            tau = theta(float(q), q, 0.5)
            rep = bl.probe_lipschitz_tdi(sigma1.system, sigma1.margin, tau, float(q), 2, 3,
                                         n_dist=3)
            assert table.theta[q - 1] == tau
            assert table.L[q - 1] == pytest.approx(1.1 * rep.max_ratio, rel=1e-8)

    def test_radial_table(self, sigma1, monkeypatch):
        calls = count_calls(monkeypatch)
        table = bl.radial_table(sigma1.system, sigma1.margin, [0.0, 0.5, 1.0, 1.5, 2.0],
                                bl.LyapunovConfig(seed=1), unit_table(14, 0.0))
        assert calls == {"ensemble": 1}
        assert table["V"].shape == (5,)

    def test_verify_growth(self, sigma1, monkeypatch):
        calls = count_calls(monkeypatch)
        u = 0.4 * sigma1.margin(0.8)
        rep = bl.verify_growth(sigma1.system, sigma1.margin, [0.8], [u],
                               bl.LyapunovConfig(seed=1), unit_table(14, 0.0))
        assert calls == {"ensemble": 2}  # the Dini window, then V on it
        assert not rep.vacuous and len(rep.per_h_V) == 2

    @pytest.mark.parametrize("name, params, offset", [
        ("sigma1", None, 0.0),
        # the non-normal witness needs the third offset, the growing one none
        ("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]}, 2.0),
        ("linear", {"A": [[1.0]], "B": [[1.0]]}, None),
    ])
    def test_find_rfc_offset(self, name, params, offset, monkeypatch):
        ex = bl.make(name, params)
        calls = count_calls(monkeypatch)
        args = (ex.system, ex.margin, ex.margin.eta, 2.0, 3.0, 12, 42)
        if offset is None:
            with pytest.raises(bl.NotRfcTdiError, match="every offset"):
                bl.find_rfc_offset(*args)
        else:
            assert bl.find_rfc_offset(*args) == offset
        assert calls == {"ensemble": 1}

    def test_readme_build_and_verify(self, tmp_path, monkeypatch):
        # build: l_table and radial table; verify: every growth pair's Dini
        # window, then V on all of them
        from brslab.cli import main

        cfg = {"system": {"name": "sigma1"}, "seed": 42, "c": 0.0,
               "radii": [0.0, 0.5, 1.0, 1.5, 2.0], "growth_pairs": 5,
               "lyapunov": {"Q": 14, "n_dist": 6, "time_grid_density": 16}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        calls = count_calls(monkeypatch)
        for cmd in ("build", "verify"):
            assert main(["lyapunov", cmd, "--config", str(path), "--out", str(tmp_path)]) == 0
        # verify reads the Lipschitz and radial tables that build wrote
        assert calls == {"ensemble": 4}

    @pytest.mark.parametrize("pairs", [1, 5, 20])
    def test_verify_stage_is_two_calls_for_any_pair_count(self, pairs, tmp_path, monkeypatch):
        from brslab.cli import main

        cfg = {"system": {"name": "sigma1"}, "seed": 42, "c": 0.0, "radii": [0.0, 1.0],
               "growth_pairs": pairs,
               "lyapunov": {"Q": 12, "n_dist": 2, "time_grid_density": 4, "tail_tol": 5e-3}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["--config", str(path), "--out", str(tmp_path)]
        assert main(["lyapunov", "build", *argv]) == 0
        calls = count_calls(monkeypatch)
        assert main(["lyapunov", "verify", *argv]) == 0
        assert calls == {"ensemble": 2}  # the Dini windows, then V on them
        reports = json.loads((tmp_path / "lyapunov_verify.json").read_text())["growth_reports"]
        assert len(reports) == pairs

    @pytest.mark.parametrize("R", [None, 2.5])
    @pytest.mark.parametrize(
        "system, X",
        [("sigma1", [[0.0], [0.3], [1.0], [1.7], [-2.0]]),
         ("non_normal", [[0.0, 0.25], [0.0, 1.0], [0.0, 2.0], [0.5, -1.0]])],
    )
    def test_batched_values_match_one_state_loop(self, sigma1, system, X, R):
        if system == "sigma1":
            ex_sys, margin, cfg = sigma1.system, sigma1.margin, bl.LyapunovConfig(seed=1)
        else:  # the criterion-9 witness, whose sups sit at interior times
            lin = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]})
            ex_sys, margin = lin.system, lin.margin
            cfg = bl.LyapunovConfig(seed=20240811, Q=13, n_dist=4, time_grid_density=8)
        table = unit_table(cfg.Q, 0.0)
        batched = bl.eval_V(ex_sys, margin, np.array(X), cfg, table, R)
        assert isinstance(batched, list) and len(batched) == len(X)
        for x, lv in zip(X, batched):
            one = bl.eval_V(ex_sys, margin, x, cfg, table, R)
            assert lv.V == pytest.approx(one.V, rel=1e-6)
            assert lv.tail_bound == one.tail_bound
            for est, ref in zip(lv.per_q, one.per_q):
                assert (est.q, est.R, est.theta_Rq) == (ref.q, ref.R, ref.theta_Rq)
                assert est.value == pytest.approx(ref.value, rel=1e-6, abs=1e-12), est.q
                assert est.argmax == ref.argmax, est.q

    def test_blowup_names_the_radius(self):
        quad = bl.make("quadratic")
        margin = bl.GrowthMargin(
            bl.ScalarFun(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0,
                         frozenset({"Kinf", "Lip1"}))
        )
        cfg = bl.LyapunovConfig(seed=1, n_dist=1)
        # x' = x^2 from 2 crosses first, at t = 0.5; from 0.5 only at t = 2
        with pytest.raises(bl.NotRfcTdiError, match=r"\|\|x\|\|=2 blew up at t=0\.5"):
            bl.radial_table(quad.system, margin, [0.0, 0.5, 2.0], cfg, unit_table(14, 0.0))

    def test_blowup_names_the_level(self):
        quad = bl.make("quadratic").system
        fit = bl.fit_additive_bound(bl.sample_reach(quad, 0.1, 2.0, 6, 3))
        margin = bl.GrowthMargin(bl.eta_from_chis(fit.chi1, fit.chi2, fit.chi3))
        with pytest.raises(bl.NotRfcTdiError, match=r"level q=3 \(tau=2\.868"):
            bl.build_l_table(quad, margin, 3, 0.0, 3)


class TestSandwichFuns:
    def test_alpha1_zero_at_zero(self, sigma1, l_table):
        a1, _, _ = sandwich_funs(sigma1.margin, l_table, 14)
        assert a1(0.0) == 0.0
        s = np.linspace(0, 6, 100)
        assert np.all(np.diff(a1(s)) >= -1e-15)

    def test_alpha2_kinf_with_offset(self, sigma1, l_table):
        _, a2, C = sandwich_funs(sigma1.margin, l_table, 14)
        assert "Kinf" in a2.tags
        assert a2(0.0) == 0.0
        assert C == 2.0 + l_table.c

    def test_alpha2_dominates_floor_expression(self, sigma1, l_table):
        _, a2, _ = sandwich_funs(sigma1.margin, l_table, 14)
        m_qq = {q: bl.lyap_M(q, q, l_table) for q in range(1, 15)}
        for s in np.linspace(0.01, 8.0, 80):
            g = s + sum(
                2.0 ** (-q) * theta(s, q, l_table.c) / (1.0 + m_qq[q])
                for q in range(1, min(int(math.floor(s)), 14) + 1)
            )
            assert a2(s) >= g - 1e-12

    def test_sandwich_holds_where_alpha1_binds(self, sigma1):
        # at r <= 2 alpha1 stays under 0.1 while V >= 1, so the lower side
        # cannot bind; it passes 1 near r = 6, and Q = 16 keeps r = 8 within
        # the default tail budget
        table = radial_table(sigma1.system, sigma1.margin, [5.0, 6.0, 7.0, 8.0],
                             bl.LyapunovConfig(Q=16, seed=SEED),
                             bl.build_l_table(sigma1.system, sigma1.margin, 16, 0.0, SEED))
        assert np.all(table["alpha1"] <= table["V"])
        assert np.all(table["V"] <= table["alpha2_plus_C"])
        assert table["alpha1"][-1] >= 1.0


class TestVerifyGrowth:
    def test_vacuous_pair_marked(self, sigma1, lyap_cfg, l_table):
        rep = bl.verify_growth(sigma1.system, sigma1.margin, [0.1], [5.0], lyap_cfg, l_table)
        assert rep.vacuous

    def test_one_pair_returns_one_report(self, sigma1):
        rep = bl.verify_growth(sigma1.system, sigma1.margin, [0.8], [0.1],
                               bl.LyapunovConfig(seed=1), unit_table(14, 0.0))
        assert isinstance(rep, lyapunov.GrowthReport) and not rep.vacuous

    @pytest.mark.parametrize("x, u", [
        ([[0.8], [0.5]], [[0.1]]),  # two states, one input
        ([0.8], [[0.1]]),  # one state, a stack of one input
        ([[0.8]], [0.1]),
    ])
    def test_pair_count_mismatch(self, sigma1, x, u, monkeypatch):
        calls = count_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"^x and u_value must hold as many pairs"):
            bl.verify_growth(sigma1.system, sigma1.margin, x, u, bl.LyapunovConfig(seed=1),
                             unit_table(14, 0.0))
        assert calls == {"ensemble": 0}

    @pytest.mark.parametrize("x, u", [
        # each returned a vacuous report: the premise reads only the norms
        ([[0.01, 0.01, 0.01]], [[1.0]]),
        ([[0.01]], [[1.0, 2.0]]),
        ([0.01, 0.01], [1.0]),
    ])
    def test_wrong_width_is_rejected_up_front(self, sigma1, x, u, monkeypatch):
        calls = count_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"^x and u_value must have widths 1 and 1"):
            bl.verify_growth(sigma1.system, sigma1.margin, x, u, bl.LyapunovConfig(seed=1),
                             unit_table(14, 0.0))
        assert calls == {"ensemble": 0}

    def test_vacuous_pairs_make_no_rows(self, sigma1, monkeypatch):
        windows = []
        sample = lyapunov._sample_ensemble

        def spy(sys, X0, inputs, groups, cfg):
            if sys is sigma1.system:  # the open-loop windows, not V's closed loop
                windows.append(np.array(X0))
            return sample(sys, X0, inputs, groups, cfg)

        monkeypatch.setattr(lyapunov, "_sample_ensemble", spy)
        args = (bl.LyapunovConfig(seed=1), unit_table(14, 0.0))
        reps = bl.verify_growth(sigma1.system, sigma1.margin, [[0.1], [0.8], [0.2], [1.5]],
                                [[5.0], [0.1], [5.0], [0.2]], *args)
        assert [rep.vacuous for rep in reps] == [True, False, True, False]
        [X0] = windows
        assert np.array_equal(X0, [[0.8], [1.5]])  # one row per pair in the premise
        for rep in reps[::2]:
            assert math.isnan(rep.V0) and rep.per_h_V == {} and rep.passes_V
        calls = count_calls(monkeypatch)
        reps = bl.verify_growth(sigma1.system, sigma1.margin, [[0.1], [0.2]], [[5.0], [5.0]],
                                *args)
        assert [rep.vacuous for rep in reps] == [True, True]
        assert calls == {"ensemble": 0}

    def test_stack_matches_pair_loop_bit_for_bit(self, sigma1, l_table, lyap_cfg, monkeypatch):
        # sigma1's U_q sups sit at s = 0, and its open-loop windows come out
        # the same in a stack: every quotient is the loop's, bit for bit
        X = [[r] for r, _ in GUARD_PAIRS] + [[0.8]]
        U = [[frac * 0.5 * sigma1.margin(abs(r))] for r, frac in GUARD_PAIRS] + [[0.2]]
        calls = count_calls(monkeypatch)
        stacked = bl.verify_growth(sigma1.system, sigma1.margin, X, U, lyap_cfg, l_table)
        assert calls == {"ensemble": 2}
        for x, u, rep in zip(X, U, stacked):
            one = bl.verify_growth(sigma1.system, sigma1.margin, x, u, lyap_cfg, l_table)
            assert not rep.vacuous
            assert (rep.V0, rep.W0, rep.dini_V, rep.dini_W) == (one.V0, one.W0,
                                                                one.dini_V, one.dini_W)
            assert (rep.per_h_V, rep.per_h_W) == (one.per_h_V, one.per_h_W)
            assert (rep.passes_V, rep.passes_W) == (one.passes_V, one.passes_W)

    def test_stack_matches_pair_loop_on_the_witness(self):
        # the witness's sups sit at interior times, so the shared solves move
        # V by integrator error: measured 7.9e-10 relative on V0 and 3.3e-9
        # absolute on the quotients, held to 1e-8
        lin = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]})
        cfg = bl.LyapunovConfig(seed=20240811, Q=13, n_dist=4, time_grid_density=8)
        table = unit_table(13, 0.0)
        X = [[0.0, 0.25], [0.0, 1.0], [0.0, 2.0], [0.5, -1.0]]
        U = [[0.05, 0.0], [0.0, 0.2], [0.3, -0.1], [0.1, 0.1]]
        stacked = bl.verify_growth(lin.system, lin.margin, X, U, cfg, table)
        for x, u, rep in zip(X, U, stacked):
            one = bl.verify_growth(lin.system, lin.margin, x, u, cfg, table)
            assert not rep.vacuous
            assert rep.V0 == pytest.approx(one.V0, rel=1e-8)
            assert rep.W0 == pytest.approx(one.W0, rel=1e-8)
            for h in lyapunov.DINI_STEPS:
                assert rep.per_h_V[h] == pytest.approx(one.per_h_V[h], abs=1e-8)
                assert rep.per_h_W[h] == pytest.approx(one.per_h_W[h], abs=1e-8)
            assert (rep.passes_V, rep.passes_W) == (one.passes_V, one.passes_W)

    def test_blowup_names_the_pair(self, lyap_cfg):
        # the second pair starts at the blow-up threshold, so it crosses at t = 0
        unit = bl.ScalarFun([0.0, 1.0], [0.0, 1.0], 1.0, frozenset({"Kinf", "Lip1"}))
        with pytest.raises(bl.NotRfcTdiError,
                           match=r"pair 1 from \|\|x\|\|=1e\+09 blew up at t=0 inside the Dini"):
            bl.verify_growth(bl.make("quadratic").system, bl.GrowthMargin(unit),
                             [[0.5], [1e9]], [[0.0], [0.0]], lyap_cfg, unit_table(1, 0.0))

    def test_blowup_inside_the_dini_window(self, lyap_cfg):
        # x' = x^2 from 200 blows up at t = 5e-3, inside the window [0, 1e-2]
        unit = bl.ScalarFun([0.0, 1.0], [0.0, 1.0], 1.0, frozenset({"Kinf", "Lip1"}))
        with pytest.raises(bl.NotRfcTdiError, match="inside the Dini step window"):
            bl.verify_growth(bl.make("quadratic").system, bl.GrowthMargin(unit), [200.0], [0.0],
                             lyap_cfg, unit_table(1, 0.0))

    # The Dini window comes from the sampler; integrate reads the same solve
    # at the same times.  On the witness the sampler adds the linear part as
    # Y @ A.T and integrate as A @ x, which may round apart, so its window is
    # held to 1e-14 relative (measured equal).
    @pytest.mark.parametrize("name, rtol", [("sigma1", 0.0), ("growing", 1e-14)])
    def test_window_matches_integrate(self, name, rtol, sigma1, growing, monkeypatch):
        ex = sigma1 if name == "sigma1" else growing[0]
        x, u = [1.5], [0.4 * ex.margin(1.5)]
        seen = []
        value = lyapunov.eval_V

        def spy(*args, R_override):
            seen.append((args[2], R_override))
            return value(*args, R_override=R_override)

        monkeypatch.setattr(lyapunov, "eval_V", spy)
        bl.verify_growth(ex.system, ex.margin, x, u, bl.LyapunovConfig(seed=1),
                         unit_table(14, 0.0))
        [(states, R)] = seen
        traj = bl.integrate(ex.system, x, bl.InputSignal.constant(u), lyapunov.DINI_STEPS[0],
                            lyapunov._V_CFG)
        window = np.array([traj.state_at(h) for h in lyapunov.DINI_STEPS])
        assert np.array_equal(states[0], x)
        np.testing.assert_allclose(states[1:], window, rtol=rtol, atol=0)  # rtol 0: bit for bit
        # one R per state, the same for the pair's three: it covers x and
        # its window, and nothing more
        assert R.shape == (3,) and np.all(R == max(1.0, *np.linalg.norm(states, axis=1)))
        if name == "growing":
            assert R[0] == np.linalg.norm(states[1]) > 1.5  # x(1e-2), past x

    def test_report_serializes(self, tmp_path):
        # lyapunov_verify.json holds every field of each report, in strict JSON
        from brslab.cli import main

        cfg = {"system": {"name": "sigma1"}, "seed": 42, "c": 0.0, "radii": [0.0, 0.5, 1.0],
               "growth_pairs": 2,
               "lyapunov": {"Q": 10, "n_dist": 2, "time_grid_density": 4, "tail_tol": 5e-3}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["lyapunov", "verify", "--config", str(path), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "lyapunov_verify.json").read_text()
        reports = json.loads(text, parse_constant=_reject_constant)["growth_reports"]
        assert len(reports) == 2
        for obj in reports:
            assert set(obj) == {f.name for f in dataclasses.fields(lyapunov.GrowthReport)}
            assert len(obj["x"]) == 1 and len(obj["u_value"]) == 1
            assert list(obj["per_h_V"]) == list(obj["per_h_W"]) == ["0.001", "0.01"]
            assert obj["passes_V"] and obj["passes_W"] and not obj["vacuous"]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


class TestSupDifference:
    @given(
        arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
        arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
    )
    def test_max_of_difference_dominates(self, v, w):
        n = min(v.size, w.size)
        v, w = v[:n], w[:n]
        assert np.max(v - w) >= np.max(v) - np.max(w) - 1e-12


class TestRadialTable:
    def test_columns_and_export(self, sigma1, lyap_cfg, l_table):
        radii = np.array([0.0, 1.0])
        table = radial_table(sigma1.system, sigma1.margin, radii, lyap_cfg, l_table)
        assert list(table) == list(lyapunov._COLUMNS)
        assert not np.shares_memory(table["norm_x"], radii)
        csv = cli._csv({c: table[c] for c in lyapunov._COLUMNS}).decode()
        assert csv.splitlines()[0] == "norm_x,V,W,tail_bound,alpha1,alpha2_plus_C"


def digest(*values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:32]


# (|x|, fraction of eta(|x|)/2 taken by |u|) of the guarded growth pairs; the
# sign of x alternates, and the premise chi(|u|) <= |x| holds for each
GUARD_PAIRS = ((0.45, 0.3), (-1.2, 0.6), (1.85, 0.9))

# sha256 of the output's float64 bytes, solver starts and summed nfev, on
# sigma1 with the session's l_table and LyapunovConfig: growth_sweep's 21
# radii (126 rows in one ensemble), the l_table itself, and three growth
# pairs (three states on one ball each).  Each ensemble is one solve per
# stretch between the rows' breakpoints and row ends, its grid states read
# from the solver's steps as they are taken.  radial_table and l_table were
# recorded again when the solves stopped restarting at grid times (they
# were 146 and 27 solves, 1,810 and 1,302 evaluations): the table moved by at
# most 2.7e-14 relative and the radial table's alpha2_plus_C by 2e-16.
# l_table was recorded again when the sampler's solves came to go on from
# the solver's own state at a row end, as integrate's do: the table moved by
# at most 1.0e-15 relative, with the same solves and evaluations.
ENSEMBLE_DIGESTS = {
    "radial_table": ("6ee0b4ee2dfee48dfba0bdf2836714a2", 99, 1434),
    "l_table": ("a6960341ee01cbcc0329ff858cb1f700", 14, 1132),
    "verify_growth_0": ("d9680aac51cce92e56cdefb583e587aa", 10, 200),
    "verify_growth_1": ("f4449a619c94c9ff55569c519441778e", 10, 242),
    "verify_growth_2": ("7a3e6edcc5bf9ba0f6d770c3ea50783b", 10, 326),
}


class TestEnsembleDigests:
    @pytest.mark.parametrize("name", sorted(ENSEMBLE_DIGESTS))
    def test_bits_and_work(self, name, sigma1, rfc_offset, l_table, lyap_cfg, monkeypatch):
        work = solver_work(monkeypatch)
        if name == "radial_table":
            table = bl.radial_table(sigma1.system, sigma1.margin, np.linspace(0.0, 2.0, 21),
                                    lyap_cfg, l_table)
            got = digest(*(table[c] for c in lyapunov._COLUMNS))
        elif name == "l_table":
            got = digest(bl.build_l_table(sigma1.system, sigma1.margin, 14, rfc_offset, SEED).L)
        else:
            r, frac = GUARD_PAIRS[int(name[-1])]
            u = frac * 0.5 * sigma1.margin(abs(r))
            rep = bl.verify_growth(sigma1.system, sigma1.margin, [r], [u], lyap_cfg, l_table)
            assert not rep.vacuous
            got = digest(rep.V0, rep.W0, *rep.per_h_V.values(), *rep.per_h_W.values())
        assert (got, len(work["methods"]), work["nfev"]) == ENSEMBLE_DIGESTS[name]


def test_radial_ensemble_starts_one_solver_per_edge(sigma1, l_table, lyap_cfg, monkeypatch):
    # the sampler restarts its solver only at the rows' breakpoints and ends,
    # never at a grid time
    work = solver_work(monkeypatch)
    calls = []
    sample = lyapunov._sample_ensemble

    def spy(sys, X0, inputs, groups, cfg):
        calls.append((inputs, groups))
        return sample(sys, X0, inputs, groups, cfg)

    monkeypatch.setattr(lyapunov, "_sample_ensemble", spy)
    bl.radial_table(sigma1.system, sigma1.margin, np.linspace(0.0, 2.0, 21), lyap_cfg, l_table)
    [(inputs, groups)] = calls
    ends = [grid[-1] for grid, rows in groups for _ in rows]
    edges = sysdyn._segment_edges(np.concatenate([u.breakpoints for u in inputs] + [ends]),
                                  max(ends))
    assert len(inputs) == 126
    assert len(work["methods"]) == edges.size - 1
