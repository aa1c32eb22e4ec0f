import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import brslab as bl
import brslab.brscheck as brscheck
import brslab.lyapunov as lyapunov
from brslab.compfun import theta
from brslab.lyapunov import LipschitzTable, _dyadic_grid, sandwich_funs
from brslab.tdinput import closed_loop


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
        assert calls == {"ensemble": 0, "integrate": 0}


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

    def test_tail_budget_error_names_minimal_q(self, sigma1, l_table):
        cfg = bl.LyapunovConfig(Q=3, seed=1)
        with pytest.raises(bl.TailBudgetError) as exc:
            bl.eval_V(sigma1.system, sigma1.margin, [1.0], cfg, l_table)
        min_q = exc.value.min_Q
        assert 2.0 ** (1 - min_q) * (1.0 + 1.0 + l_table.c) <= cfg.tail_tol

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
        half = bl.GrowthMargin(bl.ScalarFun([0.0, 1.0], [0.0, 0.5], 0.5, {"Kinf", "Lip1"}))
        cfg = bl.LyapunovConfig(seed=20240811, Q=13, n_dist=n_dist, time_grid_density=density)
        self.assert_matches_reference(lin.system, half, [0.0, r], cfg, 0.0)

    def test_one_ensemble_and_no_integrate_per_call(self, sigma1, monkeypatch):
        calls = count_calls(monkeypatch)
        bl.eval_V(sigma1.system, sigma1.margin, [0.8], bl.LyapunovConfig(seed=1),
                  unit_table(14, 0.0))
        assert calls == {"ensemble": 1, "integrate": 0}
        bl.probe_lipschitz_tdi(sigma1.system, sigma1.margin, 0.5, 1.0, 2, seed=3)
        bl.probe_lipschitz_openloop(sigma1.system, 0.5, 1.0, 2, seed=3)
        assert calls == {"ensemble": 3, "integrate": 0}


def count_calls(monkeypatch) -> dict:
    """Counts of sampler and integrate calls made from lyapunov and brscheck
    (which holds no integrate of its own)."""
    calls = {"ensemble": 0, "integrate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, attr, name in ((lyapunov, "_sample_ensemble", "ensemble"),
                            (brscheck, "_sample_ensemble", "ensemble"),
                            (lyapunov, "integrate", "integrate")):
        monkeypatch.setattr(mod, attr, counting(name, getattr(mod, attr)))
    return calls


class TestOneSamplerCallPerStage:
    def test_build_l_table(self, sigma1, monkeypatch):
        calls = count_calls(monkeypatch)
        table = bl.build_l_table(sigma1.system, sigma1.margin, 14, 0.0, 3)
        assert calls == {"ensemble": 1, "integrate": 0}
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
        assert calls == {"ensemble": 1, "integrate": 0}
        assert table["V"].shape == (5,)

    def test_verify_growth(self, sigma1, monkeypatch):
        calls = count_calls(monkeypatch)
        u = 0.4 * sigma1.margin(0.8)
        rep = bl.verify_growth(sigma1.system, sigma1.margin, [0.8], [u],
                               bl.LyapunovConfig(seed=1), unit_table(14, 0.0))
        assert calls == {"ensemble": 1, "integrate": 1}
        assert not rep.vacuous and len(rep.per_h_V) == 2

    def test_readme_build_and_verify(self, tmp_path, monkeypatch):
        # build: l_table and radial table; verify: one per growth pair
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
        assert calls == {"ensemble": 7, "integrate": 5}

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
            ex_sys = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]}).system
            margin = bl.GrowthMargin(bl.ScalarFun([0.0, 1.0], [0.0, 0.5], 0.5, {"Kinf", "Lip1"}))
            cfg = bl.LyapunovConfig(seed=20240811, Q=13, n_dist=4, time_grid_density=8)
        table = unit_table(cfg.Q, 0.0)
        batched = lyapunov._eval_Vs(ex_sys, margin, np.array(X), cfg, table, R)
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


class TestVerifyGrowth:
    def test_vacuous_pair_marked(self, sigma1, lyap_cfg, l_table):
        rep = bl.verify_growth(sigma1.system, sigma1.margin, [0.1], [5.0], lyap_cfg, l_table)
        assert rep.vacuous

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
    def test_columns_and_export(self, tmp_path, sigma1, lyap_cfg, l_table):
        from brslab.lyapunov import dump_table, radial_table

        table = radial_table(sigma1.system, sigma1.margin, [0.0, 1.0], lyap_cfg, l_table)
        assert set(table) == {"norm_x", "V", "W", "tail_bound", "alpha1", "alpha2_plus_C"}
        dump_table(table, tmp_path, lyap_cfg, l_table)
        header = (tmp_path / "lyapunov_table.csv").read_text().splitlines()[0]
        assert header == "norm_x,V,W,tail_bound,alpha1,alpha2_plus_C"
        manifest = json.loads((tmp_path / "lyapunov_manifest.json").read_text())
        assert manifest["c"] == l_table.c
        assert manifest["seed"] == lyap_cfg.seed

    def test_load_table_inverts_dump_table(self, tmp_path, sigma1, lyap_cfg, l_table):
        from brslab.lyapunov import dump_table, load_table, radial_table

        rng = np.random.default_rng(3)
        # the fixture's tables, then values that need all 17 significant digits
        cases = [(radial_table(sigma1.system, sigma1.margin, [0.0, 0.3, 1.7], lyap_cfg,
                               l_table), l_table)]
        cases.append(({c: rng.standard_normal(4) * 10.0 ** rng.integers(-300, 300, 4)
                       for c in ("norm_x", "V", "W", "tail_bound", "alpha1", "alpha2_plus_C")},
                      LipschitzTable(tuple(1.0 + rng.random(12) / 3.0), c=math.pi / 7.0)))
        for table, lt in cases:
            dump_table(table, tmp_path, lyap_cfg, lt, {"config_hash": "abc"})
            got, got_lt, manifest = load_table(tmp_path)
            assert (got_lt.L, got_lt.c, got_lt.theta, got_lt.M) == (lt.L, lt.c, lt.theta, lt.M)
            assert set(got) == set(table)
            assert all(np.array_equal(got[c], table[c]) for c in table)
            assert manifest["config_hash"] == "abc"

    def test_load_table_rejects_what_dump_table_does_not_write(self, tmp_path, lyap_cfg):
        from brslab.lyapunov import dump_table, load_table

        table = {c: np.arange(3.0) for c in
                 ("norm_x", "V", "W", "tail_bound", "alpha1", "alpha2_plus_C")}
        dump_table(table, tmp_path, lyap_cfg, LipschitzTable([1.5, 1.2, 1.1]))
        path = tmp_path / "lyapunov_manifest.json"
        manifest = json.loads(path.read_text())
        key = next(k for k in manifest["M_table"] if k.endswith(",1"))  # level 1 missing
        for bad in ({**manifest, "M_table": {k: v for k, v in manifest["M_table"].items()
                                             if k != key}},
                    {**manifest, "c": 0.5}, {**manifest, "M_table": []}, [manifest]):
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError):
                load_table(tmp_path)
        path.write_text(json.dumps(manifest))
        csv = tmp_path / "lyapunov_table.csv"
        for bad in ("", csv.read_text().splitlines()[0], "x\n1,2,3,4,5,6", csv.read_text()[:-9]):
            csv.write_text(bad)
            with pytest.raises(ValueError):
                load_table(tmp_path)
