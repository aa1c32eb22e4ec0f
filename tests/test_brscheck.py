import json
import math

import numpy as np
import pytest

import brslab as bl
from brslab import brscheck, sysdyn, tdinput
from brslab.brscheck import (
    RATIO_CAP,
    _monotone_envelope,
    _random_in_ball,
    _random_pc_input,
    gronwall_bound,
    sample_reach,
)
from brslab.compfun import inverse, theta


@pytest.fixture(scope="module")
def sigma1_samples(sigma1):
    return sample_reach(sigma1.system, 2.0, 3.0, 30, seed=101)


class TestSampleReach:
    def test_shapes_and_determinism(self, sigma1):
        a = sample_reach(sigma1.system, 1.0, 2.0, 10, seed=5)
        b = sample_reach(sigma1.system, 1.0, 2.0, 10, seed=5)
        assert a.t.shape == a.norm_phi.shape
        assert np.array_equal(a.norm_phi, b.norm_phi)

    def test_blowups_recorded_as_inf(self):
        q = bl.make("quadratic")
        s = sample_reach(q.system, 3.0, 3.0, 20, seed=5)
        assert np.any(~np.isfinite(s.norm_phi))

    def test_rejects_bad_args(self, sigma1):
        with pytest.raises(ValueError):
            sample_reach(sigma1.system, 0.0, 1.0, 3, seed=5)

    # a bool n returned one sample
    @pytest.mark.parametrize("n", [0, -2, True])
    def test_rejects_bad_sizes(self, sigma1, n):
        with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n}"):
            sample_reach(sigma1.system, 1.0, 1.0, n, seed=5)

    # a NaN C or an infinite tau escaped as numpy's OverflowError
    @pytest.mark.parametrize("C, tau, name", [(math.nan, 0.5, "C"), (1.0, math.inf, "tau"),
                                              (1.0, -0.5, "tau")])
    def test_rejects_bad_ball_or_horizon(self, sigma1, C, tau, name):
        with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
            sample_reach(sigma1.system, C, tau, 3, seed=1)


def _per_sample_reach(sys, C, tau, n, seed, grid_points=8):
    """(t, ||x||, ||u||, ||phi||) columns from one `integrate` per draw."""
    cfg = bl.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    rows = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        x0 = _random_in_ball(rng, sys.state_dim, C)
        u = _random_pc_input(rng, sys.input_dim, tau, 0.999 * C)
        traj = bl.integrate(sys, x0, u, tau, cfg)
        for t in np.linspace(0.0, tau, grid_points + 1)[1:]:
            blown = traj.blew_up and t >= traj.t_max_estimate
            phi = math.inf if blown else float(np.linalg.norm(traj.state_at(t)))
            rows.append((t, float(np.linalg.norm(x0)), u.sup_norm(), phi))
    return np.array(rows).T


@pytest.fixture(scope="module")
def quadratic_reach():
    q = bl.make("quadratic").system
    return sample_reach(q, 3.0, 3.0, 20, seed=5), _per_sample_reach(q, 3.0, 3.0, 20, 5)


class TestSampleReachParity:
    """The stacked ensemble against one `integrate` per draw."""

    def test_draws_are_exact(self, sigma1_samples, sigma1):
        t, nx, nu, _ = _per_sample_reach(sigma1.system, 2.0, 3.0, 30, 101)
        assert np.array_equal(sigma1_samples.t, t)
        assert np.array_equal(sigma1_samples.norm_x, nx)
        assert np.array_equal(sigma1_samples.norm_u, nu)

    def test_sigma1_norms_agree(self, sigma1_samples, sigma1):
        phi = _per_sample_reach(sigma1.system, 2.0, 3.0, 30, 101)[3]
        np.testing.assert_allclose(sigma1_samples.norm_phi, phi, rtol=1e-6, atol=0)

    def test_quadratic_blowups_agree(self, quadratic_reach):
        s, (t, nx, nu, phi) = quadratic_reach
        assert np.array_equal(s.norm_x, nx) and np.array_equal(s.norm_u, nu)
        blown = np.isinf(phi).reshape(20, 8).any(axis=1)
        assert 0 < blown.sum() < blown.size  # a mix of blow-ups and bounded draws
        assert np.array_equal(np.isinf(s.norm_phi), np.isinf(phi))
        finite = np.isfinite(phi)
        np.testing.assert_allclose(s.norm_phi[finite], phi[finite], rtol=1e-6, atol=0)


class TestSampleReachWork:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"ensemble": 0, "integrate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        sampler = counted("ensemble", brscheck._sample_ensemble)
        monkeypatch.setattr(brscheck, "_sample_ensemble", sampler)
        for mod in (sysdyn, tdinput):  # brscheck holds no integrate of its own
            monkeypatch.setattr(mod, "integrate", counted("integrate", mod.integrate))
        return counts

    def test_bounded_run_is_one_ensemble(self, sigma1, counts):
        s = sample_reach(sigma1.system, 2.0, 3.0, 30, seed=101)
        assert np.all(np.isfinite(s.norm_phi))
        assert counts == {"ensemble": 1, "integrate": 0}

    def test_crossings_share_one_ensemble(self, counts):
        s = sample_reach(bl.make("quadratic").system, 3.0, 3.0, 20, seed=5)
        k = int(np.isinf(s.norm_phi).reshape(20, 8).any(axis=1).sum())
        assert 0 < k < 20
        assert counts == {"ensemble": 1, "integrate": 0}

    def test_rfc_check_is_one_ensemble(self, sigma1, counts):
        bl.verify_rfc_tdi(sigma1.system, sigma1.margin, sigma1.margin.eta, 0.0, 2.0, 3.0, 8, 101)
        assert counts == {"ensemble": 1, "integrate": 0}


class TestFitAdditiveBound:
    def test_dominates_samples(self, sigma1_samples):
        fit = bl.fit_additive_bound(sigma1_samples)
        assert fit.residual <= 0.0
        bound = fit.bound(sigma1_samples.t, sigma1_samples.norm_x, sigma1_samples.norm_u)
        assert np.all(sigma1_samples.norm_phi <= bound + 1e-12)

    def test_chi_is_class_k(self, sigma1_samples):
        fit = bl.fit_additive_bound(sigma1_samples)
        assert "K" in fit.chi1.tags
        assert fit.chi1(0.0) == 0.0

    def test_rejects_blowups(self):
        q = bl.make("quadratic")
        s = bl.sample_reach(q.system, 3.0, 3.0, 20, seed=5)
        with pytest.raises(bl.NotBrsError):
            bl.fit_additive_bound(s)

    def test_zero_abscissa_row_is_dominated(self):
        # a t = 0 row of a zero state and input sits at abscissa 0, the
        # first bin's left edge, and its knot carries that bin's maximum
        samples = brscheck.ReachSamples(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]), np.zeros(6),
                                        np.zeros(6), np.array([0.5, 1.0, 4.0, 2.0, 3.0, 6.0]))
        assert bl.fit_additive_bound(samples).residual <= 0.0

    @pytest.mark.parametrize("kind", ["random", "zero_abscissa", "ties", "all_equal"])
    def test_monotone_envelope_dominates(self, kind):
        rng = np.random.default_rng(9)
        m = rng.uniform(0, 10, 500)
        if kind == "zero_abscissa":
            m[:3] = 0.0
        elif kind == "ties":  # a tenth of them at 0
            m = np.floor(m)
        elif kind == "all_equal":  # one closed bin, [4, 4]
            m = np.full(500, 4.0)
        y = np.sqrt(m) + rng.uniform(0, 0.5, 500)
        knots, env = _monotone_envelope(m, y)
        f = bl.ScalarFun(knots, env, 0.0) if knots.size >= 2 else None
        assert f is not None
        assert np.all(np.asarray(f(m)) >= y - 1e-12)


class TestRfc:
    def test_sigma1_holds_with_bundled_margin(self, sigma1, rfc_offset):
        report = bl.verify_rfc_tdi(
            sigma1.system, sigma1.margin, sigma1.margin.eta, rfc_offset, 2.0, 3.0, 8, 101
        )
        assert report.holds
        assert report.max_violation <= 1e-9

    def test_offset_sweep_returns_smallest(self, rfc_offset):
        assert rfc_offset == 0.0

    def test_no_offset_is_an_rfc_tdi_falsification(self):
        # x' = x + u under eta(s) = s/2 outgrows kappa^{-1}(t + |x| + c) = 2 (t + |x| + c)
        lin = bl.make("linear", {"A": [[1.0]], "B": [[1.0]]})
        with pytest.raises(bl.NotRfcTdiError, match="every offset"):
            bl.find_rfc_offset(lin.system, lin.margin, lin.margin.eta, 2.0, 3.0, 8, 1)

    def test_offset_search_needs_a_state(self, sigma1):
        eta = sigma1.margin.eta
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            bl.find_rfc_offset(sigma1.system, sigma1.margin, eta, 2.0, 3.0, 0, 1)

    def test_offsets_give_one_report_each(self):
        # the non-normal witness holds from c = 1 on; each report is the
        # number call's, bit for bit
        lin = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]})
        args = (lin.system, lin.margin, lin.margin.eta)
        offsets = np.array(brscheck.RFC_OFFSETS)
        reports = bl.verify_rfc_tdi(*args, offsets, 2.0, 3.0, 12, 5)
        assert [r.c for r in reports] == list(brscheck.RFC_OFFSETS)
        assert [r.holds for r in reports] == [False, True, True, True, True]
        for c, report in zip(offsets.tolist(), reports):
            assert report == bl.verify_rfc_tdi(*args, c, 2.0, 3.0, 12, 5)

    @pytest.mark.parametrize("c", [0, np.int64(1), np.array(2.0), 0.5])
    def test_a_number_offset_is_reported_as_a_float(self, sigma1, c):
        # the array path's rule: an int, a numpy integer and a 0-d array
        # were reported as given
        report = bl.verify_rfc_tdi(sigma1.system, sigma1.margin, sigma1.margin.eta,
                                   c, 2.0, 3.0, 2, 1)
        assert type(report.c) is float and report.c == float(c)

    @pytest.mark.parametrize("c", [np.array([]), np.zeros((2, 1))])
    def test_offsets_must_be_one_dimensional(self, sigma1, c):
        eta = sigma1.margin.eta
        with pytest.raises(ValueError, match="1-D"):
            bl.verify_rfc_tdi(sigma1.system, sigma1.margin, eta, c, 2.0, 3.0, 2, 1)

    def test_requires_kinf_kappa(self, sigma1):
        f = bl.ScalarFun(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            bl.verify_rfc_tdi(sigma1.system, sigma1.margin, f, 0.0, 1.0, 1.0, 2, 1)


class TestFitGeneralization:
    def test_fresh_samples_rarely_violate(self, sigma1):
        fit = bl.fit_additive_bound(sample_reach(sigma1.system, 2.0, 3.0, 120, seed=101))
        fresh = sample_reach(sigma1.system, 2.0, 3.0, 60, seed=102)
        bound = fit.bound(fresh.t, fresh.norm_x, fresh.norm_u)
        excess = fresh.norm_phi - bound
        frac = np.mean(excess > 0)
        assert frac <= 0.01
        if np.any(excess > 0):
            assert np.max(excess / np.maximum(bound, 1e-12)) <= 0.05


class TestMarginPipeline:
    def test_fitted_margin_bounds_tdi_trajectories(self, sigma1):
        # eta built from the reach fit keeps eta(||phi||) <= t + ||x|| + c
        # along every lifted trajectory
        from brslab.compfun import eta_from_chis

        fit = bl.fit_additive_bound(sample_reach(sigma1.system, 2.0, 3.0, 30, seed=101))
        eta = eta_from_chis(fit.chi1, fit.chi2, fit.chi3)
        margin = bl.GrowthMargin(eta)
        for x0 in (0.3, 1.5):
            for d in bl.disturbance_family(sigma1.system.input_dim, 2.0, 3, seed=9):
                _, traj = bl.lift_disturbance(sigma1.system, margin, [x0], d, 2.0)
                lhs = np.asarray(eta(traj.norms()))
                rhs = traj.times + x0 + fit.c
                assert np.all(lhs <= rhs + 1e-9)


def overscaled_kappa_case():
    """x' = u with kappa(s) = 10 s: the inverse bound (t + ||x||)/10 is far
    below the lifted trajectories.  Returns verify_rfc_tdi's arguments."""
    sys_ = bl.SystemDef(1, 1, lambda x, u: u, name="integrator")
    eta = bl.ScalarFun(
        np.array([0.0, 1.0]), np.array([0.0, 0.5]), 0.5, frozenset({"Kinf", "Lip1"})
    )
    kappa10 = bl.ScalarFun(np.array([0.0, 1.0]), np.array([0.0, 10.0]), 10.0,
                           frozenset({"Kinf"}))
    return sys_, bl.GrowthMargin(eta), kappa10, 0.0, 2.0, 2.0, 6, 11


class TestRfcViolationDetection:
    def test_overscaled_kappa_reports_violation(self):
        report = bl.verify_rfc_tdi(*overscaled_kappa_case())
        assert not report.holds
        assert report.max_violation > 0


def per_state_rfc(sys, margin, kappa, c, C, tau, n, seed):
    """(max_violation, worst) of the RFC check from one `integrate` per
    state, read on the check's 65-point grid of [0, tau]."""
    cfg = bl.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    cl = bl.closed_loop(sys, margin)
    dists = bl.disturbance_family(sys.input_dim, tau, max(3, n // 4), seed)
    grid = np.linspace(0.0, tau, 65)
    best, worst = -math.inf, None
    for i in range(n):
        x0 = _random_in_ball(tdinput.seeded_rng(seed, "rfc_states", i), sys.state_dim, C)
        norms = np.linalg.norm(bl.integrate(cl, x0, dists[i % len(dists)], tau, cfg)
                               .state_at(grid), axis=1)
        nx = float(np.linalg.norm(x0))
        viol = norms - np.asarray(inverse(kappa)(grid + nx + c))
        j = int(np.argmax(viol))
        if viol[j] > best:
            best, worst = float(viol[j]), (float(grid[j]), nx, float(norms[j]))
    return best, worst


class TestRfcParity:
    """The RFC check's ensemble against one `integrate` per state."""

    @pytest.mark.parametrize("case", ["sigma1", "overscaled_kappa"])
    def test_agrees_with_per_state_integration(self, sigma1, case):
        if case == "sigma1":
            args = (sigma1.system, sigma1.margin, sigma1.margin.eta, 0.0, 2.0, 3.0, 8, 101)
        else:
            args = overscaled_kappa_case()
        report = bl.verify_rfc_tdi(*args)
        ref_violation, ref_worst = per_state_rfc(*args)
        assert report.max_violation == pytest.approx(ref_violation, rel=1e-6)
        assert report.worst[0] == ref_worst[0]
        assert report.worst[1:] == pytest.approx(ref_worst[1:], rel=1e-6)


class TestProbes:
    def test_contraction_has_unit_ratio(self):
        sys_ = bl.SystemDef(1, 1, lambda x, u: -x, name="contraction")
        rep = bl.probe_lipschitz_openloop(sys_, 1.0, 1.0, 3, seed=3)
        assert rep.max_ratio <= 1 + 1e-6

    def test_zero_system_tdi_ratio_is_one(self):
        sys_ = bl.SystemDef(1, 1, lambda x, u: np.zeros_like(x), name="zero")
        eta = bl.ScalarFun(
            np.array([0.0, 1.0]), np.array([0.0, 0.5]), 0.5, frozenset({"Kinf", "Lip1"})
        )
        rep = bl.probe_lipschitz_tdi(sys_, bl.GrowthMargin(eta), 1.0, 1.0, 2, seed=3)
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_closed_loop_blowup_is_divergence(self, monkeypatch):
        # x' = x^2 with the margin fitted on the small box of the CLI's
        # RFC-TDI falsification case; on the C = 2 ball some rows blow up,
        # which is a divergence with no ratio cap at all
        quad = bl.make("quadratic").system
        fit = bl.fit_additive_bound(bl.sample_reach(quad, 0.1, 2.0, 6, 3))
        margin = bl.GrowthMargin(bl.eta_from_chis(fit.chi1, fit.chi2, fit.chi3))
        tau = theta(2.0, 2, 0.0)
        for cap in (RATIO_CAP, math.inf):
            monkeypatch.setattr(brscheck, "RATIO_CAP", cap)  # read when the probe runs
            rep = bl.probe_lipschitz_tdi(quad, margin, tau, 2.0, 2, 3, n_dist=3)
            assert rep.diverged and rep.L_estimate == math.inf, cap
            assert 0.0 < rep.blowup_time < tau, cap

    def test_openloop_report_serializes(self, sigma1, tmp_path):
        # lipschitz_open.json holds the report's fields, stamped with the config
        from brslab.cli import main

        cfg = {"system": {"name": "sigma1"}, "seed": 3, "horizon": 0.5, "C": 1.0,
               "samples": 2, "u_constant": [1.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["lipschitz", "probe", "--mode", "open", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        obj = json.loads((tmp_path / "lipschitz_open.json").read_text())
        assert set(obj) == {"tau", "C", "pair_count", "max_ratio", "L_estimate", "diverged",
                            "blowup_time", "config_hash", "seed"}
        assert obj["blowup_time"] is None
        rep = bl.probe_lipschitz_openloop(
            sigma1.system, 0.5, 1.0, 2, seed=3,
            u_fixed=bl.InputSignal.constant([1.0]),
        )
        assert obj["max_ratio"] == rep.max_ratio and obj["pair_count"] == rep.pair_count

    def test_tdi_probe_bounded_on_sigma1(self, sigma1):
        rep = bl.probe_lipschitz_tdi(sigma1.system, sigma1.margin, 0.5, 1.0, 2, seed=3)
        assert not rep.diverged
        assert rep.L_estimate == rep.max_ratio

    def test_tdi_levels_give_one_report_each(self, sigma1):
        taus, Cs = np.array([0.5, 0.75]), np.array([1.0, 2.0])
        reps = bl.probe_lipschitz_tdi(sigma1.system, sigma1.margin, taus, Cs, 1, seed=3)
        assert [(r.tau, r.C) for r in reps] == [(0.5, 1.0), (0.75, 2.0)]
        assert all(not r.diverged and r.blowup_time is None for r in reps)
        one = bl.probe_lipschitz_tdi(sigma1.system, sigma1.margin, taus[:1], Cs[:1], 1, seed=3)
        assert isinstance(one, list) and len(one) == 1

    @pytest.mark.parametrize("tau, C", [([0.5, 1.0], [1.0]), (0.5, [1.0]), ([], []),
                                        ([[0.5]], [[1.0]])])
    def test_tdi_levels_must_pair_up(self, sigma1, tau, C):
        with pytest.raises(ValueError, match="tau and C"):
            bl.probe_lipschitz_tdi(sigma1.system, sigma1.margin, tau, C, 1, seed=3)

    def test_rejects_bad_args(self, sigma1):
        with pytest.raises(ValueError):
            bl.probe_lipschitz_openloop(sigma1.system, -1.0, 1.0, 1, seed=0)


class TestGronwall:
    def test_formula(self):
        # M exp((2 M L + lambda) tau)
        assert gronwall_bound(1.0, 0.0, 1.0, math.log(3)) == pytest.approx(9.0)
        assert gronwall_bound(2.0, -1.0, 0.5, 1.0) == pytest.approx(2.0 * math.exp(1.0))

    def test_zero_l_reduces_to_semigroup(self):
        assert gronwall_bound(1.5, 0.3, 0.0, 2.0) == pytest.approx(1.5 * math.exp(0.6))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gronwall_bound(0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gronwall_bound(1.0, 0.0, -1.0, 1.0)
