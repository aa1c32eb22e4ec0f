import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import brslab as bl
from brslab.sysdyn import concat, semigroup_growth


def rotation():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return bl.SystemDef(
        state_dim=2, input_dim=1, rhs=lambda x, u: np.zeros(2), linear_part=A,
        name="rotation",
    )


class TestInputSignal:
    def test_breakpoint_value_belongs_to_new_segment(self):
        u = bl.InputSignal([1.0, 2.0], [[0.0], [1.0]], [2.0])
        assert u.eval(0.0) == pytest.approx(0.0)
        assert u.eval(1.0) == pytest.approx(1.0)
        assert u.eval(2.0) == pytest.approx(2.0)
        assert u.eval(5.0) == pytest.approx(2.0)

    def test_rejects_negative_time(self):
        u = bl.InputSignal.constant([1.0])
        with pytest.raises(ValueError):
            u.eval(-0.1)

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            bl.InputSignal([2.0, 1.0], [[0.0], [1.0]], [2.0])

    def test_sup_norm(self):
        u = bl.InputSignal([1.0], [[3.0, 4.0]], [0.0, 1.0])
        assert u.sup_norm(0.5) == pytest.approx(5.0)
        assert u.sup_norm() == pytest.approx(5.0)

    def test_shift(self):
        u = bl.InputSignal([1.0, 2.0], [[0.0], [1.0]], [2.0])
        v = u.shift(1.5)
        for s in [0.0, 0.2, 0.6, 3.0]:
            assert v.eval(s) == pytest.approx(u.eval(s + 1.5))

    def test_concat_splice(self):
        u1 = bl.InputSignal.constant([1.0])
        u2 = bl.InputSignal([0.5], [[5.0]], [7.0])
        w = concat(u1, u2, 2.0)
        assert w.eval(1.9) == pytest.approx(1.0)
        assert w.eval(2.0) == pytest.approx(5.0)
        assert w.eval(2.6) == pytest.approx(7.0)
        assert w.eval(0.0) == pytest.approx(1.0)

    def test_concat_at_zero_is_second_signal(self):
        u1 = bl.InputSignal.constant([1.0])
        u2 = bl.InputSignal([0.5], [[5.0]], [7.0])
        w = concat(u1, u2, 0.0)
        assert w.eval(0.0) == pytest.approx(5.0)


class TestIntegrate:
    def test_matches_matrix_exponential(self):
        # oracle: closed-form rotation flow
        sys_ = rotation()
        x0 = np.array([1.0, 0.5])
        traj = bl.integrate(sys_, x0, bl.InputSignal.constant([0.0]), 2.0)
        expect = expm(sys_.linear_part * 2.0) @ x0
        assert np.allclose(traj.states[-1], expect, atol=1e-7)

    def test_dense_grid_output(self):
        grid = np.linspace(0, 1, 11)
        traj = bl.integrate(rotation(), [1.0, 0.0], bl.InputSignal.constant([0.0]), 1.0)
        states = traj.state_at(grid)
        assert states.shape == (11, 2)
        assert np.array_equal(states[0], [1.0, 0.0])

    def test_interpolant_matches_states(self):
        traj = bl.integrate(rotation(), [1.0, 0.0], bl.InputSignal.constant([0.0]), 2.0)
        for t, x in zip(traj.times, traj.states):
            assert np.allclose(traj.state_at(t), x, atol=1e-9)

    def test_input_breakpoints_are_restart_points(self):
        sys_ = bl.SystemDef(1, 1, lambda x, u: u, name="integrator")
        u = bl.InputSignal([1.0], [[1.0]], [-1.0])
        traj = bl.integrate(sys_, [0.0], u, 2.0)
        assert traj.states[-1][0] == pytest.approx(0.0, abs=1e-9)

    def test_cocycle_property(self):
        b = bl.make("sigma1")
        u = bl.InputSignal([0.7], [[1.0]], [0.3])
        t, s = 0.5, 0.9
        full = bl.integrate(b.system, [0.6], u, t + s)
        first = bl.integrate(b.system, [0.6], u, t)
        second = bl.integrate(b.system, first.states[-1], u.shift(t), s)
        assert np.allclose(full.state_at(t + s), second.states[-1], atol=1e-8)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            bl.integrate(rotation(), [1.0, 0.0], bl.InputSignal.constant([0.0]), 0.0)


    @pytest.mark.parametrize("x0", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]])
    def test_rejects_wrong_state_shape(self, x0):
        with pytest.raises(ValueError, match="x0 has shape"):
            bl.integrate(rotation(), x0, bl.InputSignal.constant([0.0]), 1.0)

    def test_rejects_wrong_input_dim(self):
        with pytest.raises(ValueError, match="input has dimension 2"):
            bl.integrate(rotation(), [1.0, 0.0], bl.InputSignal.constant([0.0, 0.0]), 1.0)

    def test_accepts_any_signal_with_eval_and_breakpoints(self):
        class Ramp:  # no `dim`: only eval and breakpoints are required
            breakpoints = np.array([])

            def eval(self, t):
                return np.array([t])

        traj = bl.integrate(rotation(), [1.0, 0.0], Ramp(), 1.0)
        assert traj.states.shape[1] == 2 and not traj.blew_up


class TestBlowup:
    def test_quadratic_tmax(self):
        q = bl.make("quadratic")
        u0 = bl.InputSignal.constant([0.0])
        t_max = bl.integrate(q.system, [2.0], u0, 2.0).t_max_estimate
        assert t_max == pytest.approx(0.5, rel=0.05)

    def test_no_blowup_reports_inf(self):
        u0 = bl.InputSignal.constant([0.0])
        t_max = bl.integrate(rotation(), [1.0, 0.0], u0, 1.0).t_max_estimate
        assert math.isinf(t_max)

    def test_trajectory_flags(self):
        q = bl.make("quadratic")
        traj = bl.integrate(q.system, [2.0], bl.InputSignal.constant([0.0]), 2.0)
        assert traj.blew_up
        assert traj.times[-1] <= 0.51

    def test_last_step_ends_at_blowup(self):
        # the terminal event ends the solver's last step at the crossing time
        q = bl.make("quadratic")
        cfg = bl.IntegratorConfig()
        traj = bl.integrate(q.system, [2.0], bl.InputSignal.constant([0.0]), 2.0, cfg)
        assert traj.times[-1] == traj.t_max_estimate
        # the root is found in t to a few ulp, where |x'| = x^2 is about 1e18
        assert np.linalg.norm(traj.states[-1]) == pytest.approx(cfg.blowup_threshold, rel=1e-6)


class TestTrajectoryExport:
    def test_csv_and_sidecar(self, tmp_path):
        traj = bl.integrate(rotation(), [1.0, 0.0], bl.InputSignal.constant([0.0]), 1.0)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x0,x1"
        sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
        assert sidecar == {"t_max": None, "blew_up": False}


class TestSemigroupGrowth:
    def test_stable_diagonal(self):
        M, lam = semigroup_growth(-np.eye(3))
        assert lam == pytest.approx(-1.0)
        assert M == pytest.approx(1.0, abs=1e-6)

    def test_bound_holds_on_grid(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        M, lam = semigroup_growth(A, t_cert=5.0)
        for t in np.linspace(0.01, 5.0, 20):
            assert np.linalg.norm(expm(A * t), 2) <= M * math.exp(lam * t) * (1 + 1e-6)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            semigroup_growth(np.ones((2, 3)))
