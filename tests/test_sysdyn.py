import ast
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy.linalg import expm

import brslab as bl
from brslab import sysdyn
from brslab.sysdyn import _sample_ensemble, semigroup_growth
from brslab.tdinput import closed_loop
from conftest import solver_work
from test_rk45 import same


def rotation():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return bl.SystemDef(
        state_dim=2, input_dim=1, rhs=lambda x, u: np.zeros(2), linear_part=A,
        name="rotation",
    )


class TestInputSignal:
    def test_breakpoint_value_belongs_to_new_segment(self):
        u = bl.InputSignal([1.0, 2.0], [[0.0], [1.0], [2.0]])
        assert u.eval(0.0) == pytest.approx(0.0)
        assert u.eval(1.0) == pytest.approx(1.0)
        assert u.eval(2.0) == pytest.approx(2.0)
        assert u.eval(5.0) == pytest.approx(2.0)

    def test_rejects_negative_time(self):
        u = bl.InputSignal.constant([1.0])
        with pytest.raises(ValueError):
            u.eval(-0.1)

    def test_rejects_nan_time_as_a_feedback_signal_does(self):
        # a NaN time read the last segment's value
        u = bl.InputSignal([0.5], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="t >= 0"):
            u.eval(math.nan)
        sigma1 = bl.make("sigma1")
        d = bl.DisturbanceSignal([0.5], [[1.0], [-1.0]])
        fb, _ = bl.lift_disturbance(sigma1.system, sigma1.margin, [0.5], d, 1.0)
        with pytest.raises(ValueError):
            fb.eval(math.nan)

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            bl.InputSignal([2.0, 1.0], [[0.0], [1.0], [2.0]])

    @pytest.mark.parametrize("breakpoints, values", [
        # built with dim 1 when the last row was passed apart: sup_norm and
        # the sampler raised numpy's shape error, and integrate blamed the
        # system's rhs
        ([0.5], [[1.0, 2.0], [0.3]]),
        ([0.5], [[1.0], [0.3, 0.1]]),
        ([0.5, 1.0], [[1.0], [0.3]]),
        ([], [[1.0], [0.3]]),  # a row with no breakpoint before it went unread
    ])
    def test_segment_values_are_one_row_per_breakpoint_as_wide_as_the_tail(
            self, breakpoints, values):
        with pytest.raises(ValueError, match=r"^values must "):
            bl.InputSignal(breakpoints, values)

    @pytest.mark.parametrize("name, breakpoints, values", [
        # each built when the last row was passed apart, and failed later
        ("breakpoints", [[0.5]], [[1.0], [0.0]]),
        ("values", [], [[[0.3, 0.1]]]),
        ("values", [0.5], [[1.0]]),
        ("values", [], np.zeros((1, 0))),
    ], ids=["breakpoints_2d", "values_3d", "too_few_rows", "zero_width"])
    def test_a_table_of_another_shape_names_its_argument(self, name, breakpoints, values):
        with pytest.raises(ValueError, match=rf"^{name} must "):
            bl.InputSignal(breakpoints, values)

    def test_sup_norm(self):
        u = bl.InputSignal([1.0], [[3.0, 4.0], [0.0, 1.0]])
        assert u.sup_norm() == pytest.approx(5.0)
        tail = bl.InputSignal([1.0], [[0.0, 1.0], [3.0, 4.0]])
        assert tail.sup_norm() == pytest.approx(5.0)

    def test_sup_norm_past_the_float_squares(self):
        # the square of the value's norm overflows, the norm does not
        u = bl.InputSignal.constant([1e300, 1e300])
        assert u.sup_norm() == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)


class TestNorms:
    def test_bits_of_numpy_where_the_square_is_finite(self):
        rng = np.random.default_rng(5)
        for shape in [(7,), (1, 7), (9, 3), (4, 5, 6)]:
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape)
            ref = np.linalg.norm(x) if x.ndim == 1 else np.linalg.norm(x, axis=-1)
            assert np.array_equal(sysdyn._norms(x), ref), shape

    def test_a_norm_whose_square_overflows_is_read_scaled(self):
        x = np.array([[3e200, 4e200], [3.0, 4.0], [1.5e308, 1.5e308], [np.inf, 0.0], [np.nan, 1e300]])
        got = sysdyn._norms(x)
        assert got[0] == pytest.approx(5e200, rel=1e-15) and got[1] == 5.0
        # past the float range the norm itself is inf, as it is for an inf entry
        assert got[2] == got[3] == np.inf and np.isnan(got[4])
        assert sysdyn._norms(x[0]) == pytest.approx(5e200, rel=1e-15)
        assert np.array_equal(sysdyn._norms(x[None, :2]), got[None, :2])


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
        u = bl.InputSignal([1.0], [[1.0], [-1.0]])
        traj = bl.integrate(sys_, [0.0], u, 2.0)
        assert traj.states[-1][0] == pytest.approx(0.0, abs=1e-9)

    def test_cocycle_property(self):
        b = bl.make("sigma1")
        u = bl.InputSignal([0.7], [[1.0], [0.3]])
        t, s = 0.5, 0.9
        full = bl.integrate(b.system, [0.6], u, t + s)
        first = bl.integrate(b.system, [0.6], u, t)
        shifted = bl.InputSignal([0.2], [[1.0], [0.3]])  # s -> u(s + t)
        second = bl.integrate(b.system, first.states[-1], shifted, s)
        assert np.allclose(full.state_at(t + s), second.states[-1], atol=1e-8)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            bl.integrate(rotation(), [1.0, 0.0], bl.InputSignal.constant([0.0]), 0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, tau):
        # the solver never reaches such an end time, so this used to hang
        with pytest.raises(ValueError, match="tau must be a finite number"):
            bl.integrate(bl.make("sigma1").system, [0.5], bl.InputSignal.constant([0.0]), tau)


    @pytest.mark.parametrize("x0", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]])
    def test_rejects_wrong_state_shape(self, x0):
        with pytest.raises(ValueError, match="x0 has shape"):
            bl.integrate(rotation(), x0, bl.InputSignal.constant([0.0]), 1.0)

    def test_rejects_wrong_input_dim(self):
        with pytest.raises(ValueError, match="input has dimension 2"):
            bl.integrate(rotation(), [1.0, 0.0], bl.InputSignal.constant([0.0, 0.0]), 1.0)

    def test_accepts_any_signal_with_eval_and_breakpoints(self):
        class Ramp:  # dim, eval and breakpoints are all that is required
            breakpoints = np.array([])
            dim = 1

            def eval(self, t):
                return np.array([t])

        traj = bl.integrate(rotation(), [1.0, 0.0], Ramp(), 1.0)
        assert traj.states.shape[1] == 2 and not traj.blew_up

    def test_rejects_a_duck_typed_input_of_the_wrong_dim(self):
        class Pair:
            breakpoints = np.array([])
            dim = 2

            def eval(self, t):
                return np.zeros(2)

        with pytest.raises(ValueError, match="input has dimension 2"):
            bl.integrate(bl.make("sigma1").system, [0.5], Pair(), 1.0)

    def test_duck_typed_input_is_read_as_its_left_limit_at_a_solve_end(self):
        # a solve over [0, 0.5] reads the input's value before 0.5, as the
        # piecewise-constant InputSignal's solve does
        class Switch:
            breakpoints = np.array([0.5])
            dim = 1

            def eval(self, t):
                return np.array([1.0 if t < 0.5 else -1.0])

        sys_ = bl.make("linear", {"A": [[-1.0]]}).system
        ref = bl.integrate(sys_, [0.3], bl.InputSignal([0.5], [[1.0], [-1.0]]), 1.0)
        got = bl.integrate(sys_, [0.3], Switch(), 1.0)
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.states, ref.states)
        assert got.t_max_estimate == ref.t_max_estimate


def state_at_trajectories(name):
    """The trajectories of one `state_at` digest case."""
    cfg = bl.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)
    sigma1 = bl.make("sigma1")
    if name == "sigma1_open_loop":
        u = bl.InputSignal([0.7, 1.3], [[1.0], [-0.5], [0.3]])
        return [bl.integrate(sigma1.system, [0.6], u, 2.0, cfg)]
    if name == "sigma1_closed_loop":
        cl = closed_loop(sigma1.system, sigma1.margin)
        return [bl.integrate(cl, [0.7], d, 3.0, cfg)
                for d in bl.disturbance_family(1, 3.0, 6, 20240811)]
    if name == "quadratic_blowup":
        return [bl.integrate(bl.make("quadratic").system, [2.0],
                             bl.InputSignal.constant([0.0]), 1.0, bl.IntegratorConfig())]
    assert name == "reaction_diffusion"  # n = 32 at tau = 1: the BDF path
    rd, rd_cfg = stiff_rd()
    x0 = np.sin(math.pi * np.linspace(0.0, 1.0, 34)[1:-1])
    return [bl.integrate(rd.system, x0, bl.InputSignal.constant([0.5]), 1.0, rd_cfg)]


def state_at_digest(trajs) -> str:
    """Digest of array and scalar `state_at` reads at the solver's steps, a
    41-point grid and times before 0 and after the end."""
    h = hashlib.sha256()
    for traj in trajs:
        end = float(traj.times[-1])
        t = np.unique(np.concatenate([
            [-1.0, -1e-9, end + 1e-9, end + 1.0], np.linspace(0.0, end, 41), traj.times,
        ]))
        h.update(np.ascontiguousarray(traj.state_at(t)).tobytes())
        h.update(np.array([traj.state_at(s) for s in t]).tobytes())
    return h.hexdigest()[:32]


# Recorded with numpy 2.4 and scipy 1.17 on x86-64 when `state_at` read
# per-restart-segment solutions, before it read one solution of all steps.
# reaction_diffusion re-recorded when BDF step ends came to be read from the
# step that ends there, not the next one (reads moved by <= 2.2e-16 relative),
# and again when a BDF step's float read came to be its array read: 3 of the
# 163 float reads moved, by <= 3.5e-18 absolute and 1.8e-16 relative; the
# array reads and the steps kept their bits.
STATE_AT_DIGESTS = {
    "sigma1_open_loop": "e3ff1d92ee54d202e8d0b01022084a93",
    "sigma1_closed_loop": "fe4823a84ee281b5ddcc8422c6436a39",
    "quadratic_blowup": "af03b255772349b9e1fdcf442a1f846d",
    "reaction_diffusion": "50f0159bb4e6fef137f925cfbbfe64c5",
}


class TestStateAt:
    @pytest.mark.parametrize("name", sorted(STATE_AT_DIGESTS))
    def test_reads_are_bit_identical(self, name):
        assert state_at_digest(state_at_trajectories(name)) == STATE_AT_DIGESTS[name]

    @pytest.mark.parametrize("name", ["sigma1_open_loop", "reaction_diffusion"])
    def test_a_step_end_reads_the_step_that_ends_there(self, name):
        # one rule on both solvers (RK45, then BDF): times[i] reads steps[i - 1]
        traj = state_at_trajectories(name)[0]
        ends = traj.times[1:]
        want = np.array([step(t) for step, t in zip(traj.steps, ends.tolist())])
        assert np.ascontiguousarray(traj.state_at(ends)).tobytes() == want.tobytes()
        assert np.array([traj.state_at(t) for t in ends.tolist()]).tobytes() == want.tobytes()


class TestStateAtFloatPath:
    @pytest.mark.parametrize("name", ["sigma1_open_loop", "reaction_diffusion"])
    def test_other_scalar_types_read_the_same_bits(self, name):
        # a float takes the Python-float path; an int, an np.float32 and a
        # 0-d array are read as the float they hold and take it too
        traj = state_at_trajectories(name)[0]
        end = float(traj.times[-1])
        for t in [0, 1, int(end) + 2]:
            assert traj.state_at(t).tobytes() == traj.state_at(float(t)).tobytes()
        for t in [0.3, end / 3, end + 0.5]:
            t32 = np.float32(t)
            assert traj.state_at(t32).tobytes() == traj.state_at(float(t32)).tobytes()
            assert traj.state_at(np.array(t)).tobytes() == traj.state_at(t).tobytes()

    def test_rk45_float_reads_skip_ode_solution(self):
        # float reads and one array read of the same times give the same bits,
        # on RK45 and on BDF, whose float read is its array read
        for name in ["sigma1_open_loop", "reaction_diffusion"]:
            traj = state_at_trajectories(name)[0]
            t = np.concatenate([traj.times, np.linspace(-1.0, 3.0, 17)])
            if name == "reaction_diffusion":  # and runs of several times in a step
                t = np.concatenate([t, np.linspace(0.0, 1.0, 401)])
            ref = traj.state_at(t)
            got = np.array([traj.state_at(float(s)) for s in t])
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), name


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

    @pytest.mark.parametrize("x0", [2e9, 1e9, -3e9, 1e308])
    def test_start_at_or_above_threshold_crosses_at_zero(self, x0):
        # the upward event cannot fire for a state that starts above the
        # threshold; without the start check the solver underflows its step.
        # At 1e308 the scaled norm's square overflows to inf, with no warning
        q = bl.make("quadratic")
        traj = bl.integrate(q.system, [x0], bl.InputSignal.constant([0.0]), 1.0)
        assert traj.blew_up and traj.t_max_estimate == 0.0
        assert traj.times.tolist() == [0.0] and traj.states.tolist() == [[x0]]
        assert traj.state_at(0.5).tolist() == [x0]

    def test_vector_state_blows_up_at_its_norm(self):
        # x' = x from a unit vector: the norm e^t crosses the threshold at its log
        lin = bl.make("linear", {"A": [[1.0, 0.0], [0.0, 1.0]]}).system
        zero = bl.InputSignal.constant([0.0, 0.0])
        cfg = bl.IntegratorConfig()
        traj = bl.integrate(lin, [0.6, 0.8], zero, 25.0, cfg)
        assert traj.blew_up
        assert traj.t_max_estimate == pytest.approx(math.log(cfg.blowup_threshold), rel=1e-6)
        assert np.linalg.norm(traj.states[-1]) == pytest.approx(cfg.blowup_threshold, rel=1e-6)
        # the half-length row crosses later, at log(2 threshold)
        _, t_cross = _sample_ensemble(
            lin, [[0.6, 0.8], [0.3, 0.4]], [zero, zero], [(np.linspace(0.0, 25.0, 26), [0, 1])],
            cfg,
        )
        assert t_cross[0] == pytest.approx(traj.t_max_estimate, rel=1e-6)
        assert t_cross[1] == pytest.approx(math.log(2.0 * cfg.blowup_threshold), rel=1e-6)

    def test_threshold_whose_square_overflows(self):
        # x' = x from 1 crosses 1e200 at ln(1e200); a squared norm or
        # threshold would overflow a float on the way there
        lin = bl.make("linear", {"A": [[1.0]]}).system
        zero = bl.InputSignal.constant([0.0])
        cfg = bl.IntegratorConfig(blowup_threshold=1e200)
        crossing = math.log(1e200)
        traj = bl.integrate(lin, [1.0], zero, 500.0, cfg)
        assert traj.blew_up and traj.t_max_estimate == pytest.approx(crossing, rel=1e-6)
        _, t_cross = _sample_ensemble(
            lin, [[1.0], [0.5]], [zero, zero], [(np.linspace(0.0, 500.0, 11), [0, 1])], cfg
        )
        assert t_cross == pytest.approx([crossing, math.log(2e200)], rel=1e-6)


def screened_and_exact(monkeypatch, run):
    """run() with `_run`'s step-event screen, then with the exact event
    forced: the two results, and how many step events the screen read
    without a norm in the first."""
    spared = []
    far_below = sysdyn._far_below

    def counted(y, screen):
        spared.append(far_below(y, screen))
        return spared[-1]

    monkeypatch.setattr(sysdyn, "_far_below", counted)
    screened = run()
    monkeypatch.setattr(sysdyn, "_far_below", lambda y, screen: False)
    return screened, run(), sum(spared)


def test_screened_reach_samples_are_the_exact_events(monkeypatch):
    # sample_reach on quadratic, 12 of whose 20 draws cross: the same
    # crossing times and samples to the bit with and without the screen
    from brslab import brscheck

    seen = []
    sample = brscheck._sample_ensemble

    def recorded(*args):
        seen.append(sample(*args))
        return seen[-1]

    monkeypatch.setattr(brscheck, "_sample_ensemble", recorded)
    quad = bl.make("quadratic").system
    _, _, spared = screened_and_exact(monkeypatch, lambda: bl.sample_reach(quad, 3.0, 3.0, 20, 5))
    (samples, t_cross), (exact_samples, exact_t_cross) = seen
    assert int(np.isfinite(t_cross).sum()) == 12 and spared > 0
    assert same(t_cross, exact_t_cross) and same(samples, exact_samples)


@pytest.mark.parametrize("case", ["above_at_start", "just_under_the_screen", "at_the_screen"])
def test_screened_events_are_the_exact_events(monkeypatch, case):
    zero = bl.InputSignal.constant([0.0])
    if case == "above_at_start":  # a row frozen past the threshold from t = 0
        system, threshold = bl.make("quadratic").system, 1e9
        X0, grid = np.array([[0.5], [2e9], [1.5]]), np.linspace(0.0, 3.0, 13)
    else:
        # x' = x in four components: rows of n = 4 entries, so the screen
        # is threshold / 4, and the first row's largest entry starts just
        # under it or at it; it crosses near t = ln 4, the second at ln 500
        system, threshold = bl.SystemDef(4, 1, lambda x, u: 1.0 * x, name="growth"), 1e3
        top = 250.0 if case == "at_the_screen" else math.nextafter(250.0, 0.0)
        X0 = np.array([[top, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
        grid = np.linspace(0.0, 7.0, 15)
    cfg = bl.IntegratorConfig(blowup_threshold=threshold)
    (samples, t_cross), (exact_samples, exact_t_cross), spared = screened_and_exact(
        monkeypatch, lambda: _sample_ensemble(system, X0, [zero] * len(X0),
                                              one_group(grid, len(X0)), cfg))
    assert same(t_cross, exact_t_cross) and same(samples, exact_samples)
    assert np.all(np.isfinite(t_cross))
    # a frozen row past the threshold, or an entry at the screen, keeps
    # every event exact; just under it, the first events are screened
    if case == "above_at_start":
        assert spared == 0 and t_cross[1] == 0.0
    else:
        crossing = math.log(1e3 / math.sqrt(250.0 ** 2 + 3.0))
        assert t_cross[0] == pytest.approx(crossing, rel=1e-6)
        assert (spared > 0) == (case == "just_under_the_screen")


def assert_rows_agree(sys, X0, inputs, groups, cfg, sampled=None):
    """Every ensemble row is within 10x cfg's tolerance of an integrate run
    to the end of its grid at 1e-4 times cfg's tolerances, on its grid.

    `sampled` is the sampler's output for these arguments if it was taken
    already (under another solver than the references')."""
    samples, t_cross = sampled or _sample_ensemble(sys, X0, inputs, groups, cfg)
    assert samples.shape == (max(g.size for g, _ in groups), len(X0), sys.state_dim)
    assert sorted(i for _, rows in groups for i in rows) == list(range(len(X0)))
    assert np.all(t_cross == math.inf)
    tight = bl.IntegratorConfig(rel_tol=cfg.rel_tol * 1e-4, abs_tol=cfg.abs_tol * 1e-4)
    for g, rows in groups:
        for i in rows:
            ref = bl.integrate(sys, X0[i], inputs[i], g[-1], tight).state_at(g)
            tol = 10.0 * (cfg.rel_tol * np.abs(ref).max() + cfg.abs_tol)
            assert np.abs(samples[: g.size, i] - ref).max() <= tol, i
            assert np.array_equal(samples[0, i], X0[i])
            assert np.all(np.isnan(samples[g.size :, i]))  # past the end of a shorter grid


def one_group(grid, N):
    """The groups of an ensemble whose N rows all read `grid`."""
    return [(grid, np.arange(N))]


def ensemble_case(name):
    """(sys, X0, inputs, groups, cfg) of a sampler test whose rows share one grid."""
    cfg = bl.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)
    if name == "sigma1_closed_loop":
        sigma1 = bl.make("sigma1")
        X0 = np.array([[0.7], [0.3], [-1.5], [0.05], [2.0], [-0.7]])
        return (closed_loop(sigma1.system, sigma1.margin), X0,
                bl.disturbance_family(1, 3.0, 6, 20240811), one_group(np.linspace(0.0, 3.0, 31), 6),
                cfg)
    if name == "non_normal_linear":
        lin = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]})
        inputs = [
            bl.InputSignal([0.5, 1.2], [[1.0, 0.0], [0.0, -1.0], [0.3, 0.3]]),
            bl.InputSignal.constant([0.0, 1.0]),
            bl.InputSignal([0.8], [[-1.0, 2.0], [0.0, 0.0]]),
        ]
        X0 = np.array([[0.0, 1.0], [1.0, -1.0], [0.5, 0.5]])
        return lin.system, X0, inputs, one_group(np.linspace(0.0, 2.0, 41), 3), cfg
    if name == "reaction_diffusion":
        rd = bl.make("reaction_diffusion", {"n": 8})
        inputs = [
            bl.InputSignal.constant([0.5]),
            bl.InputSignal([0.3], [[1.0], [-1.0]]),
            bl.InputSignal.constant([0.0]),
        ]
        X0 = np.random.default_rng(1).standard_normal((3, 8))
        return (rd.system, X0, inputs, one_group(np.linspace(0.0, 1.0, 21), 3),
                bl.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9))
    assert name == "quadratic_blowup"
    zero = bl.InputSignal.constant([0.0])
    return (bl.make("quadratic").system, np.array([[0.5], [2.0]]), [zero, zero],
            one_group(np.linspace(0.0, 1.0, 11), 2), bl.IntegratorConfig())


class TestSampleEnsemble:
    # integrate itself at the configured tolerance strays up to ~18x rel_tol
    # from a 1e-13 solution on the sigma1 closed loop, so the rows are held
    # against a tighter integrate rather than one at the same tolerance

    def test_sigma1_closed_loop_under_switching_disturbances(self):
        case = ensemble_case("sigma1_closed_loop")
        assert any(d.breakpoints.size for d in case[2])
        assert_rows_agree(*case)

    def test_non_normal_linear(self):
        assert_rows_agree(*ensemble_case("non_normal_linear"))

    def test_reaction_diffusion(self):
        assert_rows_agree(*ensemble_case("reaction_diffusion"))

    @pytest.mark.parametrize("name", ["non_normal_linear", "reaction_diffusion"])
    def test_one_row_has_the_bits_of_integrate(self, name):
        # both paths go on from the solver's own state at a breakpoint, so a
        # one-row ensemble reads integrate's dense solution to the bit (RK45
        # on the witness, BDF on the n = 32 grid)
        if name == "non_normal_linear":
            sys_ = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]}).system
            x0, tau, grid = np.array([0.0, 1.0]), 2.0, np.linspace(0.0, 2.0, 41)
            u = bl.InputSignal([0.4, 1.1], [[1.0, 0.0], [0.0, -1.0], [0.5, 0.5]])
            cfg = bl.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)
        else:
            rd, cfg = stiff_rd()
            sys_ = rd.system
            x0 = np.sin(math.pi * np.arange(1, 33) / 33)  # the first sine mode
            # the breakpoints are step ends, read from the step that ends there
            tau, grid = 1.0, np.union1d(np.linspace(0.0, 1.0, 41), [0.3, 0.6])
            u = bl.InputSignal([0.3, 0.6], [[0.5], [-1.0], [0.2]])
        samples, _ = _sample_ensemble(sys_, x0[None], [u], one_group(grid, 1), cfg)
        assert np.array_equal(samples[:, 0], bl.integrate(sys_, x0, u, tau, cfg).state_at(grid))

    def test_crossing_row_freezes_and_the_rest_go_on(self):
        quad, X0, inputs, groups, cfg = ensemble_case("quadratic_blowup")
        grid = groups[0][0]
        samples, t_cross = _sample_ensemble(quad, X0, inputs, groups, cfg)
        ref = bl.integrate(quad, [2.0], inputs[0], 1.0, cfg).t_max_estimate
        assert t_cross[0] == math.inf
        assert t_cross[1] == pytest.approx(ref, rel=1e-6)
        after = grid > t_cross[1]
        assert after.sum() == 6  # t = 0.5, ..., 1.0: the crossing is just before 0.5
        # the crossing row holds its crossing state at every later grid point
        assert np.all(samples[after, 1] == samples[-1, 1])
        assert samples[-1, 1, 0] == pytest.approx(cfg.blowup_threshold, rel=1e-6)
        assert samples[~after, 1, 0] == pytest.approx(1.0 / (0.5 - grid[~after]), rel=1e-6)
        # the other row runs to the horizon
        assert samples[:, 0, 0] == pytest.approx(1.0 / (2.0 - grid), rel=1e-6)

    def test_rows_cross_at_their_own_times(self):
        # x' = x^2 from 2, 1 and 0.5 crosses near t = 0.5, 1 and 2; from 0.1
        # only at t = 10 and from -1 never
        quad = bl.make("quadratic").system
        zero = bl.InputSignal.constant([0.0])
        X0 = np.array([[0.1], [2.0], [-1.0], [1.0], [0.5]])
        inputs, tau, grid = [zero] * 5, 3.0, np.linspace(0.0, 3.0, 31)
        cfg = bl.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)
        samples, t_cross = _sample_ensemble(quad, X0, inputs, one_group(grid, 5), cfg)
        crossing = [1, 3, 4]
        for i in crossing:
            ref = bl.integrate(quad, X0[i], zero, tau, cfg)
            assert ref.blew_up and t_cross[i] == pytest.approx(ref.t_max_estimate, rel=1e-6), i
            assert np.all(samples[grid >= t_cross[i], i] == samples[-1, i]), i
        assert np.all(t_cross[[0, 2]] == math.inf)
        # the bounded rows, checked as assert_rows_agree checks them
        assert_rows_agree(quad, X0[[0, 2]], [zero] * 2, one_group(grid, 2), cfg,
                          (samples[:, [0, 2]], t_cross[[0, 2]]))

    def test_rows_crossing_together_freeze_together(self):
        # equal rows cross at the same time; one left live above the
        # threshold would never cross it upward and run into a step underflow
        quad = bl.make("quadratic").system
        zero = bl.InputSignal.constant([0.0])
        grid = np.linspace(0.0, 1.0, 11)
        samples, t_cross = _sample_ensemble(quad, [[2.0], [0.5], [2.0]], [zero] * 3,
                                            one_group(grid, 3), bl.IntegratorConfig())
        assert t_cross[0] == t_cross[2] == pytest.approx(0.5, rel=1e-6)
        assert t_cross[1] == math.inf
        assert np.array_equal(samples[:, 0], samples[:, 2])
        assert samples[:, 1, 0] == pytest.approx(1.0 / (2.0 - grid), rel=1e-6)

    def test_row_starting_above_threshold_crosses_at_zero(self):
        quad = bl.make("quadratic").system
        zero = bl.InputSignal.constant([0.0])
        grid = np.linspace(0.0, 1.0, 11)
        cfg = bl.IntegratorConfig()
        samples, t_cross = _sample_ensemble(quad, [[0.5], [2e9], [2.0]], [zero] * 3,
                                            one_group(grid, 3), cfg)
        assert t_cross[1] == 0.0
        assert np.all(samples[:, 1, 0] == 2e9)  # frozen at its start
        assert t_cross[0] == math.inf
        assert samples[:, 0, 0] == pytest.approx(1.0 / (2.0 - grid), rel=1e-6)
        assert t_cross[2] == pytest.approx(
            bl.integrate(quad, [2.0], zero, 1.0, cfg).t_max_estimate, rel=1e-6)
        # every row above the threshold: no solve at all
        samples, t_cross = _sample_ensemble(quad, [[2e9]], [zero], one_group(grid, 1), cfg)
        assert t_cross.tolist() == [0.0] and np.all(samples == 2e9)

    def test_rhs_that_is_not_row_wise_is_named(self):
        flat = bl.SystemDef(1, 1, lambda x, u: np.zeros(1), name="flat")
        u = bl.InputSignal.constant([0.0])
        with pytest.raises(ValueError, match=r"'flat'.*\(1,\).*\(2, 1\)"):
            _sample_ensemble(flat, [[0.0], [1.0]], [u, u], one_group(np.linspace(0.0, 1.0, 3), 2),
                             bl.IntegratorConfig())

    def test_rejects_grid_outside_horizon(self):
        # a grid's last time is its rows' horizon: it must be finite and > 0
        u = bl.InputSignal.constant([0.0])
        quad = bl.make("quadratic").system
        for grid in ([0.5, 0.5], [], [-0.5, 1.0], [0.0], [0.0, math.inf], [0.0, math.nan]):
            with pytest.raises(ValueError, match="grid"):
                _sample_ensemble(quad, [[0.1]], [u], [(np.array(grid), [0])],
                                 bl.IntegratorConfig())

    def test_rejects_bad_horizons_and_grid_lists(self):
        # the groups must hold each row exactly once
        u = bl.InputSignal.constant([0.0])
        quad = bl.make("quadratic").system
        grid = np.linspace(0.0, 1.0, 3)
        for rows in ([[0]], [[0, 1], [1]], [[0, 0, 1]], [[0, 1, 2]], [[-1, 0]]):
            with pytest.raises(ValueError, match="each of the 2 rows exactly once"):
                _sample_ensemble(quad, [[0.1], [0.2]], [u, u], [(grid, r) for r in rows],
                                 bl.IntegratorConfig())


# Digests of the samples (and the first blow-up time) of the four cases
# above as the sampler gave them before it took per-row horizons, recorded
# with numpy 2.4 and scipy 1.17 on x86-64: one grid for every row must
# still reproduce them bit for bit.  quadratic_blowup was recorded again when a
# crossing row came to freeze in place of ending the ensemble, so its other
# row now runs to the horizon; the crossing time did not move.  The other
# three were recorded again when the sampler's solves came to go on from the
# solver's own state at a breakpoint, as integrate's do: they moved by at
# most 6.0e-15 (non_normal_linear), 2.7e-16 and 1.6e-16 relative.
SCALAR_TAU_DIGESTS = {
    "sigma1_closed_loop": ("b1d3f8e663ebe961c1526a07d17f3b03", math.inf),
    "non_normal_linear": ("195a7fd7e72c23f171ae85ed47577216", math.inf),
    "reaction_diffusion": ("485daec3fc131a218f224e19c39441d3", math.inf),
    "quadratic_blowup": ("bf375c674e87e42ed187aff71df33e50", 0.49999999896633285),
}


# Bytes a sampler run may allocate beyond its samples: a few solver steps'
# states.  One step here reads at most 321 grid times of the 64 rows (164 kB)
# or 9 of the 504 x 8 states (263 kB), and the sampler holds at most 256 kB
# of them before it scatters them; states held to the end of the run would
# add the samples' own 4.2 MB or 8.3 MB.
FEW_STEPS_BYTES = 2 << 20


@pytest.mark.parametrize("N, n, points", [(64, 1, 8193), (504, 8, 257)])
def test_sampler_memory_stays_within_a_few_steps(N, n, points):
    # the solver's steps are scattered into the samples as they are taken
    decay = bl.SystemDef(n, 1, lambda x, u: -x, name="decay")
    X0 = np.linspace(0.1, 1.0, N * n).reshape(N, n)
    inputs = [bl.InputSignal.constant([0.0])] * N
    grid = np.linspace(0.0, 1.0, points)
    tracemalloc.start()
    try:
        samples, _ = _sample_ensemble(decay, X0, inputs, one_group(grid, N), bl.IntegratorConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(samples[-1], X0 * math.exp(-1.0))
    assert peak < samples.nbytes + FEW_STEPS_BYTES


class TestRaggedHorizons:
    @pytest.mark.parametrize("name", sorted(SCALAR_TAU_DIGESTS))
    def test_scalar_tau_is_bit_identical(self, name):
        samples, t_cross = _sample_ensemble(*ensemble_case(name))
        digest = hashlib.sha256(samples.tobytes()).hexdigest()[:32]
        assert (digest, t_cross.min()) == SCALAR_TAU_DIGESTS[name]

    def test_rows_match_integrate_to_their_own_horizons(self):
        cl, X0, dists, _, cfg = ensemble_case("sigma1_closed_loop")
        # each row reads 31 points of its own horizon; rows 0 and 4 share one grid
        groups = [(np.linspace(0.0, tau, 31), rows)
                  for tau, rows in ((3.0, [0, 4]), (1.2, [1]), (2.5, [2]), (0.4, [3]))]
        groups.append((np.linspace(0.0, 1.7, 12), [5]))  # a shorter grid, NaN after its end
        assert_rows_agree(cl, X0, dists, groups, cfg)

    def test_blowup_after_its_own_horizon_is_not_one(self):
        # x' = x^2 from 0.5 blows up at t = 2, after its horizon 1; from 0.1
        # at t = 10, after the ensemble's end 3
        quad = bl.make("quadratic").system
        zero = bl.InputSignal.constant([0.0])
        grid = np.linspace(0.0, 3.0, 31)
        samples, t_cross = _sample_ensemble(
            quad, [[0.5], [0.1]], [zero, zero], [(grid[:11], [0]), (grid, [1])],
            bl.IntegratorConfig(),
        )
        assert np.all(t_cross == math.inf)
        assert samples[:11, 0, 0] == pytest.approx(1.0 / (2.0 - grid[:11]), rel=1e-6)
        assert np.all(np.isnan(samples[11:, 0]))
        assert samples[:, 1, 0] == pytest.approx(1.0 / (10.0 - grid), rel=1e-6)

    def test_crossing_row_is_named(self):
        quad = bl.make("quadratic").system
        zero = bl.InputSignal.constant([0.0])
        grid = np.linspace(0.0, 3.0, 31)
        _, t_cross = _sample_ensemble(
            quad, [[0.1], [0.5], [0.2]], [zero] * 3, [(grid, [0, 1]), (grid[:11], [2])],
            bl.IntegratorConfig(),
        )
        assert t_cross[1] == pytest.approx(2.0, rel=1e-6)
        assert np.all(t_cross[[0, 2]] == math.inf)


def stiff_rd(n=32):
    rd = bl.make("reaction_diffusion", {"n": n})
    return rd, bl.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)


class TestSolverSelection:
    # rho(A) * tau is about 4,087 for reaction_diffusion n = 32 at tau = 1,
    # 248 for n = 8, and 2 or 20 for the non-normal witness at tau 2 or 20

    def test_stiff_linear_part_uses_bdf(self, monkeypatch):
        rd, cfg = stiff_rd()
        methods = solver_work(monkeypatch)["methods"]
        bl.integrate(rd.system, np.full(32, 0.1), bl.InputSignal.constant([0.5]), 1.0, cfg)
        assert methods == ["BDF"]
        methods.clear()
        # the rd_stiff benchmark's probe: one ensemble of the ladder pairs
        bl.probe_lipschitz_tdi(rd.system, rd.margin, 1.0, 1.0, 0, seed=20240811, cfg=cfg,
                               n_dist=1)
        assert methods and set(methods) == {"BDF"}

    def test_everything_else_uses_rk45(self, monkeypatch):
        methods = solver_work(monkeypatch)["methods"]
        sigma1 = bl.make("sigma1")
        switching = bl.InputSignal([0.5], [[1.0], [0.3]])
        bl.integrate(sigma1.system, [0.6], switching, 2.0)
        bl.integrate(closed_loop(sigma1.system, sigma1.margin), [0.6], switching, 2.0)
        bl.integrate(bl.make("quadratic").system, [0.5], bl.InputSignal.constant([0.0]), 1.0)
        witness = bl.make("linear", {"A": [[-1.0, 10.0], [0.0, -1.0]]}).system
        bl.integrate(witness, [0.0, 1.0], bl.InputSignal.constant([0.0, 1.0]), 20.0)
        rd, cfg = stiff_rd(8)
        bl.integrate(rd.system, np.full(8, 0.1), bl.InputSignal.constant([0.5]), 1.0, cfg)
        for name in SCALAR_TAU_DIGESTS:
            _sample_ensemble(*ensemble_case(name))
        assert methods and set(methods) == {"RK45"}


class TestStiffPath:
    def test_integrate_matches_rk45(self, monkeypatch):
        rd, cfg = stiff_rd()
        x0 = np.random.default_rng(2).standard_normal(32) * 0.2
        u = bl.InputSignal([0.4], [[1.0], [-0.5]])
        grid = np.linspace(0.0, 1.0, 41)
        traj = bl.integrate(rd.system, x0, u, 1.0, cfg)
        monkeypatch.setattr(sysdyn, "_STIFF_RHO_SPAN", math.inf)  # references on RK45
        tight = bl.IntegratorConfig(rel_tol=cfg.rel_tol * 1e-4, abs_tol=cfg.abs_tol * 1e-4)
        ref = bl.integrate(rd.system, x0, u, 1.0, tight)
        tol = 10.0 * (cfg.rel_tol * np.abs(ref.states).max() + cfg.abs_tol)
        assert np.abs(traj.state_at(grid) - ref.state_at(grid)).max() <= tol
        assert np.abs(traj.states[-1] - ref.states[-1]).max() <= tol
        assert traj.times[-1] == 1.0 and not traj.blew_up

    def test_ragged_ensemble_matches_rk45(self, monkeypatch):
        rd, cfg = stiff_rd()
        X0 = np.random.default_rng(3).standard_normal((4, 32)) * 0.2
        inputs = [
            bl.InputSignal.constant([0.5]),
            bl.InputSignal.constant([-0.3]),
            bl.InputSignal([0.15, 0.6], [[1.0], [-1.0], [0.2]]),
            bl.InputSignal.constant([0.0]),
        ]
        grid = np.linspace(0.0, 1.0, 21)
        # horizons 1.0, 0.2, 0.5 and 1.0
        groups = [(grid, [0, 3]), (grid[:5], [1]), (grid[:11], [2])]
        sampled = _sample_ensemble(rd.system, X0, inputs, groups, cfg)
        monkeypatch.setattr(sysdyn, "_STIFF_RHO_SPAN", math.inf)  # references on RK45
        assert_rows_agree(rd.system, X0, inputs, groups, cfg, sampled)

    def test_blowup_time_and_row(self, monkeypatch):
        # x2 = e^t carries the norm to the threshold at ln(threshold); the
        # -5000 mode makes rho(A) * tau = 125,000
        methods = solver_work(monkeypatch)["methods"]
        lin = bl.make("linear", {"A": [[-5000.0, 0.0], [0.0, 1.0]]}).system
        zero = bl.InputSignal.constant([0.0, 0.0])
        cfg = bl.IntegratorConfig()
        crossing = math.log(cfg.blowup_threshold)
        _, t_cross = _sample_ensemble(
            lin, [[1.0, 1.0], [0.5, 0.5]], [zero, zero], one_group(np.linspace(0.0, 25.0, 26), 2),
            cfg,
        )
        # the half-size row crosses later, at ln(2 threshold)
        assert t_cross == pytest.approx([crossing, math.log(2.0 * cfg.blowup_threshold)],
                                        rel=1e-6)
        traj = bl.integrate(lin, [1.0, 1.0], zero, 25.0, cfg)
        assert traj.blew_up and traj.t_max_estimate == pytest.approx(crossing, rel=1e-6)
        assert set(methods) == {"BDF"}


class TestIntegratorConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", 0.0),
         ("abs_tol", math.nan), ("abs_tol", math.inf), ("abs_tol", -1e-9),
         ("blowup_threshold", math.nan), ("blowup_threshold", math.inf),
         # a bool was read as 1; a string and an int past float range escaped
         # as TypeError and OverflowError
         ("rel_tol", True), ("rel_tol", "1e-6"),
         pytest.param("blowup_threshold", 10**400, id="blowup_threshold-1e400")],
    )
    def test_rejects_non_finite_or_non_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            bl.IntegratorConfig(**{field: value})


def _array_holder(kind):
    """An object of the given array-holding value type and an equal-valued copy."""
    if kind == "ScalarFun":
        eta = bl.make("sigma1").margin.eta
        return eta, bl.ScalarFun(eta.knots, eta.values, eta.slope, eta.tags)
    if kind == "SystemDef":
        sys_ = bl.make("linear", {"A": [[-1.0, 1.0], [0.0, -1.0]]}).system
        return sys_, dataclasses.replace(sys_)
    traj = bl.integrate(rotation(), [1.0, 0.0], bl.InputSignal.constant([0.0]), 1.0)
    return traj, dataclasses.replace(traj)


@pytest.mark.parametrize("kind", ["ScalarFun", "SystemDef", "Trajectory"])
def test_array_holders_compare_and_hash_by_identity(kind):
    # field-wise == used to raise on the arrays' ambiguous truth value
    obj, copy = _array_holder(kind)
    assert obj == obj and obj != copy
    assert hash(obj) == hash(obj) and isinstance(hash(copy), int)
    if kind == "ScalarFun":  # a margin compares through its eta
        margin = bl.GrowthMargin(obj)
        assert margin == bl.GrowthMargin(obj) and margin != bl.GrowthMargin(copy)
        assert hash(margin) == hash(bl.GrowthMargin(obj))


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


# scipy's solver classes and the function that steps one to the end
SOLVER_NAMES = frozenset(
    [name for name, obj in vars(scipy.integrate).items()
     if isinstance(obj, type) and issubclass(obj, scipy.integrate.OdeSolver)] + ["solve_ivp"]
)


NOT_IMPORTED = ("scipy.integrate", "scipy.optimize", "scipy.sparse")


def test_only_sysdyn_steps_a_solver():
    # one stepping loop: no other module imports scipy.integrate or names a
    # solver, so none can construct one; sysdyn steps its own RK45 and BDF
    # and imports from scipy.integrate only the solve_ivp it serves to the
    # bench tracer, and no module imports scipy.optimize (sysdyn has its own
    # brentq) or scipy.sparse (a stack's Newton matrix is one dense block)
    users, imported = {}, {}
    for path in sorted(Path(sysdyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            scipy_imports = []
            if isinstance(node, ast.Import):
                scipy_imports = [a.name for a in node.names if a.name.startswith(NOT_IMPORTED)]
                used = scipy_imports
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                scipy_imports = [a.name for a in node.names if module.startswith(NOT_IMPORTED)
                                 or (module == "scipy" and f"scipy.{a.name}" in NOT_IMPORTED)]
                used = scipy_imports + [a.name for a in node.names if a.name in SOLVER_NAMES]
            else:
                used = [name for name in (getattr(node, "id", None), getattr(node, "attr", None))
                        if name in SOLVER_NAMES]
            users.setdefault(path.name, set()).update(used)
            imported.setdefault(path.name, set()).update(scipy_imports)
    assert {name for name, used in users.items() if used} == {"sysdyn.py"}
    assert users["sysdyn.py"] == {"RK45", "BDF", "solve_ivp"}
    assert {name: names for name, names in imported.items() if names} == {
        "sysdyn.py": {"solve_ivp"}}


def _package_trees() -> dict:
    """Each module of the package by file name, parsed."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(Path(sysdyn.__file__).parent.glob("*.py"))}


def _inside(tree, kind, name) -> set:
    """The ids of every node inside the function or class `name` of `tree`."""
    scope, = [node for node in ast.walk(tree) if isinstance(node, kind) and node.name == name]
    return {id(node) for node in ast.walk(scope)}


def _calls_in(tree, is_call) -> list:
    """The innermost enclosing function's name (None at module level) of
    every call in `tree` that `is_call` accepts."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and is_call(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _is_linalg_norm(node) -> bool:
    func = node.func
    return (getattr(func, "attr", None) == "norm"
            and "linalg" in (getattr(func.value, "attr", None), getattr(func.value, "id", None)))


def test_only_norms_reads_a_norm():
    # one norm reader: every norm compared with a bound, divided by or
    # written out is read by sysdyn._norms, whose overflow rule is the
    # package's one silenced overflow; np.linalg.norm is left only to the
    # draw normalisations and the semigroup's matrix 2-norm
    trees = _package_trees()
    norms = {(name, fn) for name, tree in trees.items() for fn in _calls_in(tree, _is_linalg_norm)}
    assert norms <= {("sysdyn.py", "_norms"), ("sysdyn.py", "semigroup_growth"),
                     ("tdinput.py", "_unit"), ("tdinput.py", "_random_steps")}
    assert not [name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
                and {a.name for a in node.names} & {"linalg", "norm"}]
    overflow_rules = {(name, fn) for name, tree in trees.items() for fn in _calls_in(
        tree, lambda node: getattr(node.func, "attr", None) in ("errstate", "seterr")
        and "over" in {k.arg for k in node.keywords})}
    assert overflow_rules == {("sysdyn.py", "_norms")}


def test_only_run_steps_a_solver():
    # one stepping loop: every solver's `.step()` is called in `_run`, and so
    # is every `.dense_output()`, so each step's interpolant is built there
    # once and the hooks only read it
    trees = _package_trees()
    inside = _inside(trees["sysdyn.py"], ast.FunctionDef, "_run")
    for method in ("step", "dense_output"):
        calls = {name: [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == method]
                 for name, tree in trees.items()}
        assert {name for name, found in calls.items() if found} == {"sysdyn.py"}, method
        assert all(id(node) in inside for node in calls["sysdyn.py"]), method


def test_no_module_branches_on_an_interpolants_type():
    # one step-boundary rule: nothing tests whether a step is RK45's or BDF's
    named = [(name, node.lineno) for name, tree in _package_trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
             and {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)}
             & {"RkDenseOutput", "BdfDenseOutput"}]
    assert not named


def test_only_rk_dense_output_reads_an_rk45_step():
    # one reader of an RK45 step's quartic: no code outside RkDenseOutput
    # reads an interpolant's `.Q`, and no other module reaches an
    # interpolant, by a Trajectory's `steps` or a solver's dense output
    trees = _package_trees()
    own = trees.pop("sysdyn.py")
    reads = [node for node in ast.walk(own) if getattr(node, "attr", None) == "Q"]
    inside = _inside(own, ast.ClassDef, "RkDenseOutput")
    assert reads and all(id(node) in inside for node in reads)
    assert not [name for name, tree in trees.items() for node in ast.walk(tree)
                if getattr(node, "attr", None) in ("steps", "dense_output")]


# the modules that may name `integrate`: its definition, the lift and
# projection (a FeedbackSignal input, which the sampler cannot read), the
# `simulate` command and the package's exports
DENSE_PATHS = frozenset({"sysdyn.py", "tdinput.py", "cli.py", "__init__.py"})


def test_only_the_dense_paths_name_integrate():
    # every pipeline stage reads its trajectories from the ensemble sampler,
    # so lyapunov and brscheck make no integrate call
    users = set()
    for path in sorted(Path(sysdyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "asname", None),
                     node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
            if "integrate" in names:
                users.add(path.name)
    assert users <= DENSE_PATHS
    assert "sysdyn.py" in users


def test_a_signal_is_passed_as_one_table():
    # every InputSignal or DisturbanceSignal built in the package gets its
    # breakpoints and its whole table of values, and no module splits the
    # table into segment and tail values or stacks it again
    split = {"segment_values", "tail_value", "_all_values"}
    calls, names = [], set()
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in (
                    "InputSignal", "DisturbanceSignal"):
                calls.append((name, len(node.args), [k.arg for k in node.keywords]))
            names.update({getattr(node, key, None) for key in ("id", "attr", "arg", "name")}
                         & split)
    assert calls and all(args == 2 and not keywords for _, args, keywords in calls), calls
    assert not names


def _evaluates_the_field(node) -> bool:
    """node calls `rhs`, or multiplies by a matrix (by `@`, `dot` or
    `matmul`) or by anything it reads from `linear_part`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "rhs":
            return True
        if name not in ("dot", "matmul"):
            return False
    elif not isinstance(node, ast.BinOp):
        return False
    return any(getattr(n, "attr", None) == "linear_part" for n in ast.walk(node))


def test_only_full_rhs_evaluates_the_vector_field():
    # one evaluator of x' = A x + rhs(x, u), which integrate and the
    # sampler both call: a second one could disagree with it on a
    # malformed rhs, as the sampler's own shape check once did
    tree = ast.parse(Path(sysdyn.__file__).read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    inside = {id(node) for node in ast.walk(functions["full_rhs"])}
    found = [node for node in ast.walk(tree) if _evaluates_the_field(node)]
    assert found and all(id(node) in inside for node in found)
    for caller in ("integrate", "_sample_ensemble"):
        assert any(getattr(node, "attr", None) == "full_rhs"
                   for node in ast.walk(functions[caller])), caller


def _summed(x, u):
    """-(x_1 + x_2), one number per state, where each coordinate needs one."""
    return np.atleast_1d(-x.sum(axis=-1))


NOT_ROW_WISE = bl.SystemDef(2, 1, _summed, name="summed")
HALF = bl.make("linear").margin  # eta(s) = s / 2
ZERO = bl.InputSignal.constant([0.0])


@pytest.mark.parametrize("path, name, shapes", [
    # integrate broadcast the (1,) result over both coordinates and returned
    # a wrong trajectory
    ("integrate", "summed", r"\(1,\) for states \(2,\) and inputs \(1,\)"),
    ("sampler", "summed", r"\(2,\) for states \(2, 2\) and inputs \(2, 1\)"),
    ("lift_disturbance", "summed:eta-loop", r"\(1,\) for states \(2,\) and inputs \(1,\)"),
], ids=["integrate", "sampler", "lift_disturbance"])
def test_rhs_that_is_not_row_wise_is_one_error_on_every_path(path, name, shapes):
    with pytest.raises(ValueError, match=rf"^rhs of system '{name}' returned shape {shapes};"
                                         " it must be row-wise$") as exc:
        if path == "integrate":
            bl.integrate(NOT_ROW_WISE, [1.0, 0.0], ZERO, 1.0)
        elif path == "sampler":
            _sample_ensemble(NOT_ROW_WISE, [[1.0, 0.0], [0.0, 1.0]], [ZERO, ZERO],
                             one_group(np.linspace(0.0, 1.0, 3), 2), bl.IntegratorConfig())
        else:
            d = bl.DisturbanceSignal.constant([1.0])
            bl.lift_disturbance(NOT_ROW_WISE, HALF, [1.0, 0.0], d, 1.0)
    assert type(exc.value) is ValueError


# A right-hand side that is NaN everywhere, run through integrate, the
# sampler (by sample_reach) and `brslab simulate`.  scipy's first-step
# selection loops without end on a NaN slope, so each runs in a child
# process with a timeout: a hang fails the test rather than stalling it.
NAN_START = """
import dataclasses, json, sys
from pathlib import Path
import numpy as np
import brslab as bl
from brslab import cli, examples

case, out = sys.argv[1:]
nan = bl.SystemDef(1, 1, lambda x, u: np.full_like(x, np.nan), name="nan")
try:
    if case == "integrate":
        bl.integrate(nan, [0.5], bl.InputSignal.constant([0.0]), 1.0)
    elif case == "sample_reach":
        bl.sample_reach(nan, 1.0, 1.0, 2, 0)
    else:
        make = examples.make
        examples.make = lambda name, params=None: dataclasses.replace(make(name, params),
                                                                      system=nan)
        cfg = Path(out) / "cfg.json"
        cfg.write_text(json.dumps({"system": {"name": "sigma1"}, "seed": 1, "x0": [0.5]}))
        sys.exit(cli.main(["simulate", "--config", str(cfg), "--out", out]))
except bl.StepSizeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("case", ["integrate", "sample_reach", "cli"])
def test_nan_at_a_solve_start_is_a_step_size_error(case, tmp_path):
    src = str(Path(sysdyn.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NAN_START, case, str(tmp_path)],
                          capture_output=True, text=True, timeout=10, env=env)
    if case == "cli":
        assert proc.returncode == 2
        assert "integrator error: integrator failed on [0.0, 1.0]" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("integrator failed on [0.0, ")
    assert "not finite at its start" in proc.stdout + proc.stderr


@pytest.mark.parametrize("path", ["integrate", "sampler", "stiff"])
def test_start_check_is_the_solvers_first_evaluation(path, monkeypatch):
    """The right-hand side value `_run` checks at each solve start is the
    one the solver starts from: the system is evaluated exactly as often as
    the solvers ask for it."""
    work = solver_work(monkeypatch)
    calls = []
    switching = bl.InputSignal([0.5], [[1.0], [0.3]])  # two solves per run
    base = stiff_rd(8)[0].system if path == "stiff" else bl.make("sigma1").system

    def rhs(x, u):
        calls.append(1)
        return base.rhs(x, u)

    counted = dataclasses.replace(base, rhs=rhs)
    if path == "sampler":
        _sample_ensemble(counted, [[0.6], [-0.4]], [switching, switching],
                         one_group(np.linspace(0.0, 2.0, 9), 2), bl.IntegratorConfig())
    else:
        x0 = np.full(base.state_dim, 0.6)
        if path == "stiff":  # rho(A) * tau is about 2 * 248: BDF
            monkeypatch.setattr(sysdyn, "_STIFF_RHO_SPAN", 100.0)
        bl.integrate(counted, x0, switching, 2.0)
    assert len(work["methods"]) == 2
    assert work["methods"][0] == ("BDF" if path == "stiff" else "RK45")
    assert len(calls) == work["nfev"]
