import hashlib
import math

import numpy as np
import pytest

import brslab as bl
from brslab.tdinput import TOL_MEMBERSHIP, disturbance_family


@pytest.fixture(scope="module")
def sigma1():
    return bl.make("sigma1")


def domination_gap(sys, margin, x0, u, tau):
    """max of ||u(t)|| - eta(||phi(t, x0, u)||) over the open loop's solver
    steps: u is trajectory-dominated from x0 when it is <= TOL_MEMBERSHIP."""
    traj = bl.integrate(sys, x0, u, tau)
    u_norms = np.array([np.linalg.norm(u.eval(t)) for t in traj.times])
    return float((u_norms - np.asarray(margin(traj.norms()))).max())


class TestGrowthMargin:
    def test_requires_tags(self):
        f = bl.ScalarFun(np.array([0.0, 1.0]), np.array([0.0, 0.5]), 0.5, frozenset({"Kinf"}))
        with pytest.raises(ValueError):
            bl.GrowthMargin(f)

    def test_accepts_unit_lipschitz_kinf(self):
        f = bl.ScalarFun(
            np.array([0.0, 1.0]), np.array([0.0, 0.5]), 0.5, frozenset({"Kinf", "Lip1"})
        )
        m = bl.GrowthMargin(f)
        assert m(2.0) == pytest.approx(1.0)


class TestDisturbanceSignal:
    def test_rejects_values_outside_unit_ball(self):
        with pytest.raises(ValueError):
            bl.DisturbanceSignal(np.array([1.0]), np.array([[1.5], [0.0]]))

    def test_unit_ball_check_past_the_float_squares(self):
        # the value's square overflows: its norm is read scaled, finite and
        # with no warning, and named in the error
        with pytest.raises(ValueError, match=r"^disturbance norm 1\.414\d*e\+200 exceeds"):
            bl.DisturbanceSignal([], [[1e200, 1e200]])

    def test_family_prefix_stable_and_bounded(self):
        fam3 = disturbance_family(2, 3.0, 3, seed=7)
        fam6 = disturbance_family(2, 3.0, 6, seed=7)
        for a, b in zip(fam3, fam6):
            for t in np.linspace(0, 4, 17):
                assert np.array_equal(a.eval(t), b.eval(t))
        for d in fam6:
            assert d.sup_norm() <= 1 + 1e-9

    # a bool n returned one member
    @pytest.mark.parametrize("n, tau, name", [(True, 1.0, "n"), (0, 1.0, "n"),
                                              (3, math.nan, "tau"), (3, 0.0, "tau")])
    def test_family_rejects_bad_size_or_horizon(self, n, tau, name):
        rule = "an integer >= 1" if name == "n" else "a finite number > 0"
        with pytest.raises(ValueError, match=f"{name} must be {rule}"):
            disturbance_family(1, tau, n, seed=3)

    def test_family_deterministic(self):
        a = disturbance_family(1, 2.0, 5, seed=11)
        b = disturbance_family(1, 2.0, 5, seed=11)
        for da, db in zip(a, b):
            assert np.array_equal(da.breakpoints, db.breakpoints)
            assert np.array_equal(da.values, db.values)


class TestClosedLoop:
    def test_sigma1_feedback_rhs_formula(self, sigma1):
        cl = bl.closed_loop(sigma1.system, sigma1.margin)
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-3, 3, 1)
            d = rng.uniform(-1, 1, 1)
            got = cl.rhs(x, d)[0]
            ax = abs(x[0])
            if ax == 0:
                expect = 0.0
            elif ax <= math.exp(-1):
                expect = 0.5 * abs(d[0]) * x[0] * ax
            else:
                expect = -0.5 * abs(d[0]) * x[0] * ax * math.log(ax)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_name_suffix(self, sigma1):
        assert bl.closed_loop(sigma1.system, sigma1.margin).name == "sigma1:eta-loop"


class TestLiftProject:
    def test_lifted_input_is_member(self, sigma1):
        d = bl.DisturbanceSignal(np.array([1.0]), np.array([[0.8], [-0.5]]))
        u, _ = bl.lift_disturbance(sigma1.system, sigma1.margin, [0.4], d, 2.0)
        assert domination_gap(sigma1.system, sigma1.margin, [0.4], u, 2.0) <= TOL_MEMBERSHIP

    def test_scaled_input_is_not_member(self, sigma1):
        d = bl.DisturbanceSignal(np.array([1.0]), np.array([[0.8], [-0.5]]))
        u, _ = bl.lift_disturbance(sigma1.system, sigma1.margin, [0.4], d, 2.0)

        class Scaled:
            breakpoints = u.breakpoints
            dim = 1

            def eval(self, t):
                return 3.0 * u.eval(t)

        gap = domination_gap(sigma1.system, sigma1.margin, [0.4], Scaled(), 2.0)
        assert gap > TOL_MEMBERSHIP

    def test_roundtrip_recovers_disturbance(self, sigma1):
        d = bl.DisturbanceSignal(np.array([0.9]), np.array([[0.7], [-0.9]]))
        grid = np.linspace(0, 2, 101)
        u, traj_cl = bl.lift_disturbance(sigma1.system, sigma1.margin, [0.5], d, 2.0)
        d2 = bl.project_input(sigma1.system, sigma1.margin, [0.5], u, 2.0, None, grid)
        for t in grid:
            eta = sigma1.margin(np.linalg.norm(traj_cl.state_at(t)))
            if eta > 1e-6:
                assert np.linalg.norm(d2.eval(t) - d.eval(t)) < 1e-6

    def test_division_guard_at_equilibrium(self, sigma1):
        # phi stays at 0, eta vanishes, yet the input is nonzero: non-dominated
        u = bl.InputSignal.constant([1.0])
        with pytest.raises(bl.DivisionGuardError):
            bl.project_input(sigma1.system, sigma1.margin, [0.0], u, 1.0, None, [0.0, 1.0])

    def test_zero_input_projects_to_zero(self, sigma1):
        u = bl.InputSignal.constant([0.0])
        d = bl.project_input(sigma1.system, sigma1.margin, [0.0], u, 1.0, None, [0.0, 1.0])
        assert d.sup_norm() == 0.0

    @pytest.mark.parametrize("grid", [[0.0, 0.5, 1.0], np.linspace(0.0, 1.0, 11)])
    def test_division_guard_names_first_offending_time(self, sigma1, grid):
        # phi stays at 0 and u is dominated (zero) before t = 0.5, not after
        u = bl.InputSignal([0.5], [[0.0], [1.0]])
        with pytest.raises(bl.DivisionGuardError, match=r"at t=0\.5: margin 0\.0 but"):
            bl.project_input(sigma1.system, sigma1.margin, [0.0], u, 1.0, None, grid)

    @pytest.mark.parametrize("grid", [[0.5, 0.2], [], [0.2, 0.2], [0.0, 1.5], [-0.1, 0.5]])
    def test_rejects_a_bad_grid(self, sigma1, grid):
        # [0.5, 0.2] used to give a signal holding d(0.5) on [0, 0.2), and []
        # to escape as numpy's concatenate error
        u = bl.InputSignal.constant([0.1])
        with pytest.raises(ValueError, match="grid"):
            bl.project_input(sigma1.system, sigma1.margin, [0.5], u, 1.0, None, np.array(grid))

    def test_projection_clipped_to_unit_ball(self, sigma1):
        # u / eta(||phi||) of the lifted unit disturbance exceeds 1 by ~2e-8
        # from integration error; the projection clips it back
        d = bl.DisturbanceSignal.constant([1.0])
        u, _ = bl.lift_disturbance(sigma1.system, sigma1.margin, [0.5], d, 2.0)
        grid = np.linspace(0.0, 2.0, 201)
        back = bl.project_input(sigma1.system, sigma1.margin, [0.5], u, 2.0, None, grid)
        assert back.sup_norm() == 1.0


class TestSampleTdi:
    def test_sampled_inputs_are_members(self, sigma1):
        family = disturbance_family(1, 1.5, 3, seed=2)
        assert len(family) == 3
        for d in family:
            u, _ = bl.lift_disturbance(sigma1.system, sigma1.margin, [0.7], d, 1.5)
            assert domination_gap(sigma1.system, sigma1.margin, [0.7], u, 1.5) <= TOL_MEMBERSHIP


class TestClosedLoopNorm:
    POINTS = [0.0, -0.0, 1e-310, 1e-300, math.exp(-1), 1.0, 3.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("x", [np.array(POINTS), np.array(POINTS)[:, None],
                                   np.array(POINTS[:9]).reshape(3, 3)], ids=["N", "N1", "rows"])
    def test_sum_of_squares_is_linalg_norm(self, x):
        got = np.sqrt((x * x).sum(axis=-1, keepdims=True))
        assert np.array_equal(got, np.linalg.norm(x, axis=-1, keepdims=True), equal_nan=True)

    @pytest.mark.parametrize("name", ["sigma1", "linear"])
    def test_rhs_matches_linalg_norm_form(self, sigma1, name):
        points = np.array(self.POINTS + [-v for v in self.POINTS])
        if name == "sigma1":
            system, margin, x = sigma1.system, sigma1.margin, points[:, None]
        else:  # three states per row, so the norm is a sum of three squares; B = I
            system = bl.make("linear", {"A": np.zeros((3, 3)).tolist()}).system
            margin = bl.make("reaction_diffusion", {"n": 3}).margin
            finite = points[np.isfinite(points)]  # an infinite norm meets B's zeros as inf * 0
            x = np.random.default_rng(9).permutation(np.resize(finite, 60)).reshape(20, 3)
        d = np.random.default_rng(4).uniform(-1.0, 1.0, (len(x), system.input_dim))
        ref = system.rhs(x, d * margin.eta(np.linalg.norm(x, axis=-1, keepdims=True)))
        cl = bl.closed_loop(system, margin)
        assert np.array_equal(cl.rhs(x, d), ref, equal_nan=True)
        assert np.array_equal(cl.rhs(x[3], d[3]), ref[3], equal_nan=True)  # one state


def round_trip_digest(sigma1) -> str:
    """Digest of lift_disturbance -> integrate(u) -> project_input on sigma1,
    under its closed-form margin and under one fitted from reach samples (no
    closed form), for three disturbances with switches: the open-loop steps
    and states under the lifted input, and the recovered disturbance values."""
    fit = bl.fit_additive_bound(bl.sample_reach(sigma1.system, 2.0, 2.0, 40, 5))
    fitted = bl.GrowthMargin(bl.eta_from_chis(fit.chi1, fit.chi2, fit.chi3))
    h = hashlib.sha256()
    grid = np.linspace(0.0, 2.0, 65)
    for margin in (sigma1.margin, fitted):
        for x0, d in zip([0.5, -0.8, 1.3], disturbance_family(1, 2.0, 6, 20240811)[-3:]):
            u, _ = bl.lift_disturbance(sigma1.system, margin, [x0], d, 2.0)
            traj = bl.integrate(sigma1.system, [x0], u, 2.0)
            back = bl.project_input(sigma1.system, margin, [x0], u, 2.0, None, grid)
            for a in (traj.times, traj.states, back.values):
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:32]


# Recorded with numpy 2.4 and scipy 1.17 on x86-64 while FeedbackSignal read
# its trajectory through OdeSolution and its margin on 0-d arrays.
ROUND_TRIP_DIGEST = "9ea8ef0dca2fd9572dd828076bf2b709"


def test_round_trip_is_bit_identical(sigma1):
    assert round_trip_digest(sigma1) == ROUND_TRIP_DIGEST
