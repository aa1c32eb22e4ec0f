import json
import math
import re

import numpy as np
import pytest

import brslab as bl
import brslab.examples as examples


class TestRegistry:
    def test_listing_is_json(self):
        listing = bl.list_examples()
        assert json.loads(json.dumps(listing)) == listing
        assert set(listing) == {
            "linear", "quadratic", "reaction_diffusion", "sigma1"
        }
        for entry in listing.values():
            assert entry["documented_properties"]

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown example"):
            bl.make("does-not-exist")

    @pytest.mark.parametrize(
        "name, params, unknown",
        [("reaction_diffusion", {"N": 8}, ["N"]),
         ("reaction_diffusion", {"n": 8, "alpha": 1.0}, ["alpha"]),
         ("linear", {"A": [[0.0]], "b": [[1.0]]}, ["b"]),
         ("sigma1", {"n": 1}, ["n"]),
         ("quadratic", {"x": 0, "y": 1}, ["x", "y"])],
    )
    def test_unknown_params_key_is_named(self, name, params, unknown):
        message = f"unknown params {unknown} for example {name!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            bl.make(name, params)

    # a bool or a numeric string was read as a number
    @pytest.mark.parametrize(
        "params", [{"A": [[math.nan]]}, {"A": [[0.0]], "B": [[math.inf]]},
                   {"A": [[True]]}, {"A": [["-1"]]}, {"B": [[False]]}]
    )
    def test_linear_rejects_non_finite_entries(self, params):
        with pytest.raises(ValueError, match="finite"):
            bl.make("linear", params)

    # a NaN or infinite `a` stalled RK45; a bool or fractional `n` was truncated
    @pytest.mark.parametrize(
        "params, key",
        [({"n": 4, "a": math.nan}, "a"), ({"n": 4, "a": math.inf}, "a"),
         ({"n": True}, "n"), ({"n": 2.7}, "n"), ({"n": "8"}, "n")],
        ids=["a-nan", "a-inf", "n-bool", "n-float", "n-str"],
    )
    def test_reaction_diffusion_rejects_bad_n_or_a(self, params, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            bl.make("reaction_diffusion", params)

    def test_known_params_still_apply(self):
        assert bl.make("reaction_diffusion", {"n": 8, "a": 2.0}).system.state_dim == 8
        assert bl.make("linear", {"A": [[0.0, 1.0], [0.0, 0.0]]}).system.input_dim == 2


class TestSigma1:
    def test_rhs_matches_formula(self, sigma1):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            x = rng.uniform(-4, 4)
            u = rng.uniform(-4, 4)
            got = sigma1.system.rhs(np.array([x]), np.array([u]))[0]
            expect = 0.0 if x == 0 else -abs(u) * x * math.log(abs(x))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_rhs_zero_at_origin(self, sigma1):
        assert sigma1.system.rhs(np.array([0.0]), np.array([7.0]))[0] == 0.0

    def test_closed_form_flow(self, sigma1):
        flow = sigma1.closed_forms["flow_u1"]
        for x in (-1.0, -0.125, 0.125, 0.729, 1.0):
            assert flow(math.log(3), np.array([x]))[0] == pytest.approx(
                math.copysign(abs(x) ** (1 / 3), x)
            )

    def test_margin_formula_and_lipschitz(self, sigma1):
        eta = sigma1.margin.eta
        s = 0.2
        assert eta(s) == pytest.approx(-s / (2 * math.log(s)), abs=1e-15)
        assert eta(1.0) == pytest.approx(0.5)
        chords = np.diff(eta.values) / np.diff(eta.knots)
        assert np.all(chords <= 1 + 1e-12)

    def test_trajectory_bound_sampled(self, sigma1):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x0 = rng.uniform(-3, 3)
            u = bl.InputSignal.constant([rng.uniform(-3, 3)])
            traj = bl.integrate(sigma1.system, [x0], u, rng.uniform(0.1, 4.0))
            assert traj.norms().max() <= max(1.0, abs(x0)) + 1e-9

    def test_closed_loop_derivative_bound(self, sigma1):
        cl = bl.closed_loop(sigma1.system, sigma1.margin)
        rng = np.random.default_rng(29)
        h = 1e-7
        for _ in range(200):
            x = rng.uniform(-2.5, 2.5)
            if min(abs(x), abs(abs(x) - math.exp(-1))) < 1e-3:
                continue
            d = np.array([rng.uniform(-1, 1)])
            deriv = (cl.rhs(np.array([x + h]), d) - cl.rhs(np.array([x - h]), d))[0] / (2 * h)
            assert abs(deriv) <= max(abs(x), x * x) + 1e-4


class TestLinear:
    def test_variation_of_constants(self):
        # oracle: x(t) = e^{-t} x0 + (1 - e^{-t}) u for A = -I, B = I
        b = bl.make("linear", {"A": (-np.eye(2)).tolist(), "B": np.eye(2).tolist()})
        x0 = np.array([1.0, -2.0])
        uv = np.array([0.5, 0.25])
        traj = bl.integrate(b.system, x0, bl.InputSignal.constant(uv), 1.5)
        expect = math.exp(-1.5) * x0 + (1 - math.exp(-1.5)) * uv
        assert np.allclose(traj.states[-1], expect, atol=1e-8)


class TestQuadratic:
    def test_tmax_closed_form(self):
        q = bl.make("quadratic")
        assert q.closed_forms["tmax"](2.0) == 0.5
        assert math.isinf(q.closed_forms["tmax"](-1.0))


class TestReactionDiffusion:
    def test_laplacian_structure(self):
        b = bl.make("reaction_diffusion", {"n": 8})
        A = b.system.linear_part
        assert A.shape == (8, 8)
        assert np.all(np.diag(A) == -2 * 64)
        assert np.all(np.diag(A, 1) == 64)
        ev = np.linalg.eigvalsh(A)
        assert ev.max() < 0

    def test_rhs_formula(self):
        b = bl.make("reaction_diffusion", {"n": 4, "a": 2.0})
        x = np.array([0.5, -1.0, 0.0, 2.0])
        u = np.array([0.3])
        got = b.system.rhs(x, u)
        expect = -2.0 * x**3 / (1 + x * x) + np.ones(4) / 2.0 * 0.3
        assert np.allclose(got, expect, atol=1e-12)

    def test_no_blowup_on_unit_ball(self):
        b = bl.make("reaction_diffusion")
        rng = np.random.default_rng(37)
        x0 = rng.standard_normal(32)
        x0 /= np.linalg.norm(x0)
        traj = bl.integrate(
            b.system, x0, bl.InputSignal.constant([1.0]), 1.0,
            bl.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9),
        )
        assert not traj.blew_up


# The sigma1 kernels as they were written with one np.where per case: the
# references the leaner kernels must reproduce bit for bit.
def xlogx_where(x):
    ax = np.abs(x)
    safe = np.where(ax < 1e-300, 1.0, ax)
    return np.where(ax < 1e-300, 0.0, x * np.log(safe))


def sigma1_eta_where(s):
    s = np.asarray(s, dtype=float)
    small = (s > 1e-300) & (s <= math.exp(-1))
    safe = np.where(small, s, 0.5)
    out = np.where(small, -safe / (2.0 * np.log(safe)), 0.5 * s)
    return np.where(s <= 1e-300, 0.0, out)


E_INV = math.exp(-1)
KERNEL_POINTS = [0.0, -0.0, 1e-310, 1e-300, np.nextafter(E_INV, 0.0), E_INV,
                 np.nextafter(E_INV, 1.0), 1.0, math.nan, math.inf, -math.inf]


def kernel_inputs():
    """Every point as a 0-d array, and all of them, negated too, as (N,) and (N, 1)."""
    points = np.array(KERNEL_POINTS + [-v for v in KERNEL_POINTS])
    return [np.array(v) for v in points] + [points, points[:, None]]


def assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))  # == cannot tell -0.0 from 0.0


class TestSigma1Kernels:
    @pytest.mark.parametrize("x", kernel_inputs(), ids=repr)
    def test_xlogx_matches_where_form(self, x):
        assert_same_bits(examples._xlogx(x), xlogx_where(x))

    @pytest.mark.parametrize("s", kernel_inputs(), ids=repr)
    def test_eta_matches_where_form(self, s):
        assert_same_bits(examples._sigma1_eta(s), sigma1_eta_where(s))

    def test_random_points_match_where_forms(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(-2.0, 2.0, 500), rng.uniform(-1.0, 1.0, 500) ** 9,
                            np.geomspace(1e-320, 1e3, 500)])
        assert_same_bits(examples._xlogx(x), xlogx_where(x))
        assert_same_bits(examples._sigma1_eta(np.abs(x)), sigma1_eta_where(np.abs(x)))
