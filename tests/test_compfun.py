import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brslab.compfun import (
    ScalarFun,
    build_alpha,
    chi_from_eta,
    eta_from_chis,
    gk_eval,
    inverse,
    lip1_minorant,
    theta,
)


def pl(knots, values, slope=1.0, tags=()):
    return ScalarFun(np.asarray(knots, float), np.asarray(values, float), slope, frozenset(tags))


class TestScalarFun:
    def test_interpolation_and_extrapolation(self):
        f = pl([0.0, 1.0, 2.0], [0.0, 2.0, 3.0], slope=0.5)
        assert f(0.5) == pytest.approx(1.0)
        assert f(2.0) == pytest.approx(3.0)
        assert f(4.0) == pytest.approx(3.0 + 0.5 * 2.0)
        out = f(np.array([0.5, 4.0]))
        assert out.shape == (2,)

    def test_rejects_decreasing_knots(self):
        with pytest.raises(ValueError):
            pl([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    # a NaN knot or value passed every comparison
    @pytest.mark.parametrize("knots, values, slope", [
        ([0.0, math.nan], [0.0, 1.0], 1.0), ([0.0, 1.0], [0.0, math.nan], 1.0),
        ([0.0, math.inf], [0.0, 1.0], 1.0), ([0.0, 1.0], [0.0, 1.0], math.nan)])
    def test_rejects_non_finite(self, knots, values, slope):
        with pytest.raises(ValueError, match="finite"):
            ScalarFun(knots, values, slope)

    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError):
            pl([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])

    def test_k_tag_needs_zero_at_zero(self):
        with pytest.raises(ValueError):
            pl([0.0, 1.0], [0.5, 1.0], tags=("K",))

    def test_k_tag_needs_strict_increase(self):
        with pytest.raises(ValueError):
            pl([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], tags=("K",))

    def test_lip1_tag_rejects_steep_chord(self):
        with pytest.raises(ValueError):
            pl([0.0, 1.0], [0.0, 1.5], tags=("Lip1",))


class TestGk:
    def test_values(self):
        assert gk_eval(1, 0.5) == 0.0
        assert gk_eval(2, 0.75) == pytest.approx(0.25)
        assert gk_eval(4, 0.25) == 0.0

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            gk_eval(0, 1.0)
        with pytest.raises(ValueError):
            gk_eval(1, -0.1)

    def test_elementwise_on_arrays(self):
        z = np.array([[0.0, 0.25], [0.75, 2.0]])
        assert np.array_equal(gk_eval(2, z), [[0.0, 0.0], [0.25, 1.5]])
        assert gk_eval(2, z).shape == z.shape
        with pytest.raises(ValueError):
            gk_eval(2, np.array([1.0, -0.1]))
        with pytest.raises(ValueError, match="z must be nonnegative"):
            gk_eval(2, np.array([1.0, math.nan]))

    @given(
        st.floats(0, 50), st.floats(0, 50), st.integers(1, 100)
    )
    def test_contraction(self, z1, z2, k):
        assert abs(gk_eval(k, z1) - gk_eval(k, z2)) <= abs(z1 - z2) + 1e-12

    @given(st.floats(0, 50), st.floats(1, 20), st.integers(1, 100))
    def test_scaling(self, z, a, k):
        assert gk_eval(k, a * z) <= a * gk_eval(k, z) + (a - 1) / k + 1e-12


class TestTheta:
    def test_derived_base_case(self):
        assert theta(0.0, 1, 0.0) == 1.0

    def test_defining_inequality(self):
        t = theta(3.0, 5, 1.0)
        assert math.exp(-t) * (t + 4.0) <= 1.0 / 5
        assert math.exp(-(t - 1e-6)) * (t - 1e-6 + 4.0) > 1.0 / 5

    def test_monotone_in_R(self):
        for q in (1, 3, 7):
            ts = [theta(float(R), q, 0.5) for R in range(10)]
            assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            theta(-1.0, 1, 0.0)
        with pytest.raises(ValueError):
            theta(1.0, 0, 0.0)


class TestLip1Minorant:
    def test_clamps_and_stays_below(self):
        f = pl([0.0, 1.0, 2.0], [0.0, 3.0, 3.5], slope=2.0, tags=("Kinf",))
        g = lip1_minorant(f)
        assert {"Kinf", "Lip1"} <= g.tags
        s = np.linspace(0, 5, 200)
        assert np.all(g(s) <= f(s) + 1e-12)
        assert np.all(np.diff(g(s)) > 0)
        chords = np.diff(g.values) / np.diff(g.knots)
        assert np.all(chords <= 1 + 1e-12)

    def test_requires_kinf(self):
        with pytest.raises(ValueError):
            lip1_minorant(pl([0.0, 1.0], [0.0, 0.5]))


class TestInverse:
    def test_roundtrip(self):
        f = pl([0.0, 1.0, 2.0], [0.0, 3.0, 5.0], slope=2.0, tags=("Kinf",))
        g = inverse(f)
        y = np.linspace(0, 8, 50)
        assert np.allclose(f(g(y)), y, atol=1e-12)

    def test_requires_kinf(self):
        with pytest.raises(ValueError):
            inverse(pl([0.0, 1.0], [0.0, 1.0]))


class TestAlphaAndMargins:
    def chis(self):
        c1 = pl([0.0, 1.0, 2.0], [0.0, 0.5, 2.0], slope=1.5, tags=("Kinf",))
        c2 = pl([0.0, 0.5, 2.0], [0.0, 1.0, 1.5], slope=0.5, tags=("Kinf",))
        c3 = pl([0.0, 2.0], [0.0, 3.0], slope=1.5, tags=("Kinf",))
        return c1, c2, c3

    def test_build_alpha_is_scaled_max(self):
        c1, c2, c3 = self.chis()
        a = build_alpha(c1, c2, c3)
        s = np.linspace(0, 2, 100)  # knot range: exact equality
        expect = 4 * np.max([s, c1(s), c2(s), c3(s)], axis=0)
        assert np.allclose(a(s), expect, atol=1e-12)
        s = np.linspace(2, 5, 40)  # beyond the knots: domination
        expect = 4 * np.max([s, c1(s), c2(s), c3(s)], axis=0)
        assert np.all(np.asarray(a(s)) >= expect - 1e-12)

    def test_build_alpha_takes_a_crossing_an_ulp_past_a_knot(self):
        # chi1 and chi2 cross one ulp past chi1's knot 3.3, where 4 max then
        # took the knot's value again
        c1 = pl([0, 1, 1.7, 1.9, 3.3], [0, 0.3, 2.2, 3.2, 5.6], 0.16673857255993715, ("K",))
        c2 = pl([0, 5.5], [0, 3.3], 1.8101077023225267, ("K",))
        c3 = pl([0, 0.9, 2.5, 4.1, 4.8], [0, 1.9, 2.9, 3.7, 4.4], 0.9554234582161816, ("K",))
        a = build_alpha(c1, c2, c3)
        assert np.all(np.diff(a.values) > 0)
        s = np.linspace(0, 5.5, 200)
        expect = 4 * np.max([s, c1(s), c2(s), c3(s)], axis=0)
        assert np.allclose(a(s), expect, rtol=1e-12, atol=1e-12)

    def test_eta_from_chis_is_dominated_margin(self):
        c1, c2, c3 = self.chis()
        eta = eta_from_chis(c1, c2, c3)
        assert {"Kinf", "Lip1"} <= eta.tags
        a = build_alpha(c1, c2, c3)
        ainv = inverse(a)
        s = np.linspace(0, 4, 100)
        assert np.all(eta(s) <= ainv(s) / 2 + 1e-9)

    def test_chi_from_eta_inverts_half(self):
        eta = pl([0.0, 1.0, 3.0], [0.0, 0.5, 1.0], slope=0.25, tags=("Kinf", "Lip1"))
        chi = chi_from_eta(eta)
        s = np.linspace(0.0, 3.0, 40)
        # chi(eta(s)/2) recovers s on the knot range
        assert np.allclose(chi(np.asarray(eta(s)) / 2), s, atol=1e-9)


@pytest.fixture(scope="module")
def fitted_funs():
    """A fitted chi, the unit-Lipschitz margin and alpha built from the fit
    of sigma1 samples, as reach_tdi's chain builds them."""
    import brslab as bl

    fit = bl.fit_additive_bound(bl.sample_reach(bl.make("sigma1").system, 2.0, 3.0, 40, 5))
    return {
        "fitted": fit.chi1,
        "Lip1": eta_from_chis(fit.chi1, fit.chi2, fit.chi3),
        "alpha": build_alpha(fit.chi1, fit.chi2, fit.chi3),
    }


def bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestScalarPath:
    """A float argument takes __call__'s Python-float path; a 0-d or a 1-d
    array the array path.  Both give the same bits."""

    SPECIAL = [0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf]

    def assert_same_bits(self, f, points):
        with np.errstate(over="ignore"):  # numpy warns where the tail overflows to inf
            stacked = f(np.array(points))
            zero_d = [f(np.array(s)) for s in points]
        for s, ref, ref0 in zip(points, stacked, zero_d):
            got = f(s)
            assert type(got) is float
            assert bits(got) == bits(ref) == bits(ref0), s

    @pytest.mark.parametrize("name", ["fitted", "Lip1", "alpha"])
    def test_knots_between_and_past(self, fitted_funs, name):
        f = fitted_funs[name]
        k = f.knots
        points = k.tolist() + ((k[:-1] + k[1:]) / 2).tolist()
        points += [k[-1] * 1.5, k[-1] + 1e-9, float(np.nextafter(k[-1], np.inf))] + self.SPECIAL
        self.assert_same_bits(f, points)

    @pytest.mark.parametrize("name", ["fitted", "Lip1", "alpha"])
    @given(s=st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=200, deadline=None)
    def test_any_float(self, fitted_funs, name, s):
        self.assert_same_bits(fitted_funs[name], [s])

    @given(s=st.floats(min_value=-1.0, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_np_float64_takes_the_float_path(self, fitted_funs, s):
        f = fitted_funs["Lip1"]
        assert bits(f(np.float64(s))) == bits(f(s))
