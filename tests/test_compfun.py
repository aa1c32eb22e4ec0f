import json
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

    def test_json_roundtrip(self):
        f = pl([0.0, 1.0, 3.0], [0.0, 0.5, 1.5], slope=0.25, tags=("Kinf", "Lip1"))
        g = ScalarFun.from_json(f.to_json())
        assert np.array_equal(f.knots, g.knots)
        assert np.array_equal(f.values, g.values)
        assert f.slope == g.slope and f.tags == g.tags

    def test_exact_form_evaluates_and_json_holds_the_knots(self):
        eta = __import__("brslab").make("sigma1").margin.eta
        s = 0.2
        assert eta(s) == pytest.approx(-s / (2 * math.log(s)), abs=1e-15)
        g = ScalarFun.from_json(eta.to_json())
        assert g.exact is None and np.array_equal(g.knots, eta.knots)
        assert g(s) == np.interp(s, eta.knots, eta.values)


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
