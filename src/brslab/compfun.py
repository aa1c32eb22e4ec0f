"""Comparison-function calculus on piecewise-linear representations.

Monotone scalar functions (classes K, K-infinity, unit-Lipschitz) are stored
as piecewise-linear interpolants on explicit knots with affine extrapolation.
This keeps the class closed under min/max, inversion and composition, and
makes every class tag checkable in finite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .sysdyn import _number

__all__ = [
    "ScalarFun",
    "gk_eval",
    "theta",
    "lip1_minorant",
    "inverse",
    "build_alpha",
    "eta_from_chis",
    "chi_from_eta",
]


@dataclass(frozen=True, eq=False)
class ScalarFun:
    """Nondecreasing nonnegative scalar function on knots.

    Evaluation is piecewise-linear between knots and affine with `slope`
    beyond the last knot.  `tags` is a subset of {"K", "Kinf", "Lip1"}.
    `exact` optionally is a closed form used for evaluation instead of
    interpolation; the knots remain authoritative for the class-tag checks
    and for the CLI's JSON copy, which holds the knots only.  `==` and `hash` go by
    identity.
    """

    knots: np.ndarray
    values: np.ndarray
    slope: float
    tags: frozenset = field(default_factory=frozenset)
    exact: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tags", frozenset(self.tags))
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
            raise ValueError("knots/values must be 1-d arrays of equal length >= 2")
        # vectorised, not `_numbers` (6 against 470 us on sigma1's 181-knot
        # margin): the program builds these from its own arrays only
        if not (np.isfinite(knots).all() and np.isfinite(values).all()):
            raise ValueError("knots and values must be finite")
        if not np.all(np.diff(knots) > 0) or knots[0] < 0:
            raise ValueError("knots must be strictly increasing and nonnegative")
        if np.any(values < 0) or np.any(np.diff(values) < 0):
            raise ValueError("values must be nonnegative and nondecreasing")
        if not math.isfinite(self.slope):
            raise ValueError("extrapolation slope must be finite")
        if "K" in self.tags or "Kinf" in self.tags:
            if knots[0] != 0.0 or values[0] != 0.0:
                raise ValueError("class-K functions must have a knot (0, 0)")
            if np.any(np.diff(values) <= 0):
                raise ValueError("class-K functions must be strictly increasing")
        if "Kinf" in self.tags and self.slope <= 0:
            raise ValueError("class-Kinf functions need extrapolation slope > 0")
        if "Lip1" in self.tags:
            chords = np.diff(values) / np.diff(knots)
            if np.any(chords > 1 + 1e-12) or self.slope > 1 + 1e-12:
                raise ValueError("Lip1 tag requires all slopes <= 1")
        # the last knot, its value and the slope past it as floats, for
        # __call__'s float path
        object.__setattr__(
            self, "_end", (float(knots[-1]), float(values[-1]), float(self.slope))
        )

    def __call__(self, s):
        if self.exact is None and isinstance(s, float):
            # one float, as a margin call on one state: the array path's
            # arithmetic without its dispatch on 0-d arrays, the same bits
            knot, value, slope = self._end
            if s > knot:
                return float(value + slope * (s - knot))
            return float(np.interp(s, self.knots, self.values))
        s_arr = np.asarray(s, dtype=float)
        if self.exact is not None:
            out = self.exact(s_arr)
        else:
            out = np.interp(s_arr, self.knots, self.values)
            over = s_arr > self.knots[-1]
            if np.any(over):
                out = np.where(
                    over, self.values[-1] + self.slope * (s_arr - self.knots[-1]), out
                )
        return float(out) if s_arr.ndim == 0 else out


def gk_eval(k: int, z):
    """Shifted ramp G_k(z) = max{0, z - 1/k}, elementwise on arrays: the one
    clamp of the Lyapunov series V and of its lower bound alpha1."""
    k = _number("k", k, int, ge=1)
    z_arr = np.asarray(z, dtype=float)
    if not np.all(z_arr >= 0):
        raise ValueError("z must be nonnegative")
    out = np.maximum(0.0, z_arr - 1.0 / k)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None, typed=True)  # typed: a bool q is no hit on the int's entry
def theta(R: float, q: int, c: float) -> float:
    """First time t >= 1 with exp(-t) * (t + R + c) <= 1/q.

    The map is strictly decreasing on [1, inf) and tends to zero, so the
    crossing always exists.  Bisection to absolute tolerance 1e-10; the
    returned point always satisfies the defining inequality.
    """
    R, q, c = _number("R", R, ge=0), _number("q", q, int, ge=1), _number("c", c, ge=0)

    def g(t: float) -> float:
        return math.exp(-t) * (t + R + c)

    target = 1.0 / q
    if g(1.0) <= target:
        return 1.0
    lo, hi = 1.0, 2.0
    while g(hi) > target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def lip1_minorant(f: ScalarFun) -> ScalarFun:
    """Largest-practical K-inf minorant of f with unit Lipschitz constant.

    Sweeps the knots left to right, clamping every chord slope and the
    extrapolation slope to at most 1.  The Kinf tag makes f strictly
    increasing with a slope > 0, so the result stays below f with every
    slope in (0, 1] (a chord step under half an ulp would come out flat,
    which the constructor rejects).
    """
    if "Kinf" not in f.tags:
        raise ValueError("lip1_minorant requires a Kinf-tagged input")
    knots = f.knots
    fvals = f.values
    out = np.empty_like(fvals)
    out[0] = 0.0
    for i in range(1, knots.size):
        out[i] = min(fvals[i], out[i - 1] + (knots[i] - knots[i - 1]))
    return ScalarFun(knots.copy(), out, min(f.slope, 1.0), frozenset({"Kinf", "Lip1"}))


def inverse(f: ScalarFun) -> ScalarFun:
    """Piecewise-linear inverse obtained by swapping knot coordinates."""
    if "Kinf" not in f.tags:
        raise ValueError("inverse requires a Kinf-tagged input")
    if np.any(np.diff(f.values) <= 0):
        raise ValueError("cannot invert: values are not strictly increasing")
    return ScalarFun(f.values.copy(), f.knots.copy(), 1.0 / f.slope, frozenset({"Kinf"}))


def _union_grid(*funs: ScalarFun) -> np.ndarray:
    grid = np.unique(np.concatenate([f.knots for f in funs]))
    if grid[0] != 0.0:
        grid = np.concatenate([[0.0], grid])
    return grid


def build_alpha(chi1: ScalarFun, chi2: ScalarFun, chi3: ScalarFun) -> ScalarFun:
    """alpha(s) = 4 max{s, chi1(s), chi2(s), chi3(s)}.

    The union knot grid is augmented with the pairwise crossing points of the
    component pieces, so the piecewise-linear result equals the max exactly
    inside the knot range (a plain chord between union knots could dip below
    it between crossings).  Beyond the range the extrapolation slope is the
    max of the component slopes, which dominates.
    """
    for chi in (chi1, chi2, chi3):
        if "K" not in chi.tags and "Kinf" not in chi.tags:
            raise ValueError("each chi must be tagged class K")
    grid = _union_grid(chi1, chi2, chi3)
    stacked = np.vstack([grid, chi1(grid), chi2(grid), chi3(grid)])
    # each pair's difference at the union knots, one row per pair: a chord
    # crosses where its ends differ in sign, and only there is it divided
    # (on parallel pieces the division would be 0/0)
    i, j = np.triu_indices(4, 1)
    diff = stacked[i] - stacked[j]
    da, db = diff[:, :-1], diff[:, 1:]
    pair, col = np.nonzero(da * db < 0)
    if col.size:
        a, b, da, db = grid[col], grid[col + 1], da[pair, col], db[pair, col]
        grid = np.unique(np.concatenate([grid, a + (b - a) * da / (da - db)]))
        stacked = np.vstack([grid, chi1(grid), chi2(grid), chi3(grid)])
    values = 4.0 * stacked.max(axis=0)
    # a crossing computed one ulp past a knot can repeat the max there: keep
    # the points where it strictly rises
    rises = values > np.maximum.accumulate(np.concatenate([[-np.inf], values[:-1]]))
    slope = 4.0 * max(1.0, chi1.slope, chi2.slope, chi3.slope)
    return ScalarFun(grid[rises], values[rises], slope, frozenset({"Kinf"}))


def eta_from_chis(chi1: ScalarFun, chi2: ScalarFun, chi3: ScalarFun) -> ScalarFun:
    """Unit-Lipschitz K-inf growth margin below half the inverse of alpha."""
    alpha = build_alpha(chi1, chi2, chi3)
    alpha_inv = inverse(alpha)
    half_inv = ScalarFun(
        alpha_inv.knots.copy(),
        alpha_inv.values / 2.0,
        alpha_inv.slope / 2.0,
        frozenset({"Kinf"}),
    )
    return lip1_minorant(half_inv)


def chi_from_eta(eta: ScalarFun) -> ScalarFun:
    """chi(s) = eta^{-1}(2 s), the premise gauge paired with margin eta."""
    eta_inv = inverse(eta)
    return ScalarFun(
        eta_inv.knots / 2.0,
        eta_inv.values.copy(),
        2.0 * eta_inv.slope,
        frozenset({"Kinf"}),
    )
