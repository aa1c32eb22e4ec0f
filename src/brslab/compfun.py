"""Comparison-function calculus on piecewise-linear representations.

Monotone scalar functions (classes K, K-infinity, unit-Lipschitz) are stored
as piecewise-linear interpolants on explicit knots with affine extrapolation.
This keeps the class closed under min/max, inversion and composition, and
makes every class tag checkable in finite time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

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

# Slope floor keeping clamped chords strictly increasing.
EPS_SLOPE = 1e-9

@dataclass(frozen=True)
class ScalarFun:
    """Nondecreasing nonnegative scalar function on knots.

    Evaluation is piecewise-linear between knots and affine with `slope`
    beyond the last knot.  `tags` is a subset of {"K", "Kinf", "Lip1"}.
    `exact` optionally is a closed form used for evaluation instead of
    interpolation; the knots remain authoritative for the class-tag checks,
    for comparison and for JSON, which holds the knots only.
    """

    knots: np.ndarray
    values: np.ndarray
    slope: float
    tags: frozenset = field(default_factory=frozenset)
    exact: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tags", frozenset(self.tags))
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
            raise ValueError("knots/values must be 1-d arrays of equal length >= 2")
        if np.any(np.diff(knots) <= 0) or knots[0] < 0:
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

    def __call__(self, s):
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
        return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out

    def to_json(self) -> str:
        obj = {
            "knots": self.knots.tolist(),
            "values": self.values.tolist(),
            "slope": self.slope,
            "tags": sorted(self.tags),
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScalarFun":
        obj = json.loads(text)
        return cls(
            np.asarray(obj["knots"], dtype=float),
            np.asarray(obj["values"], dtype=float),
            float(obj["slope"]),
            frozenset(obj["tags"]),
        )


def gk_eval(k: int, z):
    """Shifted ramp G_k(z) = max{0, z - 1/k}, elementwise on arrays: the one
    clamp of the Lyapunov series V and of its lower bound alpha1."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"index k must be a positive integer, got {k!r}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0):
        raise ValueError("z must be nonnegative")
    out = np.maximum(0.0, z_arr - 1.0 / k)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def theta(R: float, q: int, c: float) -> float:
    """First time t >= 1 with exp(-t) * (t + R + c) <= 1/q.

    The map is strictly decreasing on [1, inf) and tends to zero, so the
    crossing always exists.  Bisection to absolute tolerance 1e-10; the
    returned point always satisfies the defining inequality.
    """
    if R < 0 or c < 0:
        raise ValueError("R and c must be nonnegative")
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")

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

    Sweeps the knots left to right, clamping every chord slope into
    (EPS_SLOPE, 1].  The result stays below f and strictly increasing.
    """
    if "Kinf" not in f.tags:
        raise ValueError("lip1_minorant requires a Kinf-tagged input")
    knots = f.knots
    fvals = f.values
    out = np.empty_like(fvals)
    out[0] = 0.0
    for i in range(1, knots.size):
        dx = knots[i] - knots[i - 1]
        cand = min(fvals[i], out[i - 1] + dx)
        if cand <= out[i - 1]:
            cand = min(fvals[i], out[i - 1] + EPS_SLOPE * dx)
        out[i] = cand
    slope = min(f.slope, 1.0)
    if slope <= 0:
        slope = EPS_SLOPE
    return ScalarFun(knots.copy(), out, slope, frozenset({"Kinf", "Lip1"}))


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
    funs = [lambda s: np.asarray(s, dtype=float), chi1, chi2, chi3]
    extra = []
    for a, b in zip(grid[:-1], grid[1:]):
        vals_a = [float(f(a)) for f in funs]
        vals_b = [float(f(b)) for f in funs]
        for i in range(4):
            for j in range(i + 1, 4):
                da = vals_a[i] - vals_a[j]
                db = vals_b[i] - vals_b[j]
                if da * db < 0:
                    extra.append(a + (b - a) * da / (da - db))
    if extra:
        grid = np.unique(np.concatenate([grid, extra]))
    stacked = np.vstack([grid, chi1(grid), chi2(grid), chi3(grid)])
    values = 4.0 * stacked.max(axis=0)
    slope = 4.0 * max(1.0, chi1.slope, chi2.slope, chi3.slope)
    return ScalarFun(grid, values, slope, frozenset({"Kinf"}))


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
