"""Registry of concrete systems covering every regularity regime we probe.

Each entry returns the system definition together with machine-checkable
documented properties (closed forms, trajectory bounds, margins) used by the
test suite and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .compfun import ScalarFun
from .sysdyn import _STIFF_RHO_SPAN, SystemDef, _number, _numbers
from .tdinput import GrowthMargin

__all__ = ["ExampleBundle", "make", "list_examples"]

_LOG_GUARD = 1e-300
_E_INV = math.exp(-1)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * ln|x| with the removable singularity at 0 mapped to 0, also for
    |x| < _LOG_GUARD.  Below the guard the log reads the guard and x reads
    -0.0, whose product with that negative log is +0.0."""
    ax = np.abs(x)
    return np.where(ax < _LOG_GUARD, -0.0, x) * np.log(np.maximum(ax, _LOG_GUARD))


def _sigma1_eta(s: np.ndarray) -> np.ndarray:
    """Growth margin for the non-Lipschitz scalar system: -s / (2 ln s) on
    [0, 1/e], s/2 beyond (and at NaN), 0 at s <= _LOG_GUARD.  The log reads
    s clipped to [_LOG_GUARD, 1/e], so it never sees a value it warns on."""
    s = np.asarray(s, dtype=float)
    c = np.minimum(np.maximum(s, _LOG_GUARD), _E_INV)
    small = np.where(s > _LOG_GUARD, c / (-2.0 * np.log(c)), 0.0)
    return np.where(s <= _E_INV, small, 0.5 * s)


def _sigma1_eta_scalarfun() -> ScalarFun:
    knots = np.concatenate(
        [[0.0], np.geomspace(1e-12, 0.9 * _E_INV, 160), np.linspace(0.92 * _E_INV, _E_INV, 20)]
    )
    values = _sigma1_eta(knots)
    return ScalarFun(knots, values, 0.5, frozenset({"Kinf", "Lip1"}), _sigma1_eta)


def _half_margin() -> GrowthMargin:
    """The growth margin eta(s) = s / 2 of `linear` and `reaction_diffusion`."""
    return GrowthMargin(ScalarFun([0.0, 1.0], [0.0, 0.5], 0.5, frozenset({"Kinf", "Lip1"})))


def _sigma1_flow_u1(t: float, x: np.ndarray) -> np.ndarray:
    """Closed-form flow under the constant unit input."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** math.exp(-t)


@dataclass(frozen=True)
class ExampleBundle:
    name: str
    system: SystemDef
    margin: GrowthMargin | None = None
    closed_forms: dict = field(default_factory=dict)
    documented_properties: tuple = ()


def _make_sigma1(params: dict) -> ExampleBundle:
    def rhs(x, u):
        return -np.abs(u) * _xlogx(x)

    sysdef = SystemDef(state_dim=1, input_dim=1, rhs=rhs, name="sigma1")
    return ExampleBundle(
        name="sigma1",
        system=sysdef,
        margin=GrowthMargin(_sigma1_eta_scalarfun()),
        closed_forms={"flow_u1": _sigma1_flow_u1},
        documented_properties=(
            "rhs(x, u) = -|u| x ln|x| with rhs(0, u) = 0",
            "|phi(t, x, u)| <= max{1, |x|}",
            "phi(t, x, 1) = sign(x) |x|^exp(-t); at t = ln 3 the cube root",
            "closed-loop rhs equals |d| x |x| / 2 for |x| <= 1/e and"
            " -|d| x |x| ln|x| / 2 beyond",
            "|d/dx closed-loop rhs| <= max{|x|, x^2}",
        ),
    )


def _make_linear(params: dict) -> ExampleBundle:
    # SystemDef reads A's entries and shape as its linear_part; A.ndim is
    # checked here only because A.shape[0] sets the state dimension and B's default
    A = np.asarray(params.get("A", [[0.0]]))
    if A.ndim != 2:
        raise ValueError(f"A must be a square matrix, got shape {A.shape}")
    B = _numbers("B", params.get("B", np.eye(A.shape[0])))
    if B.ndim != 2 or B.shape[0] != A.shape[0] or B.shape[1] == 0:
        raise ValueError(
            f"B must have {A.shape[0]} rows and at least one column, got shape {B.shape}"
        )

    def rhs(x, u):
        return u @ B.T

    sysdef = SystemDef(
        state_dim=A.shape[0], input_dim=B.shape[1], rhs=rhs, linear_part=A, name="linear"
    )
    return ExampleBundle(
        name="linear",
        system=sysdef,
        margin=_half_margin(),
        documented_properties=("x' = A x + B u",),
    )


def _make_quadratic(params: dict) -> ExampleBundle:
    def rhs(x, u):
        return x * x

    sysdef = SystemDef(state_dim=1, input_dim=1, rhs=rhs, name="quadratic")
    return ExampleBundle(
        name="quadratic",
        system=sysdef,
        closed_forms={"tmax": lambda x0: math.inf if x0 <= 0 else 1.0 / x0},
        documented_properties=("x' = x^2 blows up at t = 1/x0 for x0 > 0",),
    )


def _make_reaction_diffusion(params: dict) -> ExampleBundle:
    # a non-finite a would stall RK45 on NaN steps
    n, a = _number("n", params.get("n", 32), int, ge=1), _number("a", params.get("a", 5.0))
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = -2.0
    lap[idx[:-1], idx[:-1] + 1] = 1.0
    lap[idx[1:], idx[1:] - 1] = 1.0
    A = (n * n) * lap
    b = np.ones(n) / math.sqrt(n)
    rho = n * n * (2.0 + 2.0 * math.cos(math.pi / (n + 1)))  # spectral radius of A

    def rhs(x, u):
        return -a * x**3 / (1.0 + x * x) + b * u[..., :1]

    # d/dx [x^3 / (1 + x^2)] peaks at 9/8; ||b|| = 1.
    L = max(1.125 * a, 1.0)
    sysdef = SystemDef(
        state_dim=n,
        input_dim=1,
        rhs=rhs,
        linear_part=A,
        name="reaction_diffusion",
        lipschitz_hint=lambda C: L,
    )
    return ExampleBundle(
        name="reaction_diffusion",
        system=sysdef,
        margin=_half_margin(),
        documented_properties=(
            f"method-of-lines, {n} cells, Laplacian scaled by n^2",
            "saturating cubic nonlinearity with distributed scalar injection",
            f"rhs Lipschitz constant {L} in state and input jointly",
            f"spectral radius rho(A) = {rho:.4g}, about 4 n^2; integrated with BDF, A as"
            f" Newton matrix, when rho(A) * horizon >= {_STIFF_RHO_SPAN:g}, else RK45",
        ),
    )


# Each example's builder and the params keys it reads.
_REGISTRY: dict[str, tuple[Callable[[dict], ExampleBundle], frozenset]] = {
    "sigma1": (_make_sigma1, frozenset()),
    "linear": (_make_linear, frozenset({"A", "B"})),
    "quadratic": (_make_quadratic, frozenset()),
    "reaction_diffusion": (_make_reaction_diffusion, frozenset({"n", "a"})),
}


def make(name: str, params: dict | None = None) -> ExampleBundle:
    """The example `name` built from `params`; a key it does not read is a
    ValueError, so a misspelt one cannot fall back to the default silently."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown example {name!r}; known: {sorted(_REGISTRY)}")
    build, keys = _REGISTRY[name]
    params = params or {}
    unknown = sorted(set(params) - keys)
    if unknown:
        raise ValueError(
            f"unknown params {unknown} for example {name!r}; known: {sorted(keys)}"
        )
    return build(params)


def list_examples() -> dict:
    """The documented properties of every example, by name."""
    return {
        name: {"documented_properties": list(make(name).documented_properties)}
        for name in sorted(_REGISTRY)
    }
