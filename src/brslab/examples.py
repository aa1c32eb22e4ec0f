"""Registry of concrete systems covering every regularity regime we probe.

Each entry returns the system definition together with machine-checkable
documented properties (closed forms, trajectory bounds, margins) used by the
test suite and the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .compfun import ScalarFun
from .sysdyn import _STIFF_RHO_SPAN, SystemDef
from .tdinput import GrowthMargin

__all__ = ["ExampleBundle", "make", "list_examples"]

_LOG_GUARD = 1e-300


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * ln|x| with the removable singularity at 0 mapped to 0."""
    ax = np.abs(x)
    safe = np.where(ax < _LOG_GUARD, 1.0, ax)
    return np.where(ax < _LOG_GUARD, 0.0, x * np.log(safe))


def _sigma1_eta(s: np.ndarray) -> np.ndarray:
    """Growth margin for the non-Lipschitz scalar system: -s / (2 ln s) on
    [0, 1/e], s/2 beyond."""
    s = np.asarray(s, dtype=float)
    small = (s > _LOG_GUARD) & (s <= math.exp(-1))
    safe = np.where(small, s, 0.5)
    out = np.where(small, -safe / (2.0 * np.log(safe)), 0.5 * s)
    return np.where(s <= _LOG_GUARD, 0.0, out)


def _sigma1_eta_scalarfun() -> ScalarFun:
    e_inv = math.exp(-1)
    knots = np.concatenate(
        [[0.0], np.geomspace(1e-12, 0.9 * e_inv, 160), np.linspace(0.92 * e_inv, e_inv, 20)]
    )
    values = _sigma1_eta(knots)
    return ScalarFun(knots, values, 0.5, frozenset({"Kinf", "Lip1"}), _sigma1_eta)


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

    sysdef = SystemDef(
        state_dim=1,
        input_dim=1,
        rhs=rhs,
        name="sigma1",
        lipschitz_hint=lambda C: max(C, C * C),
    )
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


def _make_sigma2(params: dict) -> ExampleBundle:
    def rhs(x, u):
        return -_xlogx(x)

    sysdef = SystemDef(state_dim=1, input_dim=1, rhs=rhs, name="sigma2")
    return ExampleBundle(
        name="sigma2",
        system=sysdef,
        closed_forms={"flow": _sigma1_flow_u1},
        documented_properties=(
            "undisturbed: rhs ignores u; equals sigma1 with u fixed at 1",
        ),
    )


def _make_linear(params: dict) -> ExampleBundle:
    A = np.asarray(params.get("A", [[0.0]]), dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"A must be a non-empty square matrix, got shape {A.shape}")
    B = np.asarray(params.get("B", np.eye(A.shape[0])), dtype=float)
    if B.ndim != 2 or B.shape[0] != A.shape[0] or B.shape[1] == 0:
        raise ValueError(
            f"B must have {A.shape[0]} rows and at least one column, got shape {B.shape}"
        )
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("A and B must have finite entries")

    def rhs(x, u):
        return u @ B.T

    sysdef = SystemDef(
        state_dim=A.shape[0],
        input_dim=B.shape[1],
        rhs=rhs,
        linear_part=A,
        name="linear",
        lipschitz_hint=lambda C: float(np.linalg.norm(B, 2)),
    )
    return ExampleBundle(
        name="linear",
        system=sysdef,
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
    n = int(params.get("n", 32))
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    a = float(params.get("a", 5.0))
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
    eta = ScalarFun(
        np.array([0.0, 1.0]), np.array([0.0, 0.5]), 0.5, frozenset({"Kinf", "Lip1"})
    )
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
        margin=GrowthMargin(eta),
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
    "sigma2": (_make_sigma2, frozenset()),
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


def list_examples() -> str:
    listing = {
        name: {"documented_properties": list(make(name).documented_properties)}
        for name in sorted(_REGISTRY)
    }
    return json.dumps(listing, indent=2, sort_keys=True)
