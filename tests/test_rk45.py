"""sysdyn's own RK45 against scipy's: the same steps, step for step and bit
for bit; a finished stepper is freed without the cyclic collector; and the
scipy modules a non-stiff pipeline never imports.  scipy is imported here
only as the reference."""

import gc
import json
import math
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import brslab as bl
from brslab import sysdyn
from brslab.sysdyn import _sample_ensemble
from brslab.tdinput import closed_loop

from test_cli import README_CFG


def same(a, b) -> bool:
    """Equal shapes and equal float64 bytes."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def step_both(fun, t0, y0, t_bound, rtol, atol, stop=lambda y: False):
    """Step sysdyn's RK45 and scipy's side by side until both finish or fail,
    or until stop(y) after a step, and compare t, t_old, y, h_abs, status,
    the message and the interpolant's reads at every step.  Returns the
    right-hand side calls of each step and the step size each started from."""
    calls = {}

    def counted(side):
        calls[side] = 0

        def f(t, y):
            calls[side] += 1
            return fun(t, y)

        return f

    ours = sysdyn.RK45(counted("ours"), t0, y0, t_bound, rtol=rtol, atol=atol)
    ref = scipy.integrate.RK45(counted("ref"), t0, y0, t_bound, rtol=rtol, atol=atol)
    assert same(ours.h_abs, ref.h_abs) and calls["ours"] == calls["ref"]
    per_step, started_from = [], []
    while ours.status == "running":
        started_from.append(float(ours.h_abs))
        before = calls["ours"]
        assert ours.step() == ref.step()
        assert ours.status == ref.status and calls["ours"] == calls["ref"]
        assert same(ours.t, ref.t) and same(ours.y, ref.y) and same(ours.h_abs, ref.h_abs)
        if ours.status == "failed":
            break
        assert same(ours.t_old, ref.t_old)
        per_step.append(calls["ours"] - before)
        mine, theirs = ours.dense_output(), ref.dense_output()
        ts = np.linspace(ours.t_old, ours.t, 7)
        assert same(mine(ts), theirs(ts))
        assert same(mine(ts[3]), theirs(ts[3])) and same(mine(float(ts[5])), theirs(float(ts[5])))
        if stop(ours.y):
            break
    return ours, per_step, started_from


def test_stacked_sigma1_closed_loop():
    sigma1 = bl.make("sigma1")
    loop = closed_loop(sigma1.system, sigma1.margin)
    X0 = np.array([[0.6], [-0.4], [1.3], [0.05], [2.0]])
    D = np.array([[1.0], [-0.5], [0.3], [0.0], [-1.0]])
    K = len(X0)

    def fun(t, y):
        return loop.full_rhs(y.reshape(K, 1), D).ravel()

    scale = math.sqrt(K)  # as the sampler divides the tolerances
    solver, per_step, started_from = step_both(fun, 0.0, X0.ravel(), 2.0, 1e-9 / scale,
                                               1e-12 / scale)
    assert solver.status == "finished" and solver.t == 2.0 and len(per_step) > 20
    # the last step is clipped to t_bound, short of the step it started from
    assert solver.t - solver.t_old < started_from[-1]


def test_non_normal_witness_with_a_rejected_step():
    A = np.array([[-1.0, 10.0], [0.0, -1.0]])
    # long after the transient the state is below atol, and the step size
    # meets the stability bound
    solver, per_step, _ = step_both(lambda t, y: A @ y, 0.0, np.array([0.0, 1.0]), 200.0,
                                    1e-6, 1e-9)
    assert solver.status == "finished" and solver.t == 200.0
    assert max(per_step) > 6  # an accepted step costs 6 calls, each rejection 6 more


def test_quadratic_up_to_its_crossing():
    # x' = x^2 from 2 escapes at t = 0.5; step until the norm crosses the
    # blow-up threshold
    quad = bl.make("quadratic").system
    u = np.zeros(1)
    threshold = bl.IntegratorConfig().blowup_threshold
    solver, per_step, _ = step_both(lambda t, y: quad.full_rhs(y, u), 0.0, np.array([2.0]),
                                    1.0, 1e-9, 1e-12, stop=lambda y: abs(y[0]) >= threshold)
    assert solver.status == "running" and abs(solver.y[0]) >= threshold
    assert 0.49 < solver.t < 0.5 and len(per_step) > 100


def test_zero_length_span():
    y0 = np.array([0.3, -0.2])
    solver, per_step, _ = step_both(lambda t, y: -y, 0.7, y0, 0.7, 1e-6, 1e-9)
    assert solver.status == "finished" and solver.t == solver.t_old == 0.7
    assert per_step == [0] and same(solver.y, y0)


def test_tiny_rtol_is_raised_as_scipy_raises_it():
    with pytest.warns(UserWarning, match="rtol"):
        ours = sysdyn.RK45(lambda t, y: -y, 0.0, [1.0], 1.0, rtol=1e-20, atol=1e-12)
    with pytest.warns(UserWarning, match="rtol"):
        ref = scipy.integrate.RK45(lambda t, y: -y, 0.0, [1.0], 1.0, rtol=1e-20, atol=1e-12)
    assert same(ours.rtol, ref.rtol) and same(ours.h_abs, ref.h_abs)


def test_no_stepper_outlives_its_solve(monkeypatch):
    """A finished solve's stepper, with its (7, N n) stages, is freed when
    the solve returns, with the cyclic collector off."""
    alive = []
    choose = sysdyn._solver

    def tracked_solver(*args):
        options = choose(*args)

        class Tracked(options["method"]):
            def __init__(self, *rest, **kwargs):
                super().__init__(*rest, **kwargs)
                alive.append(weakref.ref(self))

        return {**options, "method": Tracked}

    monkeypatch.setattr(sysdyn, "_solver", tracked_solver)
    sigma1 = bl.make("sigma1")
    switching = bl.InputSignal([0.5], [[1.0]], [0.3])  # two solves
    enabled = gc.isenabled()
    gc.disable()
    try:
        _sample_ensemble(sigma1.system, [[0.6], [-0.4]], [switching, switching],
                         [(np.linspace(0.0, 2.0, 9), np.arange(2))], bl.IntegratorConfig())
        still_alive = [ref() is not None for ref in alive]
    finally:
        if enabled:
            gc.enable()
    assert still_alive == [False, False]


# The README pipeline, `simulate` and a sigma1 lift/project round trip in a
# fresh interpreter: which scipy modules they load, and that a stiff solve
# still reaches scipy's BDF.
SPARED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
PIPELINE = """
import json, sys
import numpy as np
import brslab, brslab.cli
from brslab.tdinput import disturbance_family

cfg, out, spared = sys.argv[1], sys.argv[2], sys.argv[3:]
codes = [brslab.cli.main([*stage, "--config", cfg, "--out", out])
         for stage in (["simulate"], ["lyapunov", "build"], ["lyapunov", "verify"])]
sigma1 = brslab.make("sigma1")
d = disturbance_family(1, 2.0, 6, 20240811)[-1]
u, _ = brslab.lift_disturbance(sigma1.system, sigma1.margin, [0.5], d, 2.0)
brslab.project_input(sigma1.system, sigma1.margin, [0.5], u, 2.0, None, np.linspace(0.0, 2.0, 65))
loaded = [m for m in spared if m in sys.modules]
rd = brslab.make("reaction_diffusion", {"n": 32})
traj = brslab.integrate(rd.system, np.full(32, 0.1), brslab.InputSignal.constant([0.5]), 1.0,
                        brslab.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "stiff": [type(s).__name__ for s in traj.steps[:1]]}))
"""


def test_readme_pipeline_loads_no_scipy_solver_module(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CFG))
    src = str(Path(sysdyn.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + PIPELINE,
         str(cfg), str(tmp_path / "out"), *SPARED],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == {"codes": [0, 0, 0], "loaded": [], "stiff": ["BdfDenseOutput"]}
