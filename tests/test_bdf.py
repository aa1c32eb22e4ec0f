"""sysdyn's own BDF against scipy's: the same steps, step for step and bit
for bit, with one state's Newton matrix (LAPACK) and a stack's one Newton
block (its inverse in numpy's BLAS), which solves as scipy.linalg does on
the whole block-diagonal matrix; its LAPACK calls check as scipy.linalg's
wrappers do; a finished stepper is freed without the cyclic collector; and
sysdyn's brentq returns scipy's roots to the bit.  scipy is imported here
only as the reference."""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

import brslab as bl
from brslab import sysdyn
from brslab.sysdyn import _sample_ensemble

from test_rk45 import same


def step_both(fun, t0, y0, t_bound, rtol, atol, jac):
    """Step sysdyn's BDF and scipy's side by side until both finish or fail,
    and compare t, t_old, y, h_abs, order, status, the message, the
    right-hand side calls and the interpolant's reads at every step: an
    array read against scipy's array read of the same times, and a float
    read against scipy's array read of that time among them.  For a stack,
    y0 of rows * n components with jac the n x n block A, scipy's stepper
    is built on the whole kron(I_rows, A) and then handed sysdyn's block:
    its identity, A, factor and solve, the only parts of the Newton matrix
    its step reads.  Returns the stepper, the orders of the steps taken and
    the step size each started from."""
    calls = {}

    def counted(side):
        calls[side] = 0

        def f(t, y):
            calls[side] += 1
            return fun(t, y)

        return f

    ours = sysdyn.BDF(counted("ours"), t0, y0, t_bound, rtol=rtol, atol=atol, jac=jac)
    n, rows = jac.shape[0], np.size(y0) // jac.shape[0]
    ref = scipy.integrate.BDF(counted("ref"), t0, y0, t_bound, rtol=rtol, atol=atol,
                              jac=np.kron(np.identity(rows), jac) if rows > 1 else jac)
    if rows > 1:
        ref.I, ref.J = np.identity(n), jac
        ref.lu, ref.solve_lu = np.linalg.inv, sysdyn._block_solve
    assert same(ours.h_abs, ref.h_abs) and calls["ours"] == calls["ref"]
    orders, started_from = [], []
    while ours.status == "running":
        started_from.append(float(ours.h_abs))
        orders.append(int(ours.order))
        assert ours.step() == ref.step()
        assert ours.status == ref.status and calls["ours"] == calls["ref"]
        assert same(ours.t, ref.t) and same(ours.y, ref.y) and same(ours.h_abs, ref.h_abs)
        assert ours.order == ref.order
        if ours.status == "failed":
            break
        assert same(ours.t_old, ref.t_old)
        mine, theirs = ours.dense_output(), ref.dense_output()
        ts = np.linspace(ours.t_old, ours.t, 7)
        want = theirs(ts)
        assert same(mine(ts), want)
        for i in (0, 3, 6):
            assert same(mine(float(ts[i])), want[:, i]) and same(mine(ts[i]), want[:, i])
            assert same(mine(ts[i:i + 1]), want[:, i:i + 1])
    return ours, orders, started_from


def rd_problem(n):
    rd = bl.make("reaction_diffusion", {"n": n}).system
    u = np.array([0.5])
    x0 = np.sin(math.pi * np.linspace(0.0, 1.0, n + 2)[1:-1])
    return (lambda t, y: rd.full_rhs(y, u)), x0, rd.linear_part


@pytest.mark.parametrize("n", [8, 32])
def test_reaction_diffusion_dense(n):
    fun, x0, A = rd_problem(n)
    solver, orders, started_from = step_both(fun, 0.0, x0, 1.0, 1e-6, 1e-9, A)
    assert solver.status == "finished" and solver.t == 1.0
    assert set(orders) == {1, 2, 3, 4, 5}  # up to the highest order
    # the last step is clipped to t_bound, short of the step it started from
    assert solver.t - solver.t_old < started_from[-1]


def test_block_stack_of_reaction_diffusion():
    fun, x0, A = rd_problem(8)
    rows = 4
    X0 = np.outer(np.linspace(0.5, 2.0, rows), x0)
    U = np.linspace(-1.0, 1.0, rows)[:, None]
    rd = bl.make("reaction_diffusion", {"n": 8}).system

    def stacked(t, y):
        return rd.full_rhs(y.reshape(rows, 8), U).ravel()

    jac = sysdyn._solver(A, 1e4)["jac"]  # the n x n block, for a stack too
    assert jac is A
    scale = math.sqrt(rows)  # as `_run` divides the tolerances
    solver, orders, _ = step_both(stacked, 0.0, X0.ravel(), 1.0, 1e-6 / scale, 1e-9 / scale, jac)
    assert solver.status == "finished" and max(orders) == 5
    assert solver.solve_lu is sysdyn._block_solve and solver.I.shape == (8, 8)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_block_solve_is_the_block_diagonal_solve(rows):
    # the inverse of the one block I - c A, applied to each row of b, solves
    # the whole system (I - c kron(I_rows, A)) x = b, at step sizes from
    # the first to the largest a reaction_diffusion solve takes
    _, _, A = rd_problem(32)
    rng = np.random.default_rng(20240811 + rows)
    for c in (1e-6, 1e-3, 0.1):
        inverse = np.linalg.inv(np.identity(32) - c * A)
        big = np.identity(32 * rows) - c * np.kron(np.identity(rows), A)
        for _ in range(4):
            b = rng.standard_normal(32 * rows)
            want = scipy.linalg.solve(big, b)
            got = sysdyn._block_solve(inverse, b.copy())
            assert got.shape == b.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (c, rows)


def test_rejected_steps_and_a_newton_failure(monkeypatch):
    # the cubic term, left out of the Newton matrix, makes the simplified
    # Newton iteration fail once, which halves the step, and rejects steps
    # on their error estimate
    converged = []
    newton = sysdyn.BDF._newton

    def recorded(self, *args):
        result = newton(self, *args)
        converged.append(result[0])
        return result

    monkeypatch.setattr(sysdyn.BDF, "_newton", recorded)
    A = np.array([[-1000.0, 0.0], [0.0, -1.0]])

    def fun(t, y):
        return A @ y - 1000.0 * y ** 3 + np.array([0.0, math.sin(10.0 * t)])

    solver, orders, _ = step_both(fun, 0.0, np.array([1.0, 1.0]), 2.0, 1e-6, 1e-9, A)
    assert solver.status == "finished" and solver.t == 2.0
    assert any(b < a for a, b in zip(orders, orders[1:]))  # the order falls too
    failures = converged.count(False)
    assert failures >= 1
    assert len(converged) - len(orders) - failures > 0  # steps rejected on their error


def test_zero_length_span():
    fun, x0, A = rd_problem(8)
    solver, orders, _ = step_both(fun, 0.7, x0, 0.7, 1e-6, 1e-9, A)
    assert solver.status == "finished" and solver.t == solver.t_old == 0.7
    assert same(solver.y, x0) and same(solver.dense_output()(0.7), x0)


def test_lapack_calls_check_as_scipy_linalg_does():
    factor, solve = sysdyn._lapack_lu()
    rng = np.random.default_rng(20240811)
    M, b = rng.standard_normal((6, 6)), rng.standard_normal(6)
    lu, piv = factor(M.copy())
    ref_lu, ref_piv = scipy.linalg.lu_factor(M)
    assert same(lu, ref_lu) and np.array_equal(piv, ref_piv)
    assert same(solve((lu, piv), b.copy()), scipy.linalg.lu_solve((ref_lu, ref_piv), b))
    with pytest.warns(scipy.linalg.LinAlgWarning, match="Diagonal number 1 is exactly zero"):
        factor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="infs or NaNs"):
        factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve((lu, piv), np.full(6, np.inf))


@pytest.mark.parametrize("rows", [1, 3])
def test_no_bdf_stepper_outlives_its_solve(monkeypatch, rows):
    """A finished stiff solve's stepper, on the n x n Newton block for one
    row and a stack alike, is freed when the solve returns, with the cyclic
    collector off."""
    alive, blocks = [], []
    choose = sysdyn._solver

    def tracked_solver(*args):
        options = choose(*args)
        assert options["method"] is sysdyn.BDF

        class Tracked(options["method"]):
            def __init__(self, *rest, **kwargs):
                super().__init__(*rest, **kwargs)
                alive.append(weakref.ref(self))
                blocks.append(self.J.shape)

        return {**options, "method": Tracked}

    monkeypatch.setattr(sysdyn, "_solver", tracked_solver)
    rd = bl.make("reaction_diffusion", {"n": 32}).system
    cfg = bl.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)
    switching = bl.InputSignal([0.5], [[0.5], [-0.5]])  # two solves
    X0 = np.full((rows, 32), 0.1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _sample_ensemble(rd, X0, [switching] * rows,
                         [(np.linspace(0.0, 1.0, 9), np.arange(rows))], cfg)
        still_alive = [ref() is not None for ref in alive]
    finally:
        if enabled:
            gc.enable()
    assert still_alive == [False, False] and blocks == [(32, 32)] * 2


def test_brentq_takes_scipys_root_to_the_bit():
    # 20,000 random brackets of four kinds of function, at the tolerances
    # `_run` searches a blow-up crossing with: the same points evaluated, in
    # the same order, and the same root
    rng = np.random.default_rng(20240811)
    tol = sysdyn._ROOT_TOL
    kinds = [
        lambda r, k: (lambda x: (x - r) * (1.0 + k * (x - r) ** 2)),
        lambda r, k: (lambda x: math.expm1(k * (x - r))),
        lambda r, k: (lambda x: math.tanh(k * (x - r))),
        lambda r, k: (lambda x: math.atan(k * (x - r)) + 0.1 * (x - r) ** 3),
    ]
    for i in range(20_000):
        a, r, b = np.sort(rng.uniform(-10.0, 10.0, 3)).tolist()
        f = kinds[i % 4](r, float(rng.uniform(0.1, 5.0)))
        seen = {"ours": [], "ref": []}

        def at(side):
            return lambda x: seen[side].append(x) or f(x)

        want = scipy.optimize.brentq(at("ref"), a, b, xtol=tol, rtol=tol)
        got = sysdyn._brentq(at("ours"), a, b, tol, tol)
        assert same(got, want) and same(seen["ours"], seen["ref"]), (i, a, r, b)


def test_brentq_errors_as_scipy():
    tol = sysdyn._ROOT_TOL
    with pytest.raises(ValueError, match="different signs"):
        sysdyn._brentq(lambda x: x * x + 1.0, -1.0, 1.0, tol, tol)
    with pytest.raises(ValueError, match="is NaN"):
        sysdyn._brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, tol, tol)
    assert sysdyn._brentq(lambda x: x, 0.0, 1.0, tol, tol) == 0.0
    # rounding about a triple root keeps both from meeting 4 eps in 100 steps
    cubic = lambda x: (x - 0.3) ** 3  # noqa: E731
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        scipy.optimize.brentq(cubic, -1.0, 2.0, xtol=tol, rtol=tol)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        sysdyn._brentq(cubic, -1.0, 2.0, tol, tol)
