"""Every numeric argument of a public call is read by sysdyn's one number rule.

A comment on a rejected row says what the call did while the library wrote
its own checks: a wrong answer, a hang or an unrelated error.
"""

import math
import time
from dataclasses import asdict

import numpy as np
import pytest

import brslab as bl
from brslab import sysdyn
from brslab.brscheck import NEAR_ZERO_LADDER
from brslab.tdinput import disturbance_family, seeded_rng

NAN = math.nan


@pytest.fixture(scope="module")
def table():
    return bl.LipschitzTable([1.0] * 14)


def sig(s):
    return s.system, s.margin


def rfc(s, c=0.0, C=1.0, n=2):
    return bl.verify_rfc_tdi(*sig(s), s.margin.eta, c, C, 0.5, n, 3)


def decay(state_dim=1, input_dim=1, linear_part=None):
    """integrate x' = linear_part x - x from (0.5, ...) on the system with these fields."""
    sys_ = bl.SystemDef(state_dim, input_dim, lambda x, u: -x, linear_part=linear_part)
    return bl.integrate(sys_, np.full(int(state_dim), 0.5), bl.InputSignal.constant([0.0]), 1.0)


def project(s, grid, tau=1.0):
    """project_input on sigma1 from 0.5 under the constant input 0.5."""
    return bl.project_input(*sig(s), [0.5], bl.InputSignal.constant([0.5]), tau, None, grid)


# (argument named in the message, call on (sigma1, a Q = 14 unit table))
REJECTED = {
    # returned 2.0
    "theta_nan_R": ("R", lambda s, t: bl.theta(NAN, 2, 0.0)),
    # accepted as q = 1
    "theta_bool_q": ("q", lambda s, t: bl.theta(1.0, True, 0.0)),
    "gk_eval_bool_k": ("k", lambda s, t: bl.gk_eval(True, 0.5)),
    # returned the R = 1 value
    "eval_V_nan_R_override": (
        "R_override",
        lambda s, t: bl.eval_V(*sig(s), [0.5], bl.LyapunovConfig(), t, R_override=NAN)),
    # one radius per state: an entry that is NaN, and one radius too many
    "eval_V_nan_R_override_entry": (
        "R_override", lambda s, t: bl.eval_V(*sig(s), [[0.5], [0.8]], bl.LyapunovConfig(), t,
                                             R_override=[1.0, NAN])),
    "eval_V_R_override_wrong_length": (
        "R_override", lambda s, t: bl.eval_V(*sig(s), [[0.5], [0.8]], bl.LyapunovConfig(), t,
                                             R_override=[1.0, 1.0, 1.0])),
    "eval_V_nan_state": ("x", lambda s, t: bl.eval_V(*sig(s), [NAN], bl.LyapunovConfig(), t)),
    # returned a table
    "build_l_table_nan_c": ("c", lambda s, t: bl.build_l_table(*sig(s), 2, NAN, 1)),
    # built one level
    "build_l_table_bool_Q": ("Q", lambda s, t: bl.build_l_table(*sig(s), True, 0.0, 1)),
    "table_nan_L": ("L", lambda s, t: bl.LipschitzTable([1.0, NAN])),
    "table_nan_c": ("c", lambda s, t: bl.LipschitzTable([1.0], NAN)),
    # a TypeError
    "lyap_M_float_q": ("q", lambda s, t: bl.lyap_M(2.0, 2.0, t)),
    # an IndexError
    "sandwich_nan_s_max": ("s_max", lambda s, t: bl.sandwich_funs(s.margin, t, 14, s_max=NAN)),
    "sandwich_bool_Q": ("Q", lambda s, t: bl.sandwich_funs(s.margin, t, True)),
    # wrote norm_x = -1 beside the V of radius 1
    "radial_table_negative_radius": (
        "radii", lambda s, t: bl.radial_table(*sig(s), [0.5, -1.0], bl.LyapunovConfig(), t)),
    # an IndexError, and a message that named x
    "radial_table_number_radii": (
        "radii", lambda s, t: bl.radial_table(*sig(s), 0.5, bl.LyapunovConfig(), t)),
    "radial_table_empty_radii": (
        "radii", lambda s, t: bl.radial_table(*sig(s), [], bl.LyapunovConfig(), t)),
    "radial_table_2d_radii": (
        "radii", lambda s, t: bl.radial_table(*sig(s), [[0.5], [1.0]], bl.LyapunovConfig(), t)),
    # read True as 1.0 and '0.5' as 0.5
    "project_input_bool_grid_entry": ("grid", lambda s, t: project(s, [0.0, 0.5, True])),
    "project_input_string_grid_entry": ("grid", lambda s, t: project(s, ["0", "0.5"])),
    # a message that named the grid
    "project_input_nan_tau": ("tau", lambda s, t: project(s, [0.0, 0.5], NAN)),
    "verify_growth_nan_x": (
        "x", lambda s, t: bl.verify_growth(*sig(s), [NAN], [0.1], bl.LyapunovConfig(), t)),
    "verify_growth_nan_u": (
        "u_value", lambda s, t: bl.verify_growth(*sig(s), [0.5], [NAN], bl.LyapunovConfig(), t)),
    # integrated as one state and one input
    "system_bool_state_dim": ("state_dim", lambda s, t: decay(True)),
    "system_bool_input_dim": ("input_dim", lambda s, t: decay(2, True)),
    # an x0 shape error that expected (1.5,)
    "system_fractional_state_dim": ("state_dim", lambda s, t: decay(1.5)),
    # a LinAlgError from the solver choice
    "system_nan_linear_part": ("linear_part", lambda s, t: decay(2, 1, [[NAN, 0.0], [0.0, 1.0]])),
    # numpy's matmul error inside the first solve
    "system_wrong_shape_linear_part": ("linear_part", lambda s, t: decay(2, 1, np.eye(3))),
    # hung in the solver
    "integrate_nan_input": (
        "values",
        lambda s, t: bl.integrate(s.system, [0.5], bl.InputSignal.constant([NAN]), 1.0)),
    "integrate_nan_state": (
        "x0", lambda s, t: bl.integrate(s.system, [NAN], bl.InputSignal.constant([0.0]), 1.0)),
    # read as no switch by integrate, as a switch by the sampler
    "nan_breakpoint": ("breakpoints", lambda s, t: bl.InputSignal([NAN], [[1.0], [0.0]])),
    "nan_segment_value": ("values", lambda s, t: bl.InputSignal([0.5], [[NAN], [0.0]])),
    # returned nan
    "gronwall_nan_M": ("M_sg", lambda s, t: bl.gronwall_bound(NAN, 0.0, 1.0, 1.0)),
    "gronwall_nan_lambda": ("lambda_sg", lambda s, t: bl.gronwall_bound(1.0, NAN, 1.0, 1.0)),
    # "math domain error"
    "semigroup_negative_t_cert": (
        "t_cert", lambda s, t: bl.semigroup_growth(np.eye(2), t_cert=-1.0)),
    "semigroup_nan_A": ("A", lambda s, t: bl.semigroup_growth([[NAN]])),
    # probed only the near-zero ladder
    "openloop_negative_pairs": (
        "pairs", lambda s, t: bl.probe_lipschitz_openloop(s.system, 0.5, 1.0, -2, 0)),
    # probed one random pair
    "openloop_bool_pairs": (
        "pairs", lambda s, t: bl.probe_lipschitz_openloop(s.system, 0.5, 1.0, True, 0)),
    # a TypeError
    "openloop_float_pairs": (
        "pairs", lambda s, t: bl.probe_lipschitz_openloop(s.system, 0.5, 1.0, 1.5, 0)),
    "openloop_nan_C": ("C", lambda s, t: bl.probe_lipschitz_openloop(s.system, 0.5, NAN, 1, 0)),
    "tdi_nan_tau_level": (
        "tau", lambda s, t: bl.probe_lipschitz_tdi(*sig(s), [0.5, NAN], [1.0, 1.0], 1, 0)),
    "tdi_bool_pairs": ("pairs", lambda s, t: bl.probe_lipschitz_tdi(*sig(s), 0.5, 1.0, True, 0)),
    # accepted as one state
    "rfc_bool_n": ("n", lambda s, t: rfc(s, n=True)),
    # a TypeError
    "rfc_float_n": ("n", lambda s, t: rfc(s, n=2.5)),
    # a report with holds: false
    "rfc_nan_c": ("c", lambda s, t: rfc(s, c=NAN)),
    "rfc_negative_offset": ("c", lambda s, t: rfc(s, c=np.array([0.0, -1.0]))),
    # scipy's y0 message
    "rfc_nan_C": ("C", lambda s, t: rfc(s, C=NAN)),
    # drew seed 1's stream
    "seeded_rng_bool_seed": ("seed", lambda s, t: seeded_rng(True, "reach_samples")),
    "sample_reach_nan_seed": ("seed", lambda s, t: bl.sample_reach(s.system, 1.0, 0.5, 2, NAN)),
    # returned: no member, pair or input was drawn, so the seed went unread
    "disturbance_family_nan_seed": ("seed", lambda s, t: disturbance_family(1, 1.0, 3, NAN)),
    # returned four zero-width members
    "disturbance_family_zero_input_dim": (
        "input_dim", lambda s, t: disturbance_family(0, 1.0, 4, 0)),
    # numpy TypeErrors, and numpy's "negative dimensions"
    "disturbance_family_bool_input_dim": (
        "input_dim", lambda s, t: disturbance_family(True, 1.0, 3, 0)),
    "disturbance_family_fractional_input_dim": (
        "input_dim", lambda s, t: disturbance_family(1.5, 1.0, 3, 0)),
    "disturbance_family_negative_input_dim": (
        "input_dim", lambda s, t: disturbance_family(-1, 1.0, 3, 0)),
    "tdi_bool_seed_no_draw": (
        "seed", lambda s, t: bl.probe_lipschitz_tdi(*sig(s), 0.5, 1.0, 0, True, n_dist=1)),
    "openloop_nan_seed_no_draw": (
        "seed", lambda s, t: bl.probe_lipschitz_openloop(s.system, 0.5, 1.0, 0, NAN,
                                                         u_fixed=bl.InputSignal.constant([0.0]))),
    # float arrays, read in one vectorised pass: NaN, inf and a bound
    "system_nan_linear_part_array": (
        "linear_part", lambda s, t: decay(2, 1, np.array([[0.0, NAN], [0.0, 1.0]]))),
    "integrate_inf_state_array": (
        "x0", lambda s, t: bl.integrate(s.system, np.array([math.inf]),
                                        bl.InputSignal.constant([0.0]), 1.0)),
    "radial_table_negative_radius_array": (
        "radii", lambda s, t: bl.radial_table(*sig(s), np.array([0.5, -1.0]),
                                              bl.LyapunovConfig(), t)),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_before_integrating(sigma1, table, monkeypatch, case):
    name, call = REJECTED[case]

    def no_run(*args):
        raise AssertionError("integrated before reading the arguments")

    monkeypatch.setattr(sysdyn, "_run", no_run)  # integrate's and the sampler's one run loop
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(sigma1, table)
    assert time.perf_counter() - start < 1.0


# (call on sigma1, the same call with Python scalars): edge values that stay
# accepted, and numpy scalars, which read as the numbers they hold
ACCEPTED = {
    "theta_numpy": (lambda s: bl.theta(np.float64(1.0), np.int64(2), np.float64(0.0)),
                    lambda s: bl.theta(1.0, 2, 0.0)),
    "gk_eval_numpy": (lambda s: bl.gk_eval(np.int32(2), 0.7), lambda s: bl.gk_eval(2, 0.7)),
    "gronwall_zero_L_and_tau": (lambda s: bl.gronwall_bound(np.float64(1.0), -1, 0, 0.0),
                                lambda s: 1.0),
    "rfc_zero_offset_numpy": (lambda s: asdict(rfc(s, c=np.float64(0.0), C=np.float64(1.0),
                                                   n=np.int64(2))),
                              lambda s: asdict(rfc(s, c=0.0, C=1.0, n=2))),
    "openloop_zero_pairs": (
        lambda s: bl.probe_lipschitz_openloop(s.system, 0.5, 1.0, 0, 0).pair_count,
        lambda s: len(NEAR_ZERO_LADDER)),
    "tdi_one_disturbance": (
        lambda s: asdict(bl.probe_lipschitz_tdi(*sig(s), 0.5, 1.0, np.int64(0), 0,
                                                n_dist=np.int64(1))),
        lambda s: asdict(bl.probe_lipschitz_tdi(*sig(s), 0.5, 1.0, 0, 0, n_dist=1))),
    # the state 0 stays at 0, where every U_q is 0
    "radius_zero": (lambda s: bl.radial_table(*sig(s), [0.0], bl.LyapunovConfig(),
                                              bl.LipschitzTable([1.0] * 14))["V"].tolist(),
                    lambda s: [1.0]),
    "seed_numpy": (lambda s: seeded_rng(np.int64(5), "reach_samples").uniform(),
                   lambda s: seeded_rng(5, "reach_samples").uniform()),
}


@pytest.mark.parametrize("case", list(ACCEPTED))
def test_edge_values_accepted(sigma1, case):
    call, same = ACCEPTED[case]
    assert call(sigma1) == same(sigma1)


# (entries, bounds): a float array is read in one pass, and the message names
# its first bad entry as the entry-by-entry read of the same nested list does
ARRAY_ENTRIES = {
    "nan": ([0.5, NAN, -1.0], {}),
    "inf": ([[0.5, 1.0], [-math.inf, NAN]], {}),
    "ge": ([[0.5, 1.0], [0.0, -1e-300]], {"ge": 0}),
    "gt": ([1.0, 0.0, -2.0], {"gt": 0}),
    "float32": (np.array([1.5, -0.25], dtype=np.float32), {"ge": 0}),
}


@pytest.mark.parametrize("case", list(ARRAY_ENTRIES))
def test_float_array_message_names_the_first_bad_entry(case):
    entries, bounds = ARRAY_ENTRIES[case]
    with pytest.raises(ValueError) as by_entry:
        sysdyn._numbers("v", np.asarray(entries).tolist(), **bounds)
    with pytest.raises(ValueError) as by_array:
        sysdyn._numbers("v", np.asarray(entries), **bounds)
    assert str(by_array.value) == str(by_entry.value)
    assert str(by_array.value).startswith("v must be ")


def test_closed_loop_reads_the_linear_part_in_one_pass(monkeypatch):
    rd = bl.make("reaction_diffusion", {"n": 64})
    read = []
    number = sysdyn._number

    def counted(name, *args, **kwargs):
        read.append(name)
        return number(name, *args, **kwargs)

    monkeypatch.setattr(sysdyn, "_number", counted)
    loop = bl.closed_loop(rd.system, rd.margin)
    assert read == ["state_dim", "input_dim"]  # no entry of the 64 x 64 matrix
    assert np.array_equal(loop.linear_part, rd.system.linear_part)


# times `state_at` rejects by the number rule; a comment says what it did
# while OdeSolution read them
STATE_AT_REJECTED = {
    # returned [nan]
    "nan": NAN,
    "numpy_nan": np.float32(NAN),
    "nan_0d_array": np.array(NAN),
    "nan_entry": [0.5, NAN],
    # read the end state
    "inf": math.inf,
    "negative_inf_entry": np.array([0.5, -math.inf]),
    # read as t = 1
    "bool": True,
    # numpy's "truth value of an array ... is ambiguous"
    "2d_array": np.zeros((2, 2)),
}


@pytest.mark.parametrize("case", list(STATE_AT_REJECTED))
def test_state_at_reads_t_by_the_number_rule(sigma1, case):
    traj = bl.integrate(sigma1.system, [0.5], bl.InputSignal.constant([0.0]), 1.0)
    with pytest.raises(ValueError, match=r"^t must be "):
        traj.state_at(STATE_AT_REJECTED[case])


@pytest.mark.parametrize("t", [np.array([]), []])
def test_state_at_reads_no_times_as_no_states(sigma1, t):
    # numpy's "need at least one array to concatenate"
    traj = bl.integrate(sigma1.system, [0.5], bl.InputSignal.constant([0.0]), 1.0)
    assert traj.state_at(t).shape == (0, 1)
