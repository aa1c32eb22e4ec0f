import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import brslab as bl
from brslab import cli
from brslab.cli import _config_hash, main
from brslab.compfun import theta
from brslab.lyapunov import _COLUMNS, LipschitzTable, radial_table


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def sigma1_cfg(tmp_path, **extra):
    cfg = {"system": {"name": "sigma1"}, "seed": 42}
    cfg.update(extra)
    return write_cfg(tmp_path, cfg)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_loads(text):
    """Parse RFC 8259 JSON: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


class TestUsageErrors:
    def test_missing_config(self, capsys):
        assert main(["simulate"]) == 2

    def test_missing_seed(self, tmp_path):
        path = write_cfg(tmp_path, {"system": {"name": "sigma1"}})
        assert main(["simulate", "--config", path]) == 2

    def test_unknown_system(self, tmp_path):
        path = write_cfg(tmp_path, {"system": {"name": "nope"}, "seed": 1})
        assert main(["simulate", "--config", path]) == 2

    def test_broken_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_bad_eta_source(self, tmp_path):
        path = write_cfg(
            tmp_path, {"system": {"name": "sigma1"}, "seed": 1, "eta_source": "x"}
        )
        assert main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "extra",
        [
            {"x0": [1.0, 2.0]},
            {"x0": []},
            {"x0": 0.5},
            {"x0": ["a"]},
            {"u_constant": [1.0, 2.0]},
            # a NaN state escaped as scipy's traceback, an infinite input as
            # a step-size "integrator error"
            {"x0": [math.nan]},
            {"u_constant": [math.inf]},
            {"integrator": {"rel_tol": 0.0}},
            {"integrator": {"order": 5}},
            {"integrator": {"dense_output_grid": 0.5}},
            {"integrator": [1e-6]},
            {"horizon": "x"},
            {"horizon": 1e400},
            {"horizon": -1.0},
            {"seed": "abc"},
            {"seed": -1},
            # past float range: escaped as an OverflowError traceback
            {"seed": 10**400},
            {"horizon": 0},
            {"system": {"name": "linear", "params": [1]}},
            {"system": {"name": "linear", "params": {"A": "x"}}},
            {"system": {"name": "linear", "params": {"A": [[1.0, 2.0]]}}},
            {"system": {"name": "reaction_diffusion", "params": {"n": 0}}},
            {"system": {"name": "linear", "params": {"A": [[math.nan]]}}},
            # a NaN `a` hung RK45; a bool or fractional `n` was truncated
            {"system": {"name": "reaction_diffusion", "params": {"n": 4, "a": math.nan}}},
            {"system": {"name": "reaction_diffusion", "params": {"n": True}}},
            {"system": {"name": "reaction_diffusion", "params": {"n": 2.7}}},
            {"system": {"name": "reaction_diffusion", "params": {"n": "8"}}},
            # a number is a JSON number, not a bool or a string: these exited 0
            {"horizon": "1.5"},
            {"horizon": True},
            {"x0": [True]},
            {"u_constant": ["1.0"]},
            {"integrator": {"rel_tol": "1e-6"}},
            {"integrator": {"rel_tol": True}},
            # past float range: escaped as an OverflowError traceback
            {"integrator": {"rel_tol": 10**400}},
            {"x0": [10**400]},
            # linear's A and B follow the same rule: these ran as 1, -1 and 0
            {"system": {"name": "linear", "params": {"A": [[True]]}}},
            {"system": {"name": "linear", "params": {"A": [["-1"]]}}},
            {"system": {"name": "linear", "params": {"B": [[False]]}}},
            # a misspelt system key fell back to the default n = 32 and exited 0
            {"system": {"name": "reaction_diffusion", "parms": {"n": 4}}},
        ],
    )
    def test_wrong_shape_or_setting_in_simulate(self, tmp_path, capsys, extra):
        cfg = sigma1_cfg(tmp_path, **{"horizon": 0.5, **extra})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "cmd, key",
        [
            (["simulate"], "x0"),
            (["simulate"], "u_constant"),
            (["lipschitz", "probe", "--mode", "open"], "u_constant"),
        ],
    )
    def test_non_finite_vector_is_named(self, tmp_path, capsys, cmd, key):
        cfg = sigma1_cfg(tmp_path, **{"horizon": 0.5, "samples": 2, key: [-math.inf]})
        assert main([*cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key} must hold finite numbers" in capsys.readouterr().err

    # integer settings follow LyapunovConfig's rule: an int, not a bool
    @pytest.mark.parametrize(
        "cmd, extra",
        [
            (["simulate"], {"seed": True}),
            (["simulate"], {"seed": 42.9}),
            (["simulate"], {"seed": "3"}),
            (["brs", "fit"], {"samples": 2.7}),
            (["rfc", "verify"], {"samples": False}),
            (["lipschitz", "probe", "--mode", "open"], {"samples": "3"}),
            (["lyapunov", "verify"], {"growth_pairs": 1.5}),
            (["lyapunov", "verify"], {"growth_pairs": True}),
            (["lyapunov", "verify"], {"growth_pairs": "2"}),
        ],
    )
    def test_integer_setting_must_be_an_integer(self, tmp_path, capsys, cmd, extra):
        cfg = sigma1_cfg(tmp_path, **{"C": 1.0, "horizon": 0.5, "samples": 2, "c": 0.0, **extra})
        assert main([*cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        key = next(iter(extra))
        assert f"config error: {key} must be an integer" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*"))

    def test_wrong_length_u_constant_in_open_probe(self, tmp_path, capsys):
        cfg = sigma1_cfg(tmp_path, horizon=0.5, samples=2, u_constant=[1.0, 2.0])
        assert main(["lipschitz", "probe", "--mode", "open", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "u_constant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, extra",
        [
            (["brs", "fit"], {"samples": "many"}),
            (["brs", "fit"], {"C": -1.0}),
            (["rfc", "verify"], {"c": [0.0]}),
            (["lyapunov", "build"], {"radii": "ab"}),
            (["lyapunov", "build"], {"radii": []}),
            (["lyapunov", "build"], {"radii": [-1.0, 1.0]}),
            (["lyapunov", "build"], {"radii": [0.0, None]}),
            (["lyapunov", "verify"], {"growth_pairs": "two"}),
            (["lyapunov", "build"], {"lyapunov": [1]}),
            (["brs", "fit"], {"horizon": 0}),
            (["brs", "fit"], {"C": 0}),
            (["rfc", "verify"], {"horizon": 0}),
            (["lipschitz", "probe", "--mode", "tdi"], {"horizon": 0}),
            (["lipschitz", "probe", "--mode", "open"], {"C": 0}),
            (["lyapunov", "build"], {"lyapunov": {"Q": 14.5}}),
            (["lyapunov", "build"], {"lyapunov": {"n_dist": 2.5}}),
            (["lyapunov", "build"], {"lyapunov": {"time_grid_density": 2.5}}),
            (["lyapunov", "build"], {"lyapunov": {"seed": -1}}),
            (["lyapunov", "build"], {"lyapunov": {"seed": 1.5}}),
            (["lyapunov", "build"], {"lyapunov": {"tail_tol": math.nan}}),
            (["lyapunov", "verify"], {"lyapunov": {"tol_growth": "x"}}),
            (["lyapunov", "verify"], {"lyapunov": {"dini_h_ladder": []}}),
            # no reach samples left the fit with nothing to bound
            (["brs", "fit"], {"samples": 0}),
            (["rfc", "verify"], {"samples": 0, "eta_source": "from_fit"}),
            (["lyapunov", "build"], {"samples": 0, "eta_source": "from_fit"}),
            # retired keys: a valid value of each used to be read
            (["lyapunov", "verify"], {"lyapunov": {"dini_h_ladder": [0.02, 0.002]}}),
            (["lyapunov", "verify"], {"lyapunov": {"tol_growth": 0.2}}),
            (["lyapunov", "verify"], {"lyapunov": {"growth_abs_slack": 0.1}}),
            (["lyapunov", "build"], {"lyapunov": {"integrator": {"rel_tol": 1e-6}}}),
            # the disturbances of U_q draw from the top-level seed, stamped on every artifact
            (["lyapunov", "build"], {"lyapunov": {"seed": 7}}),
            (["simulate"], {"integrator": {"max_step": 0.1}}),
            # a check on no states or pairs held vacuously and exited 0
            (["rfc", "verify"], {"samples": 0}),
            (["lyapunov", "verify"], {"growth_pairs": 0}),
            # a bool or a numeric string was read as a number
            (["brs", "fit"], {"C": True}),
            (["rfc", "verify"], {"c": False}),
            (["lyapunov", "build"], {"radii": ["0.5", 1.0]}),
            (["lyapunov", "build"], {"lyapunov": {"tail_tol": True}}),
            # past float range: written into the manifest as a 401-digit integer
            (["lyapunov", "build"], {"lyapunov": {"tail_tol": 10**400}}),
            # a misspelt top-level key fell back to its default
            (["simulate"], {"horizn": 5}),
        ],
    )
    def test_bad_scalar_or_radii_setting(self, tmp_path, capsys, cmd, extra):
        cfg = sigma1_cfg(tmp_path, **{"C": 1.0, "horizon": 0.5, "samples": 2, "c": 0.0, **extra})
        assert main([*cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        # the message names the setting: a block's own key, or its first key
        key, value = next(iter(extra.items()))
        if isinstance(value, dict):
            key = next(iter(value))
        assert "config error" in err and key in err
        assert not any((tmp_path / "o").glob("*"))

    def test_step_size_underflow_is_integrator_error(self, tmp_path, capsys):
        # x' = x^2 from 1 blows up at t = 1; with the threshold at 1e300 the
        # step size underflows before the blow-up event can stop the solver
        cfg = write_cfg(
            tmp_path,
            {"system": {"name": "quadratic"}, "seed": 1, "x0": [1.0], "horizon": 2.0,
             "integrator": {"blowup_threshold": 1e300}},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "integrator error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("rel_tol", "nan"), ("rel_tol", "inf"), ("abs_tol", "nan"), ("abs_tol", "inf"),
         ("blowup_threshold", "nan"), ("blowup_threshold", "inf")],
    )
    def test_non_finite_integrator_setting(self, tmp_path, capsys, field, value):
        # a NaN tolerance would never accept a step, a NaN threshold never fire
        cfg = sigma1_cfg(tmp_path, x0=[0.5], horizon=1.0, integrator={field: value})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "integrator settings" in err and field in err

    def test_unknown_system_params_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"system": {"name": "reaction_diffusion", "params": {"N": 8}},
                                   "seed": 1, "horizon": 0.1})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown params ['N']" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*"))

    def test_tail_budget_is_config_error(self, tmp_path, capsys):
        cfg = sigma1_cfg(tmp_path, c=0.0, radii=[0.0, 5.0], lyapunov={"Q": 3})
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "minimal admissible Q is 11" in capsys.readouterr().err

    @pytest.mark.parametrize("radius, min_q", [(1e300, 1008), (2e4, 26)])
    def test_huge_radius_fails_the_tail_budget_first(self, tmp_path, capsys, radius, min_q):
        # V's tail check comes before the sandwich bounds are built out to
        # the radius (1e300 knots would not fit in memory, 2e4 took seconds)
        cfg = sigma1_cfg(tmp_path, c=0.0, radii=[radius])
        start = time.perf_counter()
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"minimal admissible Q is {min_q}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["build", "verify"])
    def test_tail_budget_fails_before_the_lipschitz_probe(self, tmp_path, capsys, monkeypatch,
                                                          cmd):
        def probe(*args):
            raise AssertionError("build_l_table ran before the tail budget check")

        monkeypatch.setattr(cli, "build_l_table", probe)
        cfg = sigma1_cfg(tmp_path, c=0.0, radii=[0.5, 2e4])
        assert main(["lyapunov", cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "minimal admissible Q is 26" in capsys.readouterr().err

    def test_minimal_q_past_the_float_range(self, tmp_path, capsys):
        # (1 + ||x|| + c) / tail_tol overflows; its log2 does not
        cfg = sigma1_cfg(tmp_path, c=1e308, radii=[1.0])
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        min_q = int(re.search(r"minimal admissible Q is (\d+)", err).group(1))
        assert min_q == 1035  # 1 + log2(1e308 / 1e-3), rounded up

    @pytest.mark.parametrize("cmd", ["build", "verify"])
    def test_rfc_offset_search_needs_samples(self, tmp_path, capsys, cmd):
        # with no c the offset is searched, and on no states every offset holds
        cfg = sigma1_cfg(tmp_path, C=1.0, horizon=0.5, samples=0)
        assert main(["lyapunov", cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "samples must be an integer >= 1" in err
        assert not any((tmp_path / "o").glob("*"))


class TestStrictJson:
    def test_simulate_without_blowup_writes_null_t_max(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, x0=[0.5], u_constant=[1.0], horizon=1.0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = strict_loads((out / "simulate.json").read_text())
        assert meta["t_max"] is None and meta["blew_up"] is False

    def test_diverged_open_probe_writes_null_estimate(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, horizon=1.0, C=1.0, samples=2, u_constant=[1.0])
        out = tmp_path / "out"
        assert main(["lipschitz", "probe", "--mode", "open", "--config", cfg,
                     "--out", str(out)]) == 0
        rep = strict_loads((out / "lipschitz_open.json").read_text())
        assert rep["diverged"] and rep["L_estimate"] is None


class TestSimulate:
    def test_cube_root_final_row(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, x0=[0.729], u_constant=[1.0], horizon=math.log(3))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert abs(rows[-1, 1] - 0.9) < 1e-6 * 0.9
        meta = json.loads((out / "simulate.json").read_text())
        assert meta["seed"] == 42 and "config_hash" in meta

    def test_determinism_byte_identical(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, x0=[0.5], u_constant=[1.0], horizon=1.0)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()

    def test_start_above_blowup_threshold_writes_t_max_zero(self, tmp_path):
        path = write_cfg(tmp_path, {"system": {"name": "quadratic"}, "seed": 1,
                                    "x0": [2e9], "u_constant": [0.0]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        meta = strict_loads((out / "simulate.json").read_text())
        assert meta["blew_up"] and meta["t_max"] == 0.0
        assert meta["final_state"] == [2e9]

    def test_threshold_whose_square_overflows(self, tmp_path, capsys):
        # x' = x from 1 crosses 1e200 at ln(1e200); squaring the threshold
        # used to end this run in an OverflowError traceback
        path = write_cfg(tmp_path, {"system": {"name": "linear", "params": {"A": [[1.0]]}},
                                    "seed": 1, "x0": [1.0], "u_constant": [0.0],
                                    "horizon": 500.0,
                                    "integrator": {"blowup_threshold": 1e200}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        meta = strict_loads((out / "simulate.json").read_text())
        assert meta["blew_up"] and meta["t_max"] == pytest.approx(math.log(1e200), rel=1e-6)

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = sigma1_cfg(tmp_path, x0=[0.5], horizon=0.5)
        monkeypatch.setenv("BRSLAB_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()


# An input of 1e300 makes sigma1's slope past the solver's error norm: its
# first step came out 0 and RK45 crawled at steps of about 1e-298 without
# end, so each run is a child process under `-W error` with a timeout.
@pytest.mark.parametrize("argv, extra", [
    (["simulate"], {"x0": [0.5], "u_constant": [1e300]}),
    (["lipschitz", "probe", "--mode", "open"], {"C": 1e300, "horizon": 2.0, "samples": 3}),
], ids=["simulate", "open_probe"])
def test_slope_past_the_error_norm_is_an_integrator_error(tmp_path, argv, extra):
    cfg = sigma1_cfg(tmp_path, **extra)
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "brslab.cli", *argv, "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("integrator error: integrator failed on [0.0, ")
    assert "error norm overflows at its start" in proc.stderr and "Traceback" not in proc.stderr


class TestBrsFit:
    def test_fit_emits_report(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, C=1.5, horizon=2.0, samples=15)
        out = tmp_path / "out"
        assert main(["brs", "fit", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "brs_fit.json").read_text())
        assert rep["residual"] <= 0.0
        assert rep["seed"] == 42

    def test_one_draw_with_every_abscissa_equal(self, tmp_path, capsys):
        # one draw with C = 5 and horizon 0.5: max(t, ||x||, ||u||) is 4.75 at
        # all 8 sample times, so the reach envelope has one closed bin
        cfg = write_cfg(tmp_path, {"system": {"name": "sigma1"}, "seed": 1, "C": 5.0,
                                   "horizon": 0.5, "samples": 1})
        out = tmp_path / "out"
        assert main(["brs", "fit", "--config", cfg, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert strict_loads((out / "brs_fit.json").read_text())["residual"] <= 0.0

    def test_blowup_falsifies(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {"system": {"name": "quadratic"}, "seed": 7, "C": 3.0, "horizon": 3.0,
             "samples": 15},
        )
        assert main(["brs", "fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        witness = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert witness["falsified"] == "BRS"
        assert witness["seed"] == 7

    def test_closed_loop_blowup_falsifies_rfc_tdi(self, tmp_path, capsys):
        # x' = x^2 fits a reachability bound on the small sampled box, but the
        # closed-loop Lipschitz probe on the C = q balls blows up; the radii
        # stay within Q 11's tail budget, which is checked before the probe
        cfg = write_cfg(
            tmp_path,
            {"system": {"name": "quadratic"}, "seed": 3, "eta_source": "from_fit",
             "C": 0.1, "horizon": 2.0, "samples": 6, "c": 0.0, "radii": [0.0],
             "lyapunov": {"Q": 11, "n_dist": 2, "time_grid_density": 4}},
        )
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        witness = strict_loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert witness["falsified"] == "RFC-TDI"
        assert "diverged" in witness["detail"]


# Each falsification path: (argv head, config, label, a key the witness carries).
WITNESSES = {
    "brs_fit": (["brs", "fit"],
                {"system": {"name": "quadratic"}, "seed": 7, "C": 3.0, "horizon": 3.0,
                 "samples": 15}, "BRS", "detail"),
    # the reach fit behind from_fit meets the blow-ups first
    "rfc_from_fit": (["rfc", "verify"],
                     {"system": {"name": "quadratic"}, "seed": 1, "eta_source": "from_fit",
                      "C": 2.0, "samples": 6}, "BRS", "detail"),
    "lyapunov_build": (["lyapunov", "build"],
                       {"system": {"name": "quadratic"}, "seed": 3, "eta_source": "from_fit",
                        "C": 0.1, "horizon": 2.0, "samples": 6, "c": 0.0,
                        "radii": [0.0],  # within Q 11's tail budget
                        "lyapunov": {"Q": 11, "n_dist": 2, "time_grid_density": 4}},
                       "RFC-TDI", "detail"),
    # with a < 0 the cubic term outgrows the one cell's diffusion up to the blow-up threshold
    "rfc_report": (["rfc", "verify"],
                   {"system": {"name": "reaction_diffusion", "params": {"n": 1, "a": -50.0}},
                    "seed": 1, "C": 1.0, "horizon": 1.0, "samples": 4, "c": 0.0},
                   "RFC-TDI", "worst"),
}


@pytest.mark.parametrize("case", sorted(WITNESSES))
def test_falsification_prints_one_stamped_witness(tmp_path, capsys, case):
    cmd, cfg, label, key = WITNESSES[case]
    path = write_cfg(tmp_path, cfg)
    assert main([*cmd, "--config", path, "--out", str(tmp_path / "o")]) == 1
    witness = strict_loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert witness["falsified"] == label
    assert witness[key]
    assert witness["seed"] == cfg["seed"]
    assert witness["config_hash"] == _config_hash(cfg)


class TestRfcAndProbes:
    def test_rfc_verify_sigma1(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, C=1.5, horizon=2.0, samples=6, c=0.0)
        out = tmp_path / "out"
        assert main(["rfc", "verify", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "rfc_report.json").read_text())
        assert rep["holds"]

    def test_lipschitz_probe_modes(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, horizon=math.log(3), C=1.0, samples=2, u_constant=[1.0])
        out = tmp_path / "out"
        assert main(["lipschitz", "probe", "--mode", "open", "--config", cfg,
                     "--out", str(out)]) == 0
        assert main(["lipschitz", "probe", "--mode", "tdi", "--config", cfg,
                     "--out", str(out)]) == 0
        open_rep = json.loads((out / "lipschitz_open.json").read_text())
        tdi_rep = json.loads((out / "lipschitz_tdi.json").read_text())
        assert open_rep["diverged"] and not tdi_rep["diverged"]


    def test_rfc_witness_names_the_blowup(self, tmp_path, capsys):
        cmd, cfg, *_ = WITNESSES["rfc_report"]
        out = tmp_path / "out"
        assert main([*cmd, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        witness = strict_loads(capsys.readouterr().out.strip().splitlines()[-1])
        rep = strict_loads((out / "rfc_report.json").read_text())
        assert 0.0 < witness["blowup_time"] == rep["blowup_time"] < cfg["horizon"]

    def test_rfc_witness_past_the_float_squares(self, tmp_path, capsys):
        # states of norm about 1e298 start past the blow-up threshold and
        # their squares overflow: the norms are read scaled, with no warning,
        # so the witness is finite, and the blow-up at 0 falsifies the bound
        cfg = sigma1_cfg(tmp_path, eta_source="paper", C=1e300, horizon=2.0, samples=20, c=0.0)
        out = tmp_path / "out"
        assert main(["rfc", "verify", "--config", cfg, "--out", str(out)]) == 1
        witness = strict_loads(capsys.readouterr().out.strip().splitlines()[-1])
        rep = strict_loads((out / "rfc_report.json").read_text())
        assert witness["falsified"] == "RFC-TDI" and not rep["holds"]
        assert witness["blowup_time"] == rep["blowup_time"] == 0.0
        assert witness["worst"] == rep["worst"] and all(v > 1e297 for v in rep["worst"][1:])
        assert math.isfinite(rep["max_violation"])

    def test_tdi_probe_past_the_float_squares(self, tmp_path):
        # pairs of norm about 1e298 start past the blow-up threshold and
        # their distance squared overflows: the ratio is read scaled, with no
        # warning, and the blow-up at 0 makes the probe diverge
        cfg = sigma1_cfg(tmp_path, C=1e300, horizon=2.0, samples=3)
        out = tmp_path / "out"
        assert main(["lipschitz", "probe", "--mode", "tdi", "--config", cfg,
                     "--out", str(out)]) == 0
        rep = strict_loads((out / "lipschitz_tdi.json").read_text())
        assert rep["diverged"] and rep["blowup_time"] == 0.0
        assert rep["max_ratio"] is not None and math.isfinite(rep["max_ratio"])

    def test_brs_fit_past_the_float_squares(self, tmp_path, capsys):
        # the reach samples' norms overflow their squares and read finite,
        # with no warning; the blow-ups are the witness
        cfg = sigma1_cfg(tmp_path, C=1e300, horizon=2.0, samples=3)
        assert main(["brs", "fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        witness = strict_loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert witness["falsified"] == "BRS" and "blow-ups" in witness["detail"]

    def test_rfc_report_on_readme_config_names_no_blowup(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, eta_source="paper", C=1.5, horizon=2.0, samples=20, c=0.0)
        out = tmp_path / "out"
        assert main(["rfc", "verify", "--config", cfg, "--out", str(out)]) == 0
        rep = strict_loads((out / "rfc_report.json").read_text())
        assert rep["holds"] and "blowup_time" in rep and rep["blowup_time"] is None


class TestLyapunov:
    def lyap_cfg(self, tmp_path):
        return sigma1_cfg(
            tmp_path,
            C=1.5, horizon=2.0, samples=6, c=0.0,
            radii=[0.0, 0.5, 1.0],
            growth_pairs=2,
            lyapunov={"Q": 10, "n_dist": 2, "time_grid_density": 4, "tail_tol": 5e-3},
        )

    def test_build_emits_table(self, tmp_path):
        cfg = self.lyap_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out / "lyapunov_table.csv", delimiter=",", skiprows=1)
        assert table.shape == (3, 6)
        assert table[0, 1] == pytest.approx(1.0, abs=1e-9)  # V(0)
        manifest = json.loads((out / "lyapunov_manifest.json").read_text())
        assert manifest["config_hash"]

    def test_readme_manifest_keys_levels(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": {"name": "sigma1"}, "seed": 42, "eta_source": "paper", "x0": [0.5],
            "u_constant": [1.0], "horizon": 2.0, "C": 1.5, "samples": 20, "c": 0.0,
            "radii": [0.0, 0.5, 1.0, 1.5, 2.0], "growth_pairs": 5,
            "lyapunov": {"Q": 14, "n_dist": 6, "time_grid_density": 16, "tail_tol": 1e-3},
        })
        out = tmp_path / "out"
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(out)]) == 0
        manifest = strict_loads((out / "lyapunov_manifest.json").read_text())
        assert list(manifest["M_table"]) == sorted(
            f"{theta(float(q), q, 0.0):.12g},{q:.12g}" for q in range(1, 15)
        )

    def test_verify_passes(self, tmp_path):
        cfg = self.lyap_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["lyapunov", "verify", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "lyapunov_verify.json").read_text())
        assert rep["sandwich_ok"]
        assert len(rep["growth_reports"]) == 2

    def test_verify_builds_no_chi_beyond_the_margins_own(self, tmp_path, monkeypatch):
        # the premise of every draw and every growth pair reads the margin's
        # chi; each used to build its own, one inverse of eta apiece
        import brslab.compfun as compfun

        inverted = []

        def counted(f, _fn=compfun.inverse):
            inverted.append(f)
            return _fn(f)

        monkeypatch.setattr(compfun, "inverse", counted)
        cfg = self.lyap_cfg(tmp_path)
        assert main(["lyapunov", "verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        # one margin, sigma1's, built with the bundle: one chi
        assert len(inverted) == 1 and inverted[0].knots.size == 181

    def verify_witness(self, tmp_path, capsys):
        """The stamped witness of a `lyapunov verify` that exits 1 into a fresh --out."""
        cfg = self.lyap_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["lyapunov", "verify", "--config", cfg, "--out", str(out)]) == 1
        assert not (out / "lyapunov_verify.json").exists()
        witness = strict_loads(capsys.readouterr().out)
        stamp = json.loads(Path(cfg).read_text())
        assert (witness.pop("config_hash"), witness.pop("seed")) == (_config_hash(stamp), 42)
        return witness

    def test_sandwich_witness(self, tmp_path, capsys, monkeypatch):
        tables = []

        def below_alpha1(*args):
            table = radial_table(*args)
            table["V"][1] = table["alpha1"][1] / 2  # V(0.5) under its lower bound
            tables.append(table)
            return table

        monkeypatch.setattr(cli, "radial_table", below_alpha1)
        witness = self.verify_witness(tmp_path, capsys)
        (table,) = tables
        row = {c: float(table[c][1]) for c in ("norm_x", "V", "alpha1", "alpha2_plus_C")}
        assert witness == {"falsified": "sandwich", **row} and row["norm_x"] == 0.5

    def test_growth_witness(self, tmp_path, capsys, monkeypatch):
        reports = []

        def second_fails(*args):
            reports.extend(bl.verify_growth(*args))  # all pairs in one call
            reports[1].passes_V = False
            return reports

        monkeypatch.setattr(cli, "verify_growth", second_fails)
        witness = self.verify_witness(tmp_path, capsys)
        assert len(reports) == 2 and not any(rep.vacuous for rep in reports)
        report = json.loads(json.dumps(cli._plain(asdict(reports[1])), default=float))
        assert witness == {"falsified": "growth", "report": report}


class TestVerifyReusesBuild:
    """`lyapunov verify` reads the tables `lyapunov build` wrote for the same
    config and code, and builds them itself otherwise, with the same bytes."""

    lyap_cfg = TestLyapunov.lyap_cfg

    @pytest.fixture
    def table_calls(self, monkeypatch):
        import brslab.cli as cli

        calls = []
        for name in ("build_l_table", "radial_table"):
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        return calls

    def verify_bytes(self, cfg, out):
        assert main(["lyapunov", "verify", "--config", cfg, "--out", str(out)]) == 0
        return (out / "lyapunov_verify.json").read_bytes()

    def test_verify_after_build_reads_its_tables(self, tmp_path, table_calls):
        cfg = self.lyap_cfg(tmp_path)
        fresh = self.verify_bytes(cfg, tmp_path / "fresh")
        out = tmp_path / "out"
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(out)]) == 0
        del table_calls[:]
        assert self.verify_bytes(cfg, out) == fresh
        assert table_calls == []

    def spoil_other_seed(self, cfg, out):
        assert main(["lyapunov", "build", "--config", cfg, "--seed", "43",
                     "--out", str(out)]) == 0

    def spoil_code_digest(self, cfg, out):
        path = out / "lyapunov_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["code_digest"] = "0" * 16
        path.write_text(json.dumps(manifest))

    def spoil_delete_csv(self, cfg, out):
        (out / "lyapunov_table.csv").unlink()

    def spoil_truncate_manifest(self, cfg, out):
        path = out / "lyapunov_manifest.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

    @pytest.mark.parametrize("spoil", ["other_seed", "code_digest", "delete_csv",
                                       "truncate_manifest"])
    def test_falls_back_to_building(self, tmp_path, table_calls, spoil):
        cfg = self.lyap_cfg(tmp_path)
        fresh = self.verify_bytes(cfg, tmp_path / "fresh")
        out = tmp_path / "out"
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(out)]) == 0
        getattr(self, f"spoil_{spoil}")(cfg, out)
        del table_calls[:]
        assert self.verify_bytes(cfg, out) == fresh
        assert table_calls == ["build_l_table", "radial_table"]

    def test_build_stamps_the_reuse_key(self, tmp_path):
        import scipy

        out = tmp_path / "out"
        assert main(["lyapunov", "build", "--config", self.lyap_cfg(tmp_path),
                     "--out", str(out)]) == 0
        manifest = strict_loads((out / "lyapunov_manifest.json").read_text())
        assert len(manifest["code_digest"]) == 16 and len(manifest["table_sha256"]) == 64
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__


    def from_fit_cfg(self, tmp_path):
        return sigma1_cfg(tmp_path, eta_source="from_fit", C=1.5, horizon=2.0, samples=20,
                          c=0.0, radii=[0.0, 0.5, 1.0], growth_pairs=2,
                          lyapunov={"Q": 14, "n_dist": 2, "time_grid_density": 4})

    @pytest.fixture
    def fits(self, monkeypatch):
        import brslab.cli as cli

        calls = []

        def counted(*args, _fn=cli.sample_reach, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_reach", counted)
        return calls

    def test_from_fit_verify_reads_the_fitted_margin(self, tmp_path, fits, table_calls):
        # verify fits the margin afresh, as build does, and reads the tables;
        # under the reuse key the fit is the stored tables' own
        cfg = self.from_fit_cfg(tmp_path)
        cold = self.verify_bytes(cfg, tmp_path / "cold")
        out = tmp_path / "out"
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(out)]) == 0
        del fits[:], table_calls[:]
        assert self.verify_bytes(cfg, out) == cold
        assert len(fits) == 1
        assert table_calls == []

    @pytest.mark.parametrize("eta_source", ["paper", "from_fit"])
    def test_manifest_keys(self, tmp_path, eta_source):
        cfg = self.lyap_cfg(tmp_path) if eta_source == "paper" else self.from_fit_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(out)]) == 0
        manifest = strict_loads((out / "lyapunov_manifest.json").read_text())
        assert set(manifest) == {"cfg", "c", "M_table", "table_sha256", "config_hash",
                                 "code_digest", "numpy_version", "scipy_version", "seed"}


class TestExamplesList:
    def test_prints_registry(self, capsys):
        assert main(["examples", "list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert "sigma1" in listing

    def test_takes_no_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "list", "--config", "x"])
        assert exc.value.code == 2


# The README config; the artifact digests below run every subcommand on it.
README_CFG = {
    "system": {"name": "sigma1"}, "seed": 42, "eta_source": "paper", "x0": [0.5],
    "u_constant": [1.0], "horizon": 2.0, "C": 1.5, "samples": 20, "c": 0.0,
    "radii": [0.0, 0.5, 1.0, 1.5, 2.0], "growth_pairs": 5,
    "lyapunov": {"Q": 14, "n_dist": 6, "time_grid_density": 16, "tail_tol": 1e-3},
}

# every subcommand, in this order, into one --out
ARTIFACT_COMMANDS = (
    ("simulate",), ("brs", "fit"), ("rfc", "verify"),
    ("lipschitz", "probe", "--mode", "open"), ("lipschitz", "probe", "--mode", "tdi"),
    ("lyapunov", "build"), ("lyapunov", "verify"), ("examples", "list"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def artifact_digests(tmp_path, eta_source: str, with_c: bool) -> dict:
    """Exit code and stdout digest of each subcommand on the README config,
    then the digest of each file it left in --out; the manifest's
    code_digest, a digest of the sources themselves, is blanked first."""
    cfg = dict(README_CFG, eta_source=eta_source)
    if not with_c:
        del cfg["c"]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    got = {}
    for cmd in ARTIFACT_COMMANDS:
        argv = list(cmd) if cmd[0] == "examples" else [*cmd, "--config", path, "--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        got[" ".join(cmd)] = (code, _sha(stdout.getvalue().encode()))
    for p in sorted(out.iterdir()):
        data = re.sub(rb'"code_digest": "[0-9a-f]*"', b'"code_digest": ""', p.read_bytes())
        got[p.name] = _sha(data)
    return got


# Recorded with the artifact formats still spread over the numeric modules:
# moving every format into the CLI changed no byte (RK45 and the seeded draws
# make the digests specific to the numpy and scipy versions, as those of
# test_lyapunov.ENSEMBLE_DIGESTS are).  The four manifests were recorded again
# when the sampler stopped restarting its solves at grid times, which moved
# the M table they hold by at most 1.6e-14 relative.  The manifests,
# brs_fit.json and reach_samples.csv were recorded again when the sampler's
# solves came to go on from the solver's own state at a breakpoint or row
# end, as integrate's do: they moved by at most 1.0e-15, 3.7e-15 and 6.2e-16
# relative, and the L table and the verify report did not move.  The two
# from_fit manifests were recorded again when they stopped holding a copy of
# the fitted margin: no other key moved.
NO_STDOUT = "e3b0c44298fc1c149afbf4c8996fb924"
COMMAND_OUTPUTS = {
    "simulate": (0, NO_STDOUT), "brs fit": (0, NO_STDOUT), "rfc verify": (0, NO_STDOUT),
    "lipschitz probe --mode open": (0, NO_STDOUT),
    "lipschitz probe --mode tdi": (0, NO_STDOUT),
    "lyapunov build": (0, NO_STDOUT), "lyapunov verify": (0, NO_STDOUT),
    "examples list": (0, "1dee514ce57b520636db9e4737afc1ff"),
}
ARTIFACT_DIGESTS = {
    ("paper", True): {
        "brs_fit.json": "246f93148ad46efec620c3ebb117c8e7",
        "lipschitz_open.json": "7c56ef8df81b2e4c9c534f9c58d979e0",
        "lipschitz_tdi.json": "d8f7a1aee452a33afbefc5b47776a042",
        "lyapunov_manifest.json": "4600369d3900379d3b52290d0df4ea34",
        "lyapunov_table.csv": "70b2c312aa4a005037a15a506762e280",
        "lyapunov_verify.json": "6f562bbb8430cbd0b91f2384be58da96",
        "reach_samples.csv": "e6b6bfbf97b86e5add859df484dd8287",
        "rfc_report.json": "8ccde843df45c07d3cbd231218b08829",
        "simulate.json": "75f9c7d7f490a459b9c3b721fb61f555",
        "trajectory.csv": "ea3a65596c6363731bb065eb1e3b5e50",
    },
    ("paper", False): {
        "brs_fit.json": "82787a8ecd2ae93294fce544d23268c0",
        "lipschitz_open.json": "dd7fae189faa7becfa731dc68956e15a",
        "lipschitz_tdi.json": "e6ab0d634cea86987fbcb35d1ef4e894",
        "lyapunov_manifest.json": "96fe94e8deec02cbc1bc111d08062108",
        "lyapunov_table.csv": "70b2c312aa4a005037a15a506762e280",
        "lyapunov_verify.json": "59cbb9c64085630751988c02d27a23a0",
        "reach_samples.csv": "e6b6bfbf97b86e5add859df484dd8287",
        "rfc_report.json": "b54f6f8f0207f6231ef184ab2c3209c6",
        "simulate.json": "6fc566c870cbaa6ad8797472e818654c",
        "trajectory.csv": "ea3a65596c6363731bb065eb1e3b5e50",
    },
    ("from_fit", True): {
        "brs_fit.json": "150c2e7efebf36b59414d514fcadb07b",
        "lipschitz_open.json": "20e4b7ba3bca9dc7f90414a2b87b98a1",
        "lipschitz_tdi.json": "9759e664848766a6644d43e69f673fc5",
        "lyapunov_manifest.json": "02810c730e0761d06be7aba068b24604",
        "lyapunov_table.csv": "e651191b7fc68694a406003c0da75cc2",
        "lyapunov_verify.json": "2f9529ab45903dafdbe509ca6f464202",
        "reach_samples.csv": "e6b6bfbf97b86e5add859df484dd8287",
        "rfc_report.json": "9a62a955fdf2a35e704f4461abd7e348",
        "simulate.json": "37fd33b14b23979a7a799af403a26db4",
        "trajectory.csv": "ea3a65596c6363731bb065eb1e3b5e50",
    },
    ("from_fit", False): {
        "brs_fit.json": "6862cd9363d0750485104dd736aec1d2",
        "lipschitz_open.json": "60b875c390cc951db230222a67fcaf00",
        "lipschitz_tdi.json": "29eb1daa6324726ab0dcc678c13c192c",
        "lyapunov_manifest.json": "f4bb91f6fbbf432031ad2cffe27bcb3b",
        "lyapunov_table.csv": "e651191b7fc68694a406003c0da75cc2",
        "lyapunov_verify.json": "b26f6b25c9bb90751871c030a08896df",
        "reach_samples.csv": "e6b6bfbf97b86e5add859df484dd8287",
        "rfc_report.json": "5f8fa1825d04e613c1ed5e20c8f6a6d1",
        "simulate.json": "72a3c69176c2b2cf51aa4e106fb4b773",
        "trajectory.csv": "ea3a65596c6363731bb065eb1e3b5e50",
    },
}


@pytest.mark.parametrize("eta_source, with_c", sorted(ARTIFACT_DIGESTS))
def test_artifact_digests(tmp_path, eta_source, with_c):
    assert artifact_digests(tmp_path, eta_source, with_c) == {
        **COMMAND_OUTPUTS, **ARTIFACT_DIGESTS[eta_source, with_c]}


class TestOutputDir:
    """An --out that cannot be made is an output error, before any work."""

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_simulate(self, tmp_path, capsys, sub):
        afile = tmp_path / "afile"
        afile.write_text("")
        cfg = sigma1_cfg(tmp_path, x0=[0.5], horizon=0.5)
        assert main(["simulate", "--config", cfg, "--out", str(afile / sub)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "Traceback" not in err
        assert afile.read_text() == ""

    def test_lyapunov_build_fails_before_the_probe(self, tmp_path, capsys, monkeypatch):
        def probe(*args):
            raise AssertionError("build_l_table ran before --out was made")

        monkeypatch.setattr(cli, "build_l_table", probe)
        (tmp_path / "afile").write_text("")
        cfg = sigma1_cfg(tmp_path, c=0.0, radii=[0.5])
        assert main(["lyapunov", "build", "--config", cfg,
                     "--out", str(tmp_path / "afile")]) == 2
        assert capsys.readouterr().err.startswith("output error: ")


def _lyapunov_build(monkeypatch, tmp_path, cfg: dict, margin, lyap_cfg, l_table, table):
    """--out of `lyapunov build` on cfg with the given pipeline results."""
    monkeypatch.setattr(cli, "_build_pipeline",
                        lambda *args: (margin, lyap_cfg, l_table, table))
    out = tmp_path / "out"
    assert main(["lyapunov", "build", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    return out


class TestArtifactFormats:
    def test_trajectory_csv_header_and_no_sidecar(self, tmp_path):
        path = write_cfg(tmp_path, {"system": {"name": "linear",
                                               "params": {"A": [[0.0, 1.0], [-1.0, 0.0]]}},
                                    "seed": 1, "x0": [1.0, 0.0], "horizon": 1.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").read_text().splitlines()[0] == "t,x0,x1"
        # t_max and blew_up are simulate.json's, stamped with the config hash and seed
        assert sorted(p.name for p in out.iterdir()) == ["simulate.json", "trajectory.csv"]

    def test_reach_samples_csv_header(self, tmp_path):
        out = tmp_path / "out"
        cfg = sigma1_cfg(tmp_path, C=1.0, horizon=1.0, samples=3)
        assert main(["brs", "fit", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "reach_samples.csv").read_text().splitlines()[0]
        assert header == "t,norm_x,norm_u,norm_phi"

    def test_stored_tables_read_back_bit_for_bit(self, tmp_path, monkeypatch, sigma1,
                                                 lyap_cfg, l_table):
        rng = np.random.default_rng(3)
        # the fixture's tables, then values that need all 17 significant digits
        cases = [(radial_table(sigma1.system, sigma1.margin, [0.0, 0.3, 1.7], lyap_cfg,
                               l_table), l_table)]
        cases.append(({c: rng.standard_normal(4) * 10.0 ** rng.integers(-300, 300, 4)
                       for c in _COLUMNS},
                      LipschitzTable(tuple(1.0 + rng.random(12) / 3.0), c=math.pi / 7.0)))
        cfg = {"system": {"name": "sigma1"}, "seed": 42}
        for table, lt in cases:
            out = _lyapunov_build(monkeypatch, tmp_path, cfg, sigma1.margin, lyap_cfg, lt, table)
            assert (out / "lyapunov_table.csv").read_text().splitlines()[0] == ",".join(_COLUMNS)
            got_lt, got = cli._stored_tables(cfg, out)
            assert (got_lt.L, got_lt.c, got_lt.theta, got_lt.M) == (lt.L, lt.c, lt.theta, lt.M)
            assert set(got) == set(table)
            assert all(np.array_equal(got[c], table[c]) for c in table)
            manifest = strict_loads((out / "lyapunov_manifest.json").read_text())
            assert manifest["c"] == lt.c and manifest["cfg"]["seed"] == lyap_cfg.seed
            assert manifest["seed"] == 42 and manifest["config_hash"] == _config_hash(cfg)

    def test_stored_tables_rejects_what_build_does_not_write(self, tmp_path, monkeypatch,
                                                             sigma1, lyap_cfg):
        cfg = {"system": {"name": "sigma1"}, "seed": 42}
        table = {c: np.arange(3.0) for c in _COLUMNS}
        out = _lyapunov_build(monkeypatch, tmp_path, cfg, sigma1.margin, lyap_cfg,
                              LipschitzTable([1.5, 1.2, 1.1]), table)
        assert cli._stored_tables(cfg, out) is not None
        path = out / "lyapunov_manifest.json"
        manifest = json.loads(path.read_text())
        key = next(k for k in manifest["M_table"] if k.endswith(",1"))  # level 1 missing
        for bad in ({**manifest, "M_table": {k: v for k, v in manifest["M_table"].items()
                                             if k != key}},
                    {**manifest, "c": 0.5}, {**manifest, "M_table": []}, [manifest]):
            path.write_text(json.dumps(bad))
            assert cli._stored_tables(cfg, out) is None
        path.write_text(json.dumps(manifest))
        csv = out / "lyapunov_table.csv"
        text = csv.read_text()
        for bad in ("", text.splitlines()[0], "x\n1,2,3,4,5,6", text[:-9]):
            csv.write_text(bad)
            assert cli._stored_tables(cfg, out) is None
        # a foreign table whose manifest carries its sha256: the header differs
        foreign = text.replace("tail_bound", "tail").encode()
        csv.write_bytes(foreign)
        path.write_text(json.dumps({**manifest,
                                    "table_sha256": hashlib.sha256(foreign).hexdigest()}))
        assert cli._stored_tables(cfg, out) is None

    def test_exact_form_evaluates_and_is_stored_by_its_knots(self, sigma1):
        eta = sigma1.margin.eta
        s = 0.2
        assert eta(s) == pytest.approx(-s / (2 * math.log(s)), abs=1e-15)
        g = bl.ScalarFun(**cli._plain(cli._fun_obj(eta)))  # as a JSON artifact holds it
        assert g.exact is None and np.array_equal(g.knots, eta.knots)
        assert g(s) == np.interp(s, eta.knots, eta.values)


# the number rule's own words: the numbers module, and a type test for a bool
# or an integer, as `isinstance(q, (int, np.integer))`
NUMBER_RULE = r"import numbers|isinstance\([^)]*\b(bool|int|np\.integer)\b"


def test_only_sysdyn_holds_the_number_rule():
    # every number from outside the program is read by sysdyn._number
    src = Path(cli.__file__).parent
    holders = {p.name for p in src.glob("*.py")
               if re.search(NUMBER_RULE, p.read_text())}
    assert holders == {"sysdyn.py"}


FORMAT_WORDS = ("savetxt", "json.dump", "write_text", "write_bytes", "import json")


def test_only_the_cli_writes_artifact_formats():
    # the numeric modules return arrays and objects; the CLI alone decides
    # how they are written
    src = Path(cli.__file__).parent
    holders = {p.name for p in src.glob("*.py")
               if any(word in p.read_text() for word in FORMAT_WORDS)}
    assert holders == {"cli.py"}


HANDLER_WORDS = ("write_bytes", "write_text", "print(", "_fail(")


def test_only_main_writes_prints_and_exits_1():
    # a cmd_* handler returns (artifacts, witness); main writes the one,
    # prints the other and picks the exit code
    source = Path(cli.__file__).read_text()
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)]
    handlers = {f.name: ast.get_source_segment(source, f)
                for f in functions if f.name.startswith("cmd_")}
    assert len(handlers) == 6
    for name, body in handlers.items():
        assert [w for w in HANDLER_WORDS if w in body] == [], name
    returns_1 = {f.name for f in functions for node in ast.walk(f)
                 if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                 and type(node.value.value) is int and node.value.value == 1}
    assert returns_1 == {"main"}


def test_growing_linear_runs_on_its_own_margin(tmp_path, capsys):
    # linear ships eta(s) = s/2, so eta_source "paper" runs on it; its
    # growth leaves no RFC offset, so the build needs c
    cfg = {"system": {"name": "linear", "params": {"A": [[1.0]], "B": [[1.0]]}}, "seed": 42}
    path = write_cfg(tmp_path, cfg)
    assert main(["lyapunov", "build", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert strict_loads(capsys.readouterr().out)["falsified"] == "RFC-TDI"
    path = write_cfg(tmp_path, dict(cfg, c=0.0))
    runs = []
    for name in ("a", "b"):
        argv = ["--config", path, "--out", str(tmp_path / name)]
        # the sandwich and the growth check hold on the growing system
        assert [main(["lyapunov", stage, *argv]) for stage in ("build", "verify")] == [0, 0]
        runs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert sorted(runs[0]) == ["lyapunov_manifest.json", "lyapunov_table.csv",
                               "lyapunov_verify.json"]
    assert runs[0] == runs[1]
