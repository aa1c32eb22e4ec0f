import json
import math

import numpy as np
import pytest

from brslab.cli import main
from brslab.compfun import theta


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

    def test_rfc_report_without_samples_writes_null_violation(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, C=1.0, horizon=1.0, samples=0, c=0.0)
        out = tmp_path / "out"
        assert main(["rfc", "verify", "--config", cfg, "--out", str(out)]) == 0
        rep = strict_loads((out / "rfc_report.json").read_text())
        assert rep["holds"] and rep["max_violation"] is None


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


class TestBrsFit:
    def test_fit_emits_report(self, tmp_path):
        cfg = sigma1_cfg(tmp_path, C=1.5, horizon=2.0, samples=15)
        out = tmp_path / "out"
        assert main(["brs", "fit", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "brs_fit.json").read_text())
        assert rep["residual"] <= 0.0
        assert rep["seed"] == 42

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
        # closed-loop Lipschitz probe on the C = q balls blows up
        cfg = write_cfg(
            tmp_path,
            {"system": {"name": "quadratic"}, "seed": 3, "eta_source": "from_fit",
             "C": 0.1, "horizon": 2.0, "samples": 6, "c": 0.0, "radii": [0.0, 2.0],
             "lyapunov": {"Q": 11, "n_dist": 2, "time_grid_density": 4}},
        )
        assert main(["lyapunov", "build", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        witness = strict_loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert witness["falsified"] == "RFC-TDI"
        assert "diverged" in witness["detail"]


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


class TestExamplesList:
    def test_prints_registry(self, capsys):
        assert main(["examples", "list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert "sigma1" in listing
