"""The contract between brslab and the benchmark's tracer (bench/tracer.py):
every callable the tracer wraps exists, and the pipeline's stages go through
the public entries it times."""

import importlib
import importlib.util
import json
from pathlib import Path

import brslab as bl
from brslab import cli

from conftest import SEED
from test_cli import README_CFG

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_callables_the_stages_call(sigma1):
    tracer = load_tracer()
    for _, mod_name, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), attr
    for _, mod_name, cls_name, meth, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(cls.__dict__.get(meth)), f"{cls_name}.{meth}"

    traced = tracer.Tracer()
    traced.install()
    try:
        l_table = bl.build_l_table(sigma1.system, sigma1.margin, 4, 0.0, SEED)
        cfg = bl.LyapunovConfig(Q=4, tail_tol=1.0, seed=SEED)
        bl.radial_table(sigma1.system, sigma1.margin, [0.0, 0.5, 1.0], cfg, l_table)
    finally:
        traced.uninstall()
    metrics = traced.metrics()
    assert metrics["lyapunov.build_l_table.calls"] == 1
    assert metrics["brscheck.probe_tdi.calls"] > 0
    assert metrics["lyapunov.eval_V.calls"] > 0
    assert bl.eval_V.__module__ == "brslab.lyapunov"  # the originals are back


def test_tracer_times_the_cli_stages(tmp_path):
    # build_parser looks the handlers up when main runs, so the tracer's
    # rebound cmd_lyapunov_build|verify are the ones called
    tracer = load_tracer()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(README_CFG))
    argv = ["--config", str(path), "--out", str(tmp_path / "out")]
    traced = tracer.Tracer()
    traced.install()
    try:
        codes = [cli.main(["lyapunov", stage, *argv]) for stage in ("build", "verify")]
    finally:
        traced.uninstall()
    assert codes == [0, 0]
    metrics = traced.metrics()
    assert metrics["cli.build.s"] > 0 and metrics["cli.verify.s"] > 0
