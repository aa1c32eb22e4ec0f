"""The benchmark's own correctness check (bench/workloads.py): case 0 of every
workload reproduces its stored reference in bench/refs within the
workload's tolerances, so a change the benchmark would reject as incorrect
fails here first."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["cli_readme", "growth_sweep", "rd_stiff", "reach_tdi"])
def test_case_0_matches_its_reference(name, tmp_path):
    w = load_workloads().make_workloads(tmp_path)[name]
    ref = json.loads((BENCH / "refs" / f"{name}.json").read_text())["cases"]["0"]
    assert w.check(w.run(w.setup(w.inputs(0))), ref) == []
