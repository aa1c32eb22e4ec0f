"""The four brslab benchmark workloads.

Each workload turns a case index (derived from ``--seed``) into generated
inputs, builds its fixtures in ``setup``, and runs one operation in ``run``.
Every operation of a run repeats the inputs of one case.
``run`` returns plain JSON data; ``check`` compares it against the stored
reference for the case (``refs/<workload>.json``, written by
``run.py --record-refs`` at the seed commit) within the tolerances stated
here, plus the workload's own invariants.  Any returned message marks the
operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import brslab as bl
from brslab import cli

# Tolerances on reference values, as (rtol, atol): |got - ref| <= atol + rtol |ref|.
# V, W, alpha and M come from RK45 at rtol 1e-8 (closed loop) and 1e-9
# (Lipschitz probes); 1e-6 relative leaves room for a solver or batching
# change that keeps the stated accuracy and catches any change of method.
TOL_LYAP = (1e-6, 1e-9)
# reaction_diffusion runs at rtol 1e-6 / atol 1e-9, and a stiff solver agrees
# with RK45 to about 2e-8, so final states get 1e-5; the probe's ratio
# divides trajectory differences by separations down to 1e-6, so L gets 5e-3.
TOL_RD_STATE = (1e-5, 1e-7)
TOL_RD_L = (5e-3, 0.0)
# The fitted envelope is built from norms integrated at rtol 1e-8.
TOL_FIT = (1e-6, 1e-9)
# Round-trip errors are integrator noise; they must stay within criterion 5's
# limits rather than match digits.
LIMIT_D_ERR = 1e-6
LIMIT_TRAJ_ERR = 1e-5

README_CONFIG = {
    "system": {"name": "sigma1"},
    "seed": 42,
    "eta_source": "paper",
    "x0": [0.5],
    "u_constant": [1.0],
    "horizon": 2.0,
    "C": 1.5,
    "samples": 20,
    "c": 0.0,
    "radii": [0.0, 0.5, 1.0, 1.5, 2.0],
    "growth_pairs": 5,
    "lyapunov": {"Q": 14, "n_dist": 6, "time_grid_density": 16, "tail_tol": 1e-3},
}

# Program seed of the seeded brslab calls (the test suite's seed; cli_readme
# keeps the README config's 42).  The cost of build_l_table, sample_reach and
# the disturbance family turns on a few draws made from it, which would swamp
# the machine's own spread, so the benchmark seed varies states and inputs
# instead, stratified to keep the cost of an operation even.
PROGRAM_SEED = 20240811

TABLE_COLUMNS = ("norm_x", "V", "W", "tail_bound", "alpha1", "alpha2_plus_C")


def _rng(case: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([case, tag]))


def compare(path: str, got, ref, tol) -> list:
    """Messages for every entry of `got` outside `tol` of `ref`."""
    rtol, atol = tol
    got_a = np.asarray(got, dtype=float)
    ref_a = np.asarray(ref, dtype=float)
    if got_a.shape != ref_a.shape:
        return [f"{path}: shape {got_a.shape} != reference {ref_a.shape}"]
    bad = ~(np.abs(got_a - ref_a) <= atol + rtol * np.abs(ref_a))
    if not bad.any():
        return []
    i = np.flatnonzero(bad.ravel())[0]
    return [
        f"{path}: {bad.sum()} value(s) off reference, first "
        f"{got_a.ravel()[i]!r} vs {ref_a.ravel()[i]!r}"
    ]


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


class CliReadme:
    """`brslab lyapunov build` then `verify` on the README config, in-process."""

    name = "cli_readme"
    artifacts = ("lyapunov_table.csv", "lyapunov_manifest.json", "lyapunov_verify.json")

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.first = None

    def inputs(self, case: int) -> dict:
        # One radius in each README interval (0, 0.5], ..., (1.5, 2]: the cost
        # stays that of the README config while the states change with the seed.
        rng = _rng(case, 1)
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["radii"] = [0.0] + [0.5 * (k - rng.uniform()) for k in range(1, 5)]
        return cfg

    def setup(self, cfg: dict) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        path = workdir / "config.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        return path

    def run(self, config_path: Path) -> dict:
        out = Path(tempfile.mkdtemp(prefix="out-", dir=config_path.parent))
        try:
            argv = ["--config", str(config_path), "--out", str(out)]
            rc_build = cli.main(["lyapunov", "build", *argv])
            rc_verify = cli.main(["lyapunov", "verify", *argv])
            blobs = {}
            for name in self.artifacts:
                p = out / name
                blobs[name] = p.read_bytes() if p.exists() else b""
        finally:
            shutil.rmtree(out, ignore_errors=True)
        result = {"exit_codes": [rc_build, rc_verify],
                  "digests": {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()},
                  "artifact_bytes": sum(len(v) for v in blobs.values()),
                  "errors": []}
        try:
            manifest = strict_json(blobs["lyapunov_manifest.json"].decode())
            verify = strict_json(blobs["lyapunov_verify.json"].decode())
            table = np.loadtxt(
                blobs["lyapunov_table.csv"].decode().splitlines(),
                delimiter=",", skiprows=1, ndmin=2,
            )
        except ValueError as exc:
            result["errors"].append(f"artifact does not parse: {exc}")
            return result
        result["table"] = {c: table[:, i].tolist() for i, c in enumerate(TABLE_COLUMNS)}
        result["M_table"] = [v for _, v in sorted(
            manifest["M_table"].items(), key=lambda kv: float(kv[0].split(",")[1])
        )]
        result["sandwich_ok"] = verify.get("sandwich_ok")
        result["growth"] = {
            key: [r[key] for r in verify["growth_reports"]]
            for key in ("V0", "W0", "passes_V", "passes_W", "vacuous")
        }
        return result

    def check(self, out: dict, ref: dict) -> list:
        errs = list(out["errors"])
        if out["exit_codes"] != [0, 0]:
            errs.append(f"exit codes {out['exit_codes']}, expected [0, 0]")
        if self.first is None:
            self.first = out["digests"]
        elif out["digests"] != self.first:
            changed = [k for k in self.first if out["digests"][k] != self.first[k]]
            errs.append(f"artifacts differ from the first operation: {changed}")
        if errs:
            return errs
        for c in TABLE_COLUMNS:
            errs += compare(f"table.{c}", out["table"][c], ref["table"][c], TOL_LYAP)
        errs += compare("M_table", out["M_table"], ref["M_table"], TOL_LYAP)
        for key in ("V0", "W0"):
            errs += compare(f"growth.{key}", out["growth"][key], ref["growth"][key], TOL_LYAP)
        if out["sandwich_ok"] is not True:
            errs.append("sandwich_ok is not true")
        if any(out["growth"]["vacuous"]):
            errs.append("a premise pair came out vacuous")
        if not all(out["growth"]["passes_V"] + out["growth"]["passes_W"]):
            errs.append("a growth report fails")
        return errs

    def reference(self, out: dict) -> dict:
        return {k: out[k] for k in ("table", "M_table", "growth")}


class GrowthSweep:
    """sigma1 radial table plus non-vacuous Dini growth pairs (criteria 7, 8)."""

    name = "growth_sweep"
    radii = np.linspace(0.0, 2.0, 21)
    n_pairs = 3

    def inputs(self, case: int) -> dict:
        rng = _rng(case, 8)
        margin = bl.make("sigma1").margin
        pairs = []
        for i in range(self.n_pairs):
            # stratified radii: one pair in each third of [0.1, 2]
            r = 0.1 + 1.9 * (i + rng.uniform()) / self.n_pairs
            x = r * rng.choice([-1.0, 1.0])
            # |u| <= 0.95 eta(r) / 2 keeps the premise chi(|u|) <= |x| true
            u = rng.uniform(0.0, 0.95) * 0.5 * float(margin(r))
            pairs.append((x, u))
        return {"pairs": pairs}

    def setup(self, inp: dict) -> dict:
        ex = bl.make("sigma1")
        c = bl.find_rfc_offset(ex.system, ex.margin, ex.margin.eta, 2.0, 3.0, 8, PROGRAM_SEED)
        l_table = bl.build_l_table(ex.system, ex.margin, 14, c, PROGRAM_SEED)
        cfg = bl.LyapunovConfig(Q=14, n_dist=6, time_grid_density=16, seed=PROGRAM_SEED)
        return {"ex": ex, "l_table": l_table, "cfg": cfg, "pairs": inp["pairs"]}

    def run(self, fx: dict) -> dict:
        ex, cfg, l_table = fx["ex"], fx["cfg"], fx["l_table"]
        table = bl.radial_table(ex.system, ex.margin, self.radii, cfg, l_table)
        reports = [
            bl.verify_growth(ex.system, ex.margin, np.array([x]), np.array([u]), cfg, l_table)
            for x, u in fx["pairs"]
        ]
        return {
            "table": {c: table[c].tolist() for c in TABLE_COLUMNS},
            "M_table": [bl.lyap_M(q, q, l_table) for q in range(1, cfg.Q + 1)],
            "c": l_table.c,
            "growth": {
                "V0": [r.V0 for r in reports],
                "W0": [r.W0 for r in reports],
                "vacuous": [r.vacuous for r in reports],
                "passes": [bool(r.passes_V and r.passes_W) for r in reports],
            },
        }

    def check(self, out: dict, ref: dict) -> list:
        errs = []
        for c in TABLE_COLUMNS:
            errs += compare(f"table.{c}", out["table"][c], ref["table"][c], TOL_LYAP)
        errs += compare("M_table", out["M_table"], ref["M_table"], TOL_LYAP)
        if out["c"] != ref["c"]:
            errs.append(f"RFC offset {out['c']} != reference {ref['c']}")
        for key in ("V0", "W0"):
            errs += compare(f"growth.{key}", out["growth"][key], ref["growth"][key], TOL_LYAP)
        t = out["table"]
        if not all(a <= v + 1e-12 and v <= b + 1e-12
                   for a, v, b in zip(t["alpha1"], t["V"], t["alpha2_plus_C"])):
            errs.append("sandwich bound violated")
        if any(out["growth"]["vacuous"]):
            errs.append("a premise pair came out vacuous")
        if not all(out["growth"]["passes"]):
            errs.append("a growth report fails")
        return errs

    def reference(self, out: dict) -> dict:
        return out


class RdStiff:
    """reaction_diffusion n=32 open-loop runs and one TDI probe (criterion 10)."""

    name = "rd_stiff"
    n_runs = 2

    def inputs(self, case: int) -> dict:
        rng = _rng(case, 10)
        runs = []
        for _ in range(self.n_runs):
            x0 = rng.standard_normal(32)
            x0 *= rng.uniform() / np.linalg.norm(x0)
            runs.append((x0, rng.uniform(-1.0, 1.0)))
        return {"runs": runs}

    def setup(self, inp: dict) -> dict:
        rd = bl.make("reaction_diffusion", {"n": 32})
        M_sg, lam_sg = bl.semigroup_growth(rd.system.linear_part, t_cert=1.0)
        bound = bl.gronwall_bound(M_sg, lam_sg, rd.system.lipschitz_hint(1.0), 1.0) * 1.1
        cfg = bl.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9)
        return {"rd": rd, "cfg": cfg, "bound": bound, **inp}

    def run(self, fx: dict) -> dict:
        rd, cfg = fx["rd"], fx["cfg"]
        finals, blew_up = [], []
        for x0, u in fx["runs"]:
            traj = bl.integrate(rd.system, x0, bl.InputSignal.constant([u]), 1.0, cfg)
            finals.append(traj.states[-1].tolist())
            blew_up.append(bool(traj.blew_up))
        # no random pairs and only the zero disturbance: the probe's cost does
        # not depend on the case, and the operation stays short
        probe = bl.probe_lipschitz_tdi(
            rd.system, rd.margin, 1.0, 1.0, 0, seed=PROGRAM_SEED, cfg=cfg, n_dist=1
        )
        return {"final_states": finals, "blew_up": blew_up,
                "L_estimate": probe.L_estimate, "diverged": bool(probe.diverged),
                "bound": fx["bound"]}

    def check(self, out: dict, ref: dict) -> list:
        errs = compare("final_states", out["final_states"], ref["final_states"], TOL_RD_STATE)
        errs += compare("L_estimate", out["L_estimate"], ref["L_estimate"], TOL_RD_L)
        if any(out["blew_up"]):
            errs.append("an open-loop run blew up")
        if out["diverged"] or not out["L_estimate"] <= out["bound"]:
            errs.append(f"probe L {out['L_estimate']} not within {out['bound']}")
        return errs

    def reference(self, out: dict) -> dict:
        return {k: out[k] for k in ("final_states", "L_estimate")}


class ReachTdi:
    """from_fit margin chain, then lift / replay / project round trips (criterion 5)."""

    name = "reach_tdi"
    n_samples = 100
    n_trips = 10
    horizon = 3.0
    C = 2.0
    tight = dict(rel_tol=1e-10, abs_tol=1e-13)

    def inputs(self, case: int) -> dict:
        rng = _rng(case, 5)
        # stratified initial states: one in each tenth of [0.1, 2], random sign
        x0s = [(0.1 + 1.9 * (i + rng.uniform()) / self.n_trips) * rng.choice([-1.0, 1.0])
               for i in range(self.n_trips)]
        return {"x0s": x0s}

    def setup(self, inp: dict) -> dict:
        ex = bl.make("sigma1")
        return {"ex": ex, "grid": np.linspace(0.0, self.horizon, 61),
                "cfg": bl.IntegratorConfig(**self.tight), **inp}

    def run(self, fx: dict) -> dict:
        sysdef, grid, cfg, seed = fx["ex"].system, fx["grid"], fx["cfg"], PROGRAM_SEED
        samples = bl.sample_reach(sysdef, self.C, self.horizon, self.n_samples, seed)
        fit = bl.fit_additive_bound(samples)
        margin = bl.GrowthMargin(bl.eta_from_chis(fit.chi1, fit.chi2, fit.chi3))
        c = bl.find_rfc_offset(sysdef, margin, margin.eta, self.C, self.horizon, 12, seed)
        dists = bl.disturbance_family(sysdef.input_dim, self.horizon, self.n_trips, seed)
        d_errs, traj_errs = [], []
        for x0, d in zip(fx["x0s"], dists):
            u, traj_cl = bl.lift_disturbance(sysdef, margin, [x0], d, self.horizon, cfg)
            traj_ol = bl.integrate(sysdef, [x0], u, self.horizon, cfg)
            x_cl = traj_cl.state_at(grid)
            traj_errs.append(float(np.abs(x_cl - traj_ol.state_at(grid)).max()))
            d_back = bl.project_input(sysdef, margin, [x0], u, self.horizon, cfg, grid)
            err = 0.0
            for t, x in zip(grid, x_cl):
                if margin(np.linalg.norm(x)) > 1e-6:
                    err = max(err, float(np.linalg.norm(d_back.eval(t) - d.eval(t))))
            d_errs.append(err)
        return {"chi_knots": fit.chi1.knots.tolist(), "chi_values": fit.chi1.values.tolist(),
                "chi_slope": fit.chi1.slope, "fit_c": fit.c, "rfc_c": c,
                "d_errs": d_errs, "traj_errs": traj_errs}

    def check(self, out: dict, ref: dict) -> list:
        errs = compare("chi_knots", out["chi_knots"], ref["chi_knots"], TOL_FIT)
        if not errs:
            errs += compare("chi_values", out["chi_values"], ref["chi_values"], TOL_FIT)
        errs += compare("chi_slope", out["chi_slope"], ref["chi_slope"], TOL_FIT)
        errs += compare("fit_c", out["fit_c"], ref["fit_c"], TOL_FIT)
        if out["rfc_c"] != ref["rfc_c"]:
            errs.append(f"RFC offset {out['rfc_c']} != reference {ref['rfc_c']}")
        if not max(out["d_errs"]) <= LIMIT_D_ERR:
            errs.append(f"disturbance round-trip error {max(out['d_errs'])} > {LIMIT_D_ERR}")
        if not max(out["traj_errs"]) <= LIMIT_TRAJ_ERR:
            errs.append(f"trajectory round-trip error {max(out['traj_errs'])} > {LIMIT_TRAJ_ERR}")
        return errs

    def reference(self, out: dict) -> dict:
        return out


def make_workloads(scratch: Path) -> dict:
    return {w.name: w for w in (CliReadme(scratch), GrowthSweep(), RdStiff(), ReachTdi())}
