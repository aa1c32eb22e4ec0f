"""Command-line front end: batch experiments emitting CSV/JSON artifacts.

Exit codes: 0 success, 1 falsified property (witness JSON on stdout),
2 usage, config or integrator (step-size underflow) error.  Every emitted
JSON embeds the config hash and the seed, and outputs are pure functions of
(config, seed, binary version).

`lyapunov build` stamps its manifest with a reuse key: the config hash, a
digest of brslab's own sources and the numpy and scipy versions.
`lyapunov verify` reads the Lipschitz table and the radial table back from
--out when the manifest there carries its own key, and builds them
otherwise (no manifest or table, an unreadable one, a table that is not the
one the manifest was written with, or another key); either way it writes
the same bytes.  The growth pairs and the sandwich check always run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import numbers
import os
import sys as _sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import examples as ex
from .brscheck import (
    NotBrsError,
    fit_additive_bound,
    find_rfc_offset,
    probe_lipschitz_openloop,
    probe_lipschitz_tdi,
    sample_reach,
    seeded_rng,
    verify_rfc_tdi,
)
from .compfun import eta_from_chis
from .lyapunov import (
    LyapunovConfig,
    NotRfcTdiError,
    TailBudgetError,
    build_l_table,
    dump_table,
    load_table,
    radial_table,
    verify_growth,
)
from .sysdyn import InputSignal, IntegratorConfig, StepSizeError, integrate
from .tdinput import GrowthMargin


class ConfigError(ValueError):
    pass


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


@functools.cache
def _code_digest() -> str:
    """sha256 of brslab's own sources, computed once, on first use."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _reuse_key(cfg: dict) -> dict:
    """What a `lyapunov build` manifest must carry for verify to reuse it."""
    return {"config_hash": _config_hash(cfg), "code_digest": _code_digest(),
            "numpy_version": np.__version__, "scipy_version": scipy.__version__}


def _load_config(path: str | None, args) -> dict:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if "seed" not in cfg:
        raise ConfigError("seed is mandatory (config key or --seed flag)")
    cfg["seed"] = _setting(cfg, "seed", None, int)
    if not isinstance(cfg.get("system"), dict) or "name" not in cfg["system"]:
        raise ConfigError("config needs system: {name, params}")
    if cfg.get("eta_source", "paper") not in ("paper", "from_fit"):
        raise ConfigError("eta_source must be 'paper' or 'from_fit'")
    return cfg


# Ball radius and horizon: the library needs both strictly positive.
_POSITIVE = ("C", "horizon")


def _setting(cfg: dict, key: str, default, kind=float):
    """cfg[key], or default, as a finite `kind` >= 0 (> 0 for C and horizon);
    anything else, or an int setting that is a bool or no integer, is a
    ConfigError."""
    value = cfg.get(key, default)
    if kind is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        value = kind(value)
        finite = math.isfinite(value)  # an int past float range overflows here
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a number: {exc}") from exc
    positive = key in _POSITIVE
    if not (finite and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"{key} must be a finite number {bound}, got {value}")
    return value


def _out_path(args) -> Path:
    return Path(args.out or os.environ.get("BRSLAB_OUT") or ".")


def _out_dir(args) -> Path:
    path = _out_path(args)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _bundle(cfg: dict) -> ex.ExampleBundle:
    params = cfg["system"].get("params")
    if params is not None and not isinstance(params, dict):
        raise ConfigError("system.params must be an object")
    try:
        return ex.make(cfg["system"]["name"], params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot build system {cfg['system']['name']!r}: {exc}") from exc


def _reach_samples(bundle: ex.ExampleBundle, cfg: dict):
    samples = _setting(cfg, "samples", 40, int)
    if samples < 1:  # a bound fitted to no samples is undefined
        raise ConfigError(f"samples must be >= 1 for reach sampling, got {samples}")
    return sample_reach(
        bundle.system,
        _setting(cfg, "C", 2.0),
        _setting(cfg, "horizon", 3.0),
        samples,
        cfg["seed"],
    )


def _margin(bundle: ex.ExampleBundle, cfg: dict) -> GrowthMargin:
    source = cfg.get("eta_source", "paper")
    if source == "paper":
        if bundle.margin is None:
            raise ConfigError(
                f"example {bundle.name!r} ships no growth margin; use from_fit"
            )
        return bundle.margin
    fit = fit_additive_bound(_reach_samples(bundle, cfg))
    return GrowthMargin(eta_from_chis(fit.chi1, fit.chi2, fit.chi3))


def _int_cfg(sub) -> IntegratorConfig:
    if not isinstance(sub, dict):
        raise ConfigError("integrator settings must be an object")
    try:
        return IntegratorConfig(**{k: float(v) for k, v in sub.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integrator settings: {exc}") from exc


def _lyap_cfg(cfg: dict) -> LyapunovConfig:
    sub = cfg.get("lyapunov", {})
    if not isinstance(sub, dict):
        raise ConfigError("lyapunov settings must be an object")
    try:
        # one seed: the disturbances of U_q draw from the seed stamped on the artifacts
        return LyapunovConfig(**sub, seed=cfg["seed"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lyapunov settings: {exc}") from exc


def _plain(obj):
    """obj with every array or tuple as a list and every NaN or infinity as None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _stamped(obj: dict, cfg: dict, indent: int | None = None) -> str:
    """RFC 8259 JSON of obj plus the config hash and seed, a non-finite
    float written as null: every JSON the CLI emits is written here."""
    obj = _plain(dict(obj, config_hash=_config_hash(cfg), seed=cfg["seed"]))
    return json.dumps(obj, sort_keys=True, indent=indent, default=float, allow_nan=False)


def _emit(out_path: Path, obj: dict, cfg: dict) -> None:
    out_path.write_text(_stamped(obj, cfg, indent=2))


def _fail(witness: dict, cfg: dict) -> int:
    print(_stamped(witness, cfg))
    return 1


def _array(cfg: dict, key: str, default) -> np.ndarray:
    try:
        return np.asarray(cfg.get(key, default), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a list of numbers: {exc}") from exc


def _vector(cfg: dict, key: str, dim: int) -> np.ndarray:
    v = _array(cfg, key, np.zeros(dim))
    if v.shape != (dim,):
        raise ConfigError(f"{key} must be a list of {dim} numbers, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{key} must hold finite numbers, got {v.tolist()}")
    return v


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args)
    bundle = _bundle(cfg)
    x0 = _vector(cfg, "x0", bundle.system.state_dim)
    u = InputSignal.constant(_vector(cfg, "u_constant", bundle.system.input_dim))
    tau = _setting(cfg, "horizon", 1.0)
    traj = integrate(bundle.system, x0, u, tau, _int_cfg(cfg.get("integrator", {})))
    out = _out_dir(args)
    traj.to_csv(out / "trajectory.csv")
    _emit(
        out / "simulate.json",
        {"t_max": traj.t_max_estimate, "blew_up": traj.blew_up, "final_state": traj.states[-1]},
        cfg,
    )
    return 0


def cmd_brs_fit(args) -> int:
    cfg = _load_config(args.config, args)
    bundle = _bundle(cfg)
    samples = _reach_samples(bundle, cfg)
    out = _out_dir(args)
    samples.to_csv(out / "reach_samples.csv")
    try:
        fit = fit_additive_bound(samples)
    except NotBrsError as exc:
        return _fail({"falsified": "BRS", "detail": str(exc)}, cfg)
    _emit(
        out / "brs_fit.json",
        {"chi": json.loads(fit.chi1.to_json()), "c": fit.c, "residual": fit.residual},
        cfg,
    )
    return 0


def cmd_rfc_verify(args) -> int:
    cfg = _load_config(args.config, args)
    bundle = _bundle(cfg)
    margin = _margin(bundle, cfg)
    report = verify_rfc_tdi(
        bundle.system,
        margin,
        margin.eta,
        _setting(cfg, "c", 0.0),
        _setting(cfg, "C", 2.0),
        _setting(cfg, "horizon", 3.0),
        _setting(cfg, "samples", 20, int),
        cfg["seed"],
    )
    _emit(_out_dir(args) / "rfc_report.json", asdict(report), cfg)
    if not report.holds:
        return _fail({"falsified": "RFC-TDI", "worst": report.worst}, cfg)
    return 0


def cmd_lipschitz_probe(args) -> int:
    cfg = _load_config(args.config, args)
    bundle = _bundle(cfg)
    tau = _setting(cfg, "horizon", 1.0)
    C = _setting(cfg, "C", 1.0)
    pairs = _setting(cfg, "samples", 10, int)
    if args.mode == "open":
        u_fixed = None
        if "u_constant" in cfg:
            u_fixed = InputSignal.constant(_vector(cfg, "u_constant", bundle.system.input_dim))
        report = probe_lipschitz_openloop(
            bundle.system, tau, C, pairs, cfg["seed"], u_fixed=u_fixed
        )
    else:
        report = probe_lipschitz_tdi(
            bundle.system, _margin(bundle, cfg), tau, C, pairs, cfg["seed"]
        )
    _emit(_out_dir(args) / f"lipschitz_{args.mode}.json", asdict(report), cfg)
    return 0


def _stored_tables(cfg: dict, out: Path):
    """(l_table, table) as `lyapunov build` wrote them to out for this
    config and code, or None if out holds no such pair."""
    try:
        table, l_table, manifest = load_table(out)
    except (OSError, ValueError):
        return None
    if any(manifest.get(k) != v for k, v in _reuse_key(cfg).items()):
        return None
    return l_table, table


def _build_pipeline(cfg: dict, stored_in: Path | None = None):
    """bundle, margin, Lyapunov config, l_table and radial table; the two
    tables come from `stored_in` when it holds them for this config."""
    bundle = _bundle(cfg)
    margin = _margin(bundle, cfg)
    lyap_cfg = _lyap_cfg(cfg)
    radii = _array(cfg, "radii", np.linspace(0.0, 2.0, 21))
    if radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii >= 0)):
        raise ConfigError(f"radii must be a non-empty list of finite numbers >= 0, got {radii}")
    stored = None if stored_in is None else _stored_tables(cfg, stored_in)
    if stored is not None:
        return bundle, margin, lyap_cfg, *stored
    if "c" in cfg:
        c = _setting(cfg, "c", None)
    else:
        c = find_rfc_offset(
            bundle.system, margin, margin.eta,
            _setting(cfg, "C", 2.0), _setting(cfg, "horizon", 3.0),
            _setting(cfg, "samples", 12, int), cfg["seed"],
        )
    l_table = build_l_table(bundle.system, margin, lyap_cfg.Q, c, cfg["seed"])
    table = radial_table(bundle.system, margin, radii, lyap_cfg, l_table)
    return bundle, margin, lyap_cfg, l_table, table


def cmd_lyapunov_build(args) -> int:
    cfg = _load_config(args.config, args)
    bundle, margin, lyap_cfg, l_table, table = _build_pipeline(cfg)
    out = _out_dir(args)
    dump_table(table, out, lyap_cfg, l_table, _reuse_key(cfg))
    return 0


def cmd_lyapunov_verify(args) -> int:
    cfg = _load_config(args.config, args)
    n_pairs = _setting(cfg, "growth_pairs", 10, int)
    bundle, margin, lyap_cfg, l_table, table = _build_pipeline(cfg, _out_path(args))
    bad = (table["alpha1"] > table["V"] + 1e-9) | (
        table["V"] > table["alpha2_plus_C"] + 1e-9
    )
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return _fail(
            {"falsified": "sandwich", "norm_x": table["norm_x"][i],
             "V": table["V"][i], "alpha1": table["alpha1"][i],
             "alpha2_plus_C": table["alpha2_plus_C"][i]},
            cfg,
        )
    rng = seeded_rng(cfg["seed"], "growth_pairs")
    reports = []
    while len(reports) < n_pairs:
        x = rng.uniform(0.1, 2.0) * _unit(rng, bundle.system.state_dim)
        u = rng.uniform(0.0, 1.0) * _unit(rng, bundle.system.input_dim)
        rep = verify_growth(bundle.system, margin, x, u, lyap_cfg, l_table)
        if rep.vacuous:  # outside the premise: draw another pair
            continue
        reports.append(asdict(rep))
        if not (rep.passes_V and rep.passes_W):
            return _fail({"falsified": "growth", "report": reports[-1]}, cfg)
    out = _out_dir(args)
    _emit(out / "lyapunov_verify.json",
          {"sandwich_ok": True, "growth_reports": reports}, cfg)
    return 0


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def cmd_examples_list(args) -> int:
    print(ex.list_examples())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="brslab")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("simulate", help="integrate a trajectory to CSV")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    brs = sub.add_parser("brs", help="reachability-bound fitting")
    brs_sub = brs.add_subparsers(dest="subcommand", required=True)
    sp = brs_sub.add_parser("fit")
    common(sp)
    sp.set_defaults(fn=cmd_brs_fit)

    rfc = sub.add_parser("rfc", help="robust forward completeness checks")
    rfc_sub = rfc.add_subparsers(dest="subcommand", required=True)
    sp = rfc_sub.add_parser("verify")
    common(sp)
    sp.set_defaults(fn=cmd_rfc_verify)

    lip = sub.add_parser("lipschitz", help="flow regularity probes")
    lip_sub = lip.add_subparsers(dest="subcommand", required=True)
    sp = lip_sub.add_parser("probe")
    sp.add_argument("--mode", choices=("open", "tdi"), required=True)
    common(sp)
    sp.set_defaults(fn=cmd_lipschitz_probe)

    lyap = sub.add_parser("lyapunov", help="Lyapunov construction/verification")
    lyap_sub = lyap.add_subparsers(dest="subcommand", required=True)
    sp = lyap_sub.add_parser("build")
    common(sp)
    sp.set_defaults(fn=cmd_lyapunov_build)
    sp = lyap_sub.add_parser("verify")
    common(sp)
    sp.set_defaults(fn=cmd_lyapunov_verify)

    exs = sub.add_parser("examples", help="registry listing")
    exs_sub = exs.add_subparsers(dest="subcommand", required=True)
    sp = exs_sub.add_parser("list")
    common(sp)
    sp.set_defaults(fn=cmd_examples_list)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, TailBudgetError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except StepSizeError as exc:
        print(f"integrator error: {exc}", file=_sys.stderr)
        return 2
    except NotBrsError as exc:
        print(json.dumps({"falsified": "BRS/RFC", "detail": str(exc)}))
        return 1
    except NotRfcTdiError as exc:
        print(json.dumps({"falsified": "RFC-TDI", "detail": str(exc)}))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
