"""Command-line front end: batch experiments emitting CSV/JSON artifacts.

Exit codes: 0 success, 1 falsified property (witness JSON on stdout),
2 usage, config, integrator (step-size underflow) or output error.  `main`
loads the config, builds the example and makes --out once for every
subcommand.  A `cmd_*` handler computes and returns (artifacts, witness):
the artifacts by file name, each CSV bytes from `_csv` or an object for
`_stamped`, and the falsification witness or None.  `main` alone writes the
artifacts, prints the witness (its own BRS and RFC-TDI ones too) and picks
the exit code.  This module alone holds the artifact formats: `_csv` writes
every CSV, `_stamped` every JSON (the manifest and witnesses included) with
the config hash and the seed, and outputs are pure functions of (config,
seed, binary version).

`lyapunov build` stamps its manifest with a reuse key: the config hash, a
digest of brslab's own sources and the numpy and scipy versions.
`lyapunov verify` reads the Lipschitz table and the radial table back from
--out when the manifest there carries its own key, and builds them
otherwise (no manifest or table, an unreadable one, a table that is not the
one the manifest was written with, or another key); either way it writes
the same bytes.  The margin, the growth pairs and the sandwich check are
always computed afresh.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import sys as _sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import examples as ex
from .brscheck import (
    NotBrsError,
    NotRfcTdiError,
    fit_additive_bound,
    find_rfc_offset,
    probe_lipschitz_openloop,
    probe_lipschitz_tdi,
    sample_reach,
    verify_rfc_tdi,
)
from .compfun import ScalarFun, eta_from_chis
from .lyapunov import (
    _COLUMNS,
    LipschitzTable,
    LyapunovConfig,
    TailBudgetError,
    _check_tail_budget,
    _premise,
    build_l_table,
    radial_table,
    verify_growth,
)
from .sysdyn import InputSignal, IntegratorConfig, StepSizeError, _number, _numbers, integrate
from .tdinput import GrowthMargin, _unit, seeded_rng


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


# Every top-level key a subcommand reads; any other is a ConfigError, so a
# misspelt one cannot fall back to its default silently.
_KEYS = frozenset({"system", "seed", "eta_source", "x0", "u_constant", "horizon", "C", "c",
                   "samples", "radii", "growth_pairs", "integrator", "lyapunov"})


def _load_config(path: str | None, args) -> dict:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(cfg) - _KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; known: {sorted(_KEYS)}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if "seed" not in cfg:
        raise ConfigError("seed is mandatory (config key or --seed flag)")
    cfg["seed"] = _setting(cfg, "seed", None, int)
    if not isinstance(cfg.get("system"), dict) or "name" not in cfg["system"]:
        raise ConfigError("config needs system: {name, params}")
    unknown = sorted(set(cfg["system"]) - {"name", "params"})
    if unknown:
        raise ConfigError(f"unknown system keys {unknown}; known: ['name', 'params']")
    if cfg.get("eta_source", "paper") not in ("paper", "from_fit"):
        raise ConfigError("eta_source must be 'paper' or 'from_fit'")
    return cfg


def _setting(cfg: dict, key: str, default, kind=float, *, ge=0, gt=None):
    """cfg[key], or default, as a `kind` >= ge, and > gt if given, by
    `_number`; anything else is a ConfigError.  Counts take ge=1: a fit on
    no samples fits nothing, and a check on none would pass."""
    try:
        return _number(key, cfg.get(key, default), kind, ge=ge, gt=gt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _bundle(cfg: dict) -> ex.ExampleBundle:
    params = cfg["system"].get("params")
    if params is not None and not isinstance(params, dict):
        raise ConfigError("system.params must be an object")
    try:
        return ex.make(cfg["system"]["name"], params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot build system {cfg['system']['name']!r}: {exc}") from exc


def _reach_samples(bundle: ex.ExampleBundle, cfg: dict):
    return sample_reach(bundle.system, _setting(cfg, "C", 2.0, gt=0),
                        _setting(cfg, "horizon", 3.0, gt=0),
                        _setting(cfg, "samples", 40, int, ge=1), cfg["seed"])


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


def _block(cfg: dict, key: str, build):
    """build(cfg[key]) for the settings object `key` ({} if absent); a block
    that is not an object, or that build rejects, is a ConfigError."""
    sub = cfg.get(key, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"{key} settings must be an object")
    try:
        return build(sub)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} settings: {exc}") from exc


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


def _csv(columns: dict) -> bytes:
    """A header of the column names, then one row per index, each value
    `%.18e` (exact): every CSV the CLI emits is written here."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(list(columns.values())), delimiter=",",
               header=",".join(columns), comments="")
    return buf.getvalue().encode("ascii")


def _fun_obj(f: ScalarFun) -> dict:
    """The knots, values, slope and tags of f, from which the ScalarFun
    constructor rebuilds it (a closed form `exact` is not kept)."""
    return {"knots": f.knots, "values": f.values, "slope": f.slope, "tags": sorted(f.tags)}


def _array(cfg: dict, key: str, default, *, ge=None) -> np.ndarray:
    """cfg[key], or default, as a float array of numbers >= ge, if given, by
    `_numbers`; anything else is a ConfigError."""
    try:
        return _numbers(key, cfg.get(key, default), ge=ge)
    except ValueError as exc:
        raise ConfigError(f"{key} must hold finite numbers: {exc}") from exc


def _vector(cfg: dict, key: str, dim: int) -> np.ndarray:
    v = _array(cfg, key, np.zeros(dim))
    if v.shape != (dim,):
        raise ConfigError(f"{key} must be a list of {dim} numbers, got shape {v.shape}")
    return v


def cmd_simulate(args, cfg: dict, bundle: ex.ExampleBundle, out: Path):
    x0 = _vector(cfg, "x0", bundle.system.state_dim)
    u = InputSignal.constant(_vector(cfg, "u_constant", bundle.system.input_dim))
    tau = _setting(cfg, "horizon", 1.0, gt=0)
    int_cfg = _block(cfg, "integrator", lambda sub: IntegratorConfig(**sub))
    traj = integrate(bundle.system, x0, u, tau, int_cfg)
    columns = {"t": traj.times, **{f"x{i}": x for i, x in enumerate(traj.states.T)}}
    return {"trajectory.csv": _csv(columns),
            "simulate.json": {"t_max": traj.t_max_estimate, "blew_up": traj.blew_up,
                              "final_state": traj.states[-1]}}, None


def cmd_brs_fit(args, cfg: dict, bundle: ex.ExampleBundle, out: Path):
    samples = _reach_samples(bundle, cfg)
    fit = fit_additive_bound(samples)
    return {"reach_samples.csv": _csv(asdict(samples)),
            "brs_fit.json": {"chi": _fun_obj(fit.chi1), "c": fit.c,
                             "residual": fit.residual}}, None


def cmd_rfc_verify(args, cfg: dict, bundle: ex.ExampleBundle, out: Path):
    margin = _margin(bundle, cfg)
    report = verify_rfc_tdi(
        bundle.system,
        margin,
        margin.eta,
        _setting(cfg, "c", 0.0),
        _setting(cfg, "C", 2.0, gt=0),
        _setting(cfg, "horizon", 3.0, gt=0),
        _setting(cfg, "samples", 20, int, ge=1),
        cfg["seed"],
    )
    witness = None if report.holds else {
        "falsified": "RFC-TDI", "worst": report.worst, "blowup_time": report.blowup_time}
    return {"rfc_report.json": asdict(report)}, witness


def cmd_lipschitz_probe(args, cfg: dict, bundle: ex.ExampleBundle, out: Path):
    tau = _setting(cfg, "horizon", 1.0, gt=0)
    C = _setting(cfg, "C", 1.0, gt=0)
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
    return {f"lipschitz_{args.mode}.json": asdict(report)}, None


_TABLE_CSV = "lyapunov_table.csv"
_MANIFEST = "lyapunov_manifest.json"


def _m_table(l_table: LipschitzTable) -> dict:
    """The inflated L per level, keyed "Theta(q,q),q"."""
    return {
        f"{tau:.12g},{q:.12g}": L
        for q, (tau, L) in enumerate(zip(l_table.theta, l_table.L), start=1)
    }


def _stored_tables(cfg: dict, out: Path):
    """(l_table, table) as `lyapunov build` wrote them to out for this
    config and code, bit for bit, or None if out holds no such tables: a
    missing, unreadable or foreign file, or a table that is not the one the
    manifest was written with."""
    try:
        manifest = json.loads((out / _MANIFEST).read_text())
        if any(manifest.get(k) != v for k, v in _reuse_key(cfg).items()):
            return None
        csv = (out / _TABLE_CSV).read_bytes()
        header, *rows = csv.decode("ascii").splitlines()
        if (header != ",".join(_COLUMNS)
                or hashlib.sha256(csv).hexdigest() != manifest["table_sha256"]):
            return None
        # the keys are sorted as strings; the level q is the part after the comma
        levels = sorted((float(key.split(",")[1]), L) for key, L in manifest["M_table"].items())
        l_table = LipschitzTable(tuple(L for _, L in levels), manifest["c"])
        if manifest["M_table"] != _m_table(l_table):
            return None
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except (OSError, KeyError, TypeError, ValueError, AttributeError, IndexError):
        return None
    return l_table, {c: data[:, i] for i, c in enumerate(_COLUMNS)}


def _build_pipeline(cfg: dict, bundle: ex.ExampleBundle, stored_in: Path | None = None):
    """margin, Lyapunov config, l_table and radial table; the two tables
    come from `stored_in` when it holds them for this config."""
    margin = _margin(bundle, cfg)
    # one seed: the disturbances of U_q draw from the seed stamped on the artifacts
    lyap_cfg = _block(cfg, "lyapunov", lambda sub: LyapunovConfig(**sub, seed=cfg["seed"]))
    radii = _array(cfg, "radii", np.linspace(0.0, 2.0, 21), ge=0)
    if radii.ndim != 1 or radii.size == 0:
        raise ConfigError(f"radii must be a non-empty list of finite numbers >= 0, got {radii}")
    stored = None if stored_in is None else _stored_tables(cfg, stored_in)
    if stored is not None:
        return margin, lyap_cfg, *stored
    if "c" in cfg:
        c = _setting(cfg, "c", None)
    else:
        c = find_rfc_offset(
            bundle.system, margin, margin.eta,
            _setting(cfg, "C", 2.0, gt=0), _setting(cfg, "horizon", 3.0, gt=0),
            _setting(cfg, "samples", 12, int, ge=1), cfg["seed"],
        )
    # the radial table's states r * e1 have norm r: a radius over the tail
    # budget fails here, before the Lipschitz probe
    _check_tail_budget(radii[:, None], c, lyap_cfg)
    l_table = build_l_table(bundle.system, margin, lyap_cfg.Q, c, cfg["seed"])
    table = radial_table(bundle.system, margin, radii, lyap_cfg, l_table)
    return margin, lyap_cfg, l_table, table


def cmd_lyapunov_build(args, cfg: dict, bundle: ex.ExampleBundle, out: Path):
    _, lyap_cfg, l_table, table = _build_pipeline(cfg, bundle)
    csv = _csv({c: table[c] for c in _COLUMNS})
    manifest = {
        "cfg": asdict(lyap_cfg),
        "c": l_table.c,
        "M_table": _m_table(l_table),
        # a table truncated or rewritten since no longer matches its manifest
        "table_sha256": hashlib.sha256(csv).hexdigest(),
        **_reuse_key(cfg),
    }
    return {_TABLE_CSV: csv, _MANIFEST: manifest}, None


def cmd_lyapunov_verify(args, cfg: dict, bundle: ex.ExampleBundle, out: Path):
    n_pairs = _setting(cfg, "growth_pairs", 10, int, ge=1)
    margin, lyap_cfg, l_table, table = _build_pipeline(cfg, bundle, out)
    bad = (table["alpha1"] > table["V"] + 1e-9) | (
        table["V"] > table["alpha2_plus_C"] + 1e-9
    )
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return {}, {"falsified": "sandwich", "norm_x": table["norm_x"][i],
                    "V": table["V"][i], "alpha1": table["alpha1"][i],
                    "alpha2_plus_C": table["alpha2_plus_C"][i]}
    rng = seeded_rng(cfg["seed"], "growth_pairs")
    pairs = []
    while len(pairs) < n_pairs:
        x = rng.uniform(0.1, 2.0) * _unit(rng, bundle.system.state_dim)
        u = rng.uniform(0.0, 1.0) * _unit(rng, bundle.system.input_dim)
        if _premise(margin, x, u)[2]:  # a pair outside the premise is drawn again
            pairs.append((x, u))
    X, U = (np.array(a) for a in zip(*pairs))
    reports = []
    for rep in verify_growth(bundle.system, margin, X, U, lyap_cfg, l_table):
        reports.append(asdict(rep))
        if not (rep.passes_V and rep.passes_W):
            return {}, {"falsified": "growth", "report": reports[-1]}
    return {"lyapunov_verify.json": {"sandwich_ok": True, "growth_reports": reports}}, None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="brslab")
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    # built on every call, so a handler rebound on this module is the one called
    for command, subcommand, fn, text in (
        ("simulate", None, cmd_simulate, "integrate a trajectory to CSV"),
        ("brs", "fit", cmd_brs_fit, "reachability-bound fitting"),
        ("rfc", "verify", cmd_rfc_verify, "robust forward completeness checks"),
        ("lipschitz", "probe", cmd_lipschitz_probe, "flow regularity probes"),
        ("lyapunov", "build", cmd_lyapunov_build, "Lyapunov construction/verification"),
        ("lyapunov", "verify", cmd_lyapunov_verify, "Lyapunov construction/verification"),
        ("examples", "list", None, "registry listing"),
    ):
        if subcommand is None:
            sp = sub.add_parser(command, help=text)
        else:
            if command not in groups:
                groups[command] = sub.add_parser(command, help=text).add_subparsers(
                    dest="subcommand", required=True)
            sp = groups[command].add_parser(subcommand)
        if fn is None:  # examples list takes no options
            continue
        if command == "lipschitz":
            sp.add_argument("--mode", choices=("open", "tdi"), required=True)
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "examples":
        print(json.dumps(ex.list_examples(), indent=2, sort_keys=True))
        return 0
    try:
        cfg = _load_config(args.config, args)
        bundle = _bundle(cfg)
        out = Path(args.out or os.environ.get("BRSLAB_OUT") or ".")
        out.mkdir(parents=True, exist_ok=True)
        artifacts, witness = args.fn(args, cfg, bundle, out)
        for name, body in artifacts.items():
            if not isinstance(body, bytes):
                body = _stamped(body, cfg, indent=2).encode("ascii")
            (out / name).write_bytes(body)
    except (ConfigError, TailBudgetError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except StepSizeError as exc:
        print(f"integrator error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:  # an --out that cannot be made or written
        print(f"output error: {exc}", file=_sys.stderr)
        return 2
    # only a loaded config gets this far: the witness carries its hash and seed
    except NotBrsError as exc:
        witness = {"falsified": "BRS", "detail": str(exc)}
    except NotRfcTdiError as exc:
        witness = {"falsified": "RFC-TDI", "detail": str(exc)}
    if witness is None:
        return 0
    print(_stamped(witness, cfg))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
