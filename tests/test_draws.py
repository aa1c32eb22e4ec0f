"""Every seeded draw, pinned by digest, and the one place that opens a stream.

The drawing functions are run with the solver stubbed out: the stand-in for
`_sample_ensemble` records the states and inputs it is handed and returns
zeros, so each digest is of the draws alone.
"""

import hashlib
import inspect
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import brslab as bl
from brslab import brscheck, cli, tdinput
from brslab.brscheck import _probe_pairs, _random_pc_input
from brslab.tdinput import disturbance_family

SEEDS = (5, 20240811)
INPUT_DIMS = (1, 3)


def draw_digest(*arrays) -> str:
    """sha256 over each array's shape and float64 bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()[:32]


def signal_arrays(signals):
    return [a for u in signals for a in (u.breakpoints, u.values)]


def stub_system(input_dim: int) -> bl.SystemDef:
    # state dimension 2; the right-hand side is never called
    return bl.SystemDef(state_dim=2, input_dim=input_dim, rhs=lambda x, u: x)


@pytest.fixture
def handed(monkeypatch):
    """(X0, inputs) of every `_sample_ensemble` call made from brscheck."""
    calls = []

    def stand_in(sys, X0, inputs, groups, cfg):
        X0 = np.asarray(X0, dtype=float)
        calls.append((X0, list(inputs)))
        T = max(len(times) for times, _ in groups)
        return np.zeros((T, len(X0), sys.state_dim)), np.full(len(X0), np.inf)

    monkeypatch.setattr(brscheck, "_sample_ensemble", stand_in)
    return calls


def _sample_reach(handed, seed, m):
    brscheck.sample_reach(stub_system(m), 2.0, 3.0, 6, seed)
    (X0, us), = handed
    return draw_digest(X0, *signal_arrays(us))


def _disturbances(handed, seed, m):
    return draw_digest(*signal_arrays(disturbance_family(m, 3.0, 12, seed)))


def _pc_inputs(handed, seed, m):
    us = [_random_pc_input(np.random.default_rng([seed, s]), m, 3.0, 1.5) for s in range(50)]
    assert any(u.breakpoints.size == 0 for u in us)  # some draw no switch
    return draw_digest(*signal_arrays(us))


def _probe(purpose):
    def draws(handed, seed, m):
        pairs = _probe_pairs(m + 1, 2.0, 5, seed, purpose, 2)
        return draw_digest(*(x for pair in pairs for x in pair))
    return draws


def _open_probe_inputs(handed, seed, m):
    brscheck.probe_lipschitz_openloop(stub_system(m), 1.0, 2.0, 5, seed)
    (X0, us), = handed
    return draw_digest(X0, *signal_arrays(us))


def _rfc_states(handed, seed, m):
    margin = bl.make("sigma1").margin
    brscheck.verify_rfc_tdi(stub_system(m), margin, margin.eta, 0.0, 2.0, 3.0, 9, seed)
    (X0, ds), = handed
    return draw_digest(X0, *signal_arrays(ds))


DRAWS = {
    "sample_reach": _sample_reach,
    "disturbance_family": _disturbances,
    "random_pc_input": _pc_inputs,
    "open_probe_pairs": _probe("open_probe_pairs"),
    "tdi_probe_pairs": _probe("tdi_probe_pairs"),
    "open_probe_inputs": _open_probe_inputs,
    "rfc_states": _rfc_states,
}

# Recorded while each draw still built its own generator and drew its own
# directions and switching times: routing them through one stream function
# and one direction and signal draw moved no bit.
DRAW_DIGESTS = {
    ("disturbance_family", 1, 5): "6ea9a91e1cc6fe75eef2f3aa8a287ed8",
    ("disturbance_family", 1, 20240811): "134dc986b7ec78108cfbf3a14c9a6960",
    ("disturbance_family", 3, 5): "1fd937368e78439d88bd8c0235304093",
    ("disturbance_family", 3, 20240811): "4868ebfe886307c696da779c932af0ba",
    ("growth_pairs", 1, 5): "7a28799154ce9f679d8dad6d0f40de7d",
    ("growth_pairs", 1, 20240811): "fccb6b2a94c46b772b170bbb41c31d83",
    ("growth_pairs", 3, 5): "722358b2a2c4975979fda4610e95a49e",
    ("growth_pairs", 3, 20240811): "3390fa8321aac3350b65f8e6d5d1eb13",
    ("open_probe_inputs", 1, 5): "3698686c4c358be099d7f73641efd771",
    ("open_probe_inputs", 1, 20240811): "08f37f2672ce72ed3254757e0e6e854b",
    ("open_probe_inputs", 3, 5): "3672312ad64492610417839e4376fd3f",
    ("open_probe_inputs", 3, 20240811): "80b09a80ab4fd1c6b941d9628396bece",
    ("open_probe_pairs", 1, 5): "301ceaf882fe889244c5acf488c00c48",
    ("open_probe_pairs", 1, 20240811): "e2d12bd498f3a3863eef3047f414b3ad",
    ("open_probe_pairs", 3, 5): "ab4d25acdffeca8ef052f706c92ac6c1",
    ("open_probe_pairs", 3, 20240811): "1fda2141c95105abaec4cba4144b005a",
    ("random_pc_input", 1, 5): "3678d5f92bffd8adced2a3d88037bd9a",
    ("random_pc_input", 1, 20240811): "2d015c1272b2faa513acb9f5188d8b0c",
    ("random_pc_input", 3, 5): "60fb41ea0a2e93409a0ad23f8dbbc40e",
    ("random_pc_input", 3, 20240811): "6a8f6b4e0e477dea922f60b81269899a",
    ("rfc_states", 1, 5): "57a91171bab431392f72fdd08da6f2fc",
    ("rfc_states", 1, 20240811): "da71201b0f346047ee9c764c5f7de0ee",
    ("rfc_states", 3, 5): "3638d09c641450bb03e643cebd0c9be3",
    ("rfc_states", 3, 20240811): "96ca7e7b1073d59547eb5602645ef476",
    ("sample_reach", 1, 5): "d65142b44f3cccc15e9a96e9ea3998c5",
    ("sample_reach", 1, 20240811): "cfed305d5a57a146c7596bd46886f5c0",
    ("sample_reach", 3, 5): "3b3549b783658752e15460d2d513aa19",
    ("sample_reach", 3, 20240811): "50b84d93b3c2e3b05cc72dfc7ddfe3ac",
    ("tdi_probe_pairs", 1, 5): "da17e6dfe5a35b4adb76716bf9781db7",
    ("tdi_probe_pairs", 1, 20240811): "709b66cbae50e6eecaeecf3cd31130d6",
    ("tdi_probe_pairs", 3, 5): "95c2057634f4933e3840491de6e4b0ab",
    ("tdi_probe_pairs", 3, 20240811): "3bfeb610ac60e299bca10b657f42346f",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", INPUT_DIMS)
@pytest.mark.parametrize("name", sorted(DRAWS))
def test_draw_digest(name, m, seed, handed):
    assert DRAWS[name](handed, seed, m) == DRAW_DIGESTS[name, m, seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", INPUT_DIMS)
def test_offset_search_samples_the_rfc_draws_once(m, seed, handed, monkeypatch):
    """Every offset is read from one call, handed the draws `rfc_states` pins."""
    zeros = brscheck._sample_ensemble

    def above_every_bound(*args):
        samples, t_cross = zeros(*args)
        return samples + 1e9, t_cross

    monkeypatch.setattr(brscheck, "_sample_ensemble", above_every_bound)
    margin = bl.make("sigma1").margin
    with pytest.raises(bl.NotRfcTdiError, match="every offset"):
        brscheck.find_rfc_offset(stub_system(m), margin, margin.eta, 2.0, 3.0, 9, seed)
    (X0, ds), = handed
    assert draw_digest(X0, *signal_arrays(ds)) == DRAW_DIGESTS["rfc_states", m, seed]


@dataclass
class _Report:
    vacuous: bool
    passes_V: bool = True
    passes_W: bool = True


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", INPUT_DIMS)
def test_growth_pair_digest(m, seed, monkeypatch, tmp_path):
    """The (x, u) pairs `lyapunov verify` draws, the redrawn ones included."""
    drawn = []

    def premise(margin, x, u):
        drawn.append((x, u))
        return 0.0, 0.0, len(drawn) % 3 != 0  # every third pair is redrawn

    def verify_growth(system, margin, X, U, lyap_cfg, l_table):
        return [_Report(vacuous=False) for _ in X]  # one call for the kept pairs

    ok = {"norm_x": np.zeros(1), "V": np.zeros(1), "alpha1": np.zeros(1),
          "alpha2_plus_C": np.ones(1)}
    monkeypatch.setattr(cli, "_bundle", lambda cfg: SimpleNamespace(system=stub_system(m)))
    monkeypatch.setattr(cli, "_build_pipeline", lambda cfg, bundle, out: (None, None, None, ok))
    monkeypatch.setattr(cli, "_premise", premise)
    monkeypatch.setattr(cli, "verify_growth", verify_growth)
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"system": {{"name": "stub"}}, "seed": {seed}, "growth_pairs": 5}}')
    assert cli.main(["lyapunov", "verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    got = draw_digest(*(a for pair in drawn for a in pair))
    assert got == DRAW_DIGESTS["growth_pairs", m, seed]


STREAM_OPENERS = ("default_rng(", "SeedSequence(")


def test_only_seeded_rng_opens_a_stream():
    # a draw that opened its own stream could collide with, or shift, another
    inside = inspect.getsource(tdinput.seeded_rng)
    assert all(word in inside for word in STREAM_OPENERS)
    for path in sorted(Path(tdinput.__file__).parent.glob("*.py")):
        outside = path.read_text().replace(inside, "")
        assert [w for w in STREAM_OPENERS if w in outside] == [], path.name
