import time

import numpy as np
import pytest

import brslab as bl
from brslab import sysdyn

SEED = 20240811


def solver_work(monkeypatch) -> dict:
    """Solver starts sysdyn makes from now on, in `integrate` and the sampler
    alike: the class name of each in order ("methods") and the right-hand
    side evaluations they make ("nfev")."""
    work = {"methods": [], "nfev": 0}
    choose = sysdyn._solver

    def counted_solver(*args):
        options = choose(*args)
        method = options["method"]

        class Counted(method):
            def __init__(self, fun, *rest, **kwargs):
                def counted_fun(t, y):
                    work["nfev"] += 1
                    return fun(t, y)

                work["methods"].append(method.__name__)
                super().__init__(counted_fun, *rest, **kwargs)

        return {**options, "method": Counted}

    monkeypatch.setattr(sysdyn, "_solver", counted_solver)
    return work


def pytest_configure(config):
    config._suite_start = time.monotonic()


def suite_elapsed(config) -> float:
    return time.monotonic() - config._suite_start


@pytest.fixture(scope="session")
def sigma1():
    return bl.make("sigma1")


@pytest.fixture(scope="session")
def rfc_offset(sigma1):
    return bl.find_rfc_offset(
        sigma1.system, sigma1.margin, sigma1.margin.eta, 2.0, 3.0, 8, SEED
    )


@pytest.fixture(scope="session")
def l_table(sigma1, rfc_offset):
    return bl.build_l_table(sigma1.system, sigma1.margin, 14, rfc_offset, SEED)


@pytest.fixture(scope="session")
def lyap_cfg():
    return bl.LyapunovConfig(seed=SEED)


@pytest.fixture(scope="session")
def growing():
    """x' = x + u under linear's margin eta(s) = s/2, and its Q = 14 table at c = 0."""
    lin = bl.make("linear", {"A": [[1.0]], "B": [[1.0]]})
    return lin, bl.build_l_table(lin.system, lin.margin, 14, 0.0, SEED)
