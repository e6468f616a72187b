import time

import numpy as np
import pytest

from lgcn.checksuite import run_suite


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def gradcheck_suite():
    """One run of the whole gradient suite at grad_check's eps and tol: (reports, seconds)."""
    t0 = time.monotonic()
    reports = run_suite("all")
    return reports, time.monotonic() - t0
