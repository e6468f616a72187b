import time

import numpy as np
import pytest

from lgcn.checksuite import run_suite


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def gradcheck_suite():
    """One run of the whole gradient suite at the default eps and tol: (reports, seconds)."""
    t0 = time.monotonic()
    reports = run_suite("all", eps=1e-4, tol=1e-4)
    return reports, time.monotonic() - t0
