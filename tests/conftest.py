import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from semiflux.monitors import evaluate_trajectory
from semiflux.scenarios import make_setup
from semiflux.solver import run

# hypothesis writes its storage (the source literals it caches, even with
# no example database) under the working directory unless told otherwise;
# it reads this variable on its first write, so the session's storage goes
# to a directory removed when the session ends
_HYPOTHESIS_DIR = tempfile.mkdtemp(prefix="semiflux-hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _HYPOTHESIS_DIR

# no example database: a failing draw is not replayed on later runs, so no
# run of the suite depends on an earlier one
settings.register_profile("stateless", database=None)
settings.load_profile("stateless")


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_DIR, ignore_errors=True)


@pytest.fixture(scope="session")
def bump_setup():
    # small, fast default used by many structural tests
    return make_setup("gaussian-bump", {"n_cells": 200, "t_end": 1.0})


@pytest.fixture(scope="session")
def bump_traj(bump_setup):
    return run(bump_setup.initial, bump_setup.profile, bump_setup.model,
               bump_setup.cfg, bump_setup.grid, cadence=20)


@pytest.fixture(scope="session")
def bump_report(bump_setup, bump_traj):
    return evaluate_trajectory(bump_traj)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)
