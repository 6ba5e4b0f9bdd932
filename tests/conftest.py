import os

import numpy as np
import pytest

from nlparax import ModelCoefficients


@pytest.fixture
def coeff():
    # deliberately anisotropic constants so algebra slips show up
    return ModelCoefficients(c=1.3, rho0=0.9, gamma=1.4, nu=0.2, eps=0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_child_left():
    # every study forks one child (experiments._split); it is reaped before
    # the study returns or raises, so no test leaves a process behind
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
