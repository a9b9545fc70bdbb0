"""One Hypothesis profile for the suite: derandomized examples, no deadline
and no example database, so a run is repeatable. Each property test sets
only its own ``max_examples``.

Hypothesis also caches the constants it reads from the source. That cache
goes to a temporary directory, removed when the run ends, so a test run
writes no ``.hypothesis/`` into the checkout.
"""

import shutil
import tempfile

import pytest
from hypothesis import configuration, settings

settings.register_profile("suite", derandomize=True, deadline=None, database=None)
settings.load_profile("suite")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="nondecomp-hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)
