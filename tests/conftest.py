import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from permgamp import bundled_scenario_path, load_scenario, trace_scenario
from permgamp import experiment, forward_model, gamp, oracle, raytracer
from permgamp.forward_model import ray_table

# Same examples on every run, and no example database written to disk.
settings.register_profile("permgamp", derandomize=True, database=None, max_examples=100,
                          deadline=None)
settings.load_profile("permgamp")
# Hypothesis also caches source constants on disk, at collection time: keep
# them in a directory that is deleted when the test process exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def canyon():
    return load_scenario(bundled_scenario_path("canyon"))


@pytest.fixture(scope="session")
def canyon_rays(canyon):
    return trace_scenario(canyon)


@pytest.fixture(scope="session")
def canyon_table(canyon_rays):
    return ray_table(canyon_rays)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.PCG64(20240817))


@pytest.fixture()
def ray_table_calls(monkeypatch):
    """A list that grows by one at every ray table the package builds,
    through the rays' table or forward_model.ray_table."""
    calls = []

    def counted(rays):
        calls.append(1)
        return ray_table(rays)

    for module in (gamp, experiment, oracle):  # they take the rays' table
        assert not hasattr(module, "ray_table"), module.__name__
    for module in (forward_model, raytracer):
        monkeypatch.setattr(module, "ray_table", counted)
    return calls
