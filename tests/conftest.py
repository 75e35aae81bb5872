import os

# BLAS reads its thread count once, when numpy is first imported, so pin it
# here, before that import: the solver's small factorizations run faster on
# one thread than split over several.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from usynth.synth import enumerate_sequences, standard_gate_set  # noqa: E402

# Property tests draw the same examples on every run, and a slow shared
# machine does not turn a correct example into a deadline failure.
settings.register_profile("usynth", derandomize=True, deadline=None, database=None)
settings.load_profile("usynth")


@pytest.fixture(scope="session")
def std_gateset():
    return standard_gate_set()


@pytest.fixture(scope="session")
def std_pool(std_gateset):
    return enumerate_sequences(std_gateset, 12)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
