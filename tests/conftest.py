import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def four_blob_window():
    """One 100-point window drawn from four well-separated gaussians."""
    from mostream.stream_io import gen_blobs

    batches = list(gen_blobs(k=4, per_blob=25, sep=10.0, stddev=0.5,
                             window_size=100, seed=0))
    assert len(batches) == 1
    return batches[0]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process behind, running or unreaped
    (a forked seeding worker that was never waited for, say)."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (waitpid gave {pid}, status {status})")
