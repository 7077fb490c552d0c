"""Fixtures shared by every test module."""
import numpy as np
import pytest

from quarts import tensor as T


@pytest.fixture
def f64():
    """Run the test with the engine in float64."""
    with T.using_dtype(np.float64):
        yield


@pytest.fixture(autouse=True)
def engine_dtype_restored():
    """Fail a test that leaves the engine dtype other than float32."""
    # the scope restores float32 on exit, so one leak fails one test, not the rest
    with T.using_dtype(np.float32):
        yield
        left = T.get_default_dtype()
    assert left is np.float32, f"the test left the engine dtype at {left.__name__}"
