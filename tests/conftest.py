import numpy as np
import pytest

from tijepa import numerics


@pytest.fixture
def inner():
    """``inner(out, g)``: ``sum(out * g)`` for a constant array ``g``, as one tape record
    whose backward hands ``out`` exactly ``g``; a test's way to inject an upstream gradient."""
    def inner(out, g):
        g = np.asarray(g, dtype=out.dtype)
        return numerics._record("inner", (out,), np.asarray((out.data * g).sum(), dtype=out.dtype),
                                lambda up: (up * g,))

    return inner
