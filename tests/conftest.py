"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

from oracles import openblas_threads


@pytest.fixture
def blas_threads():
    """OpenBLAS set to two threads for the test: yields ``(get, count outside the call)``."""
    controls = openblas_threads()
    if controls is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, set_ = controls
    saved = get()
    set_(2)
    try:
        yield get, get()
    finally:
        set_(saved)
