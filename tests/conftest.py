"""Shared test set-up."""

import pytest

from pencilab import pencil


@pytest.fixture(autouse=True)
def _forget_last_roots():
    # tau_roots keeps the roots of the last point it solved; a test that
    # counts eigensolves must not see a point an earlier test left there.
    pencil._last_roots.clear()
