"""Fixtures shared by the test modules."""

import pytest

from soundloc import synth


@pytest.fixture
def fresh_worker():
    """A scene worker forked after the test's patches, and ended after the test."""
    synth._close_worker()
    yield
    synth._close_worker()
