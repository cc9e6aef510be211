"""Helpers for tests that read scenes or score them with and without the
scene worker; its ``fresh_worker`` fixture is in ``conftest.py``."""

import pytest

from soundloc import synth

SHARES = synth._WORKERS > 0     # a scene worker makes (and scores) every other chunk


def inline(monkeypatch, call):
    """``call()`` with every scene made and scored in this process."""
    with monkeypatch.context() as m:
        m.setattr(synth, "_WORKERS", 0)
        return call()


def error_of(call):
    """The type and message of what ``call()`` raises."""
    with pytest.raises(BaseException) as info:
        call()
    return type(info.value), str(info.value)
