"""Tests for :func:`repro.gcutils.paused_gc`: pause windows nest, and
each one restores the collector state it found."""

import gc

import pytest

from repro.gcutils import paused_gc


@pytest.fixture()
def gc_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_window_pauses_and_restores(gc_enabled):
    with paused_gc():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_inner_exit_keeps_the_outer_window_paused(gc_enabled):
    with paused_gc():
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_already_disabled_stays_disabled(gc_enabled):
    gc.disable()
    with paused_gc():
        with paused_gc():
            pass
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_exit_by_exception_restores(gc_enabled):
    with pytest.raises(RuntimeError):
        with paused_gc():
            raise RuntimeError("boom")
    assert gc.isenabled()
