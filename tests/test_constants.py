"""Pinned physical constants and the near/far crossover length."""

import dataclasses

import pytest

from casimir_pendulum import Constants, constants, crossover_length


def test_pinned_values():
    c = constants()
    assert c.hbar == 1.054571817e-34
    assert c.c == 2.99792458e8
    assert c.g_accel == 9.80665


def test_singleton_identity():
    assert constants() is constants()


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        constants().hbar = 1.0


@pytest.mark.parametrize("name", ["hbar", "c", "g_accel"])
def test_nonpositive_constant_rejected(name):
    with pytest.raises(ValueError, match="must all be positive"):
        Constants(**{name: 0.0})


def test_crossover_length():
    # c / omega0: the length scale separating near and far zones
    assert crossover_length(1e15) == pytest.approx(2.99792458e-7, rel=1e-15)
    assert crossover_length(2.99792458e8) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, -1e15])
def test_crossover_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        crossover_length(bad)
