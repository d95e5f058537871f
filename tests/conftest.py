"""Shared fixtures."""

import contextlib
import dataclasses

import pytest

from polarineq.inequalities import REGISTRY


@pytest.fixture
def swap_sides(monkeypatch):
    """``with swap_sides(ineq_id, sides):`` scores the entry by other sides.

    Inside the block ``REGISTRY[ineq_id]`` is a copy with the given
    ``sides(inst, z)``, so the instances built there (``build_instance``,
    ``regenerate_instance``, the suites) are mutated; the entry is restored
    on exit.
    """

    @contextlib.contextmanager
    def swap(ineq_id, sides):
        with monkeypatch.context() as patch:
            patch.setitem(REGISTRY, ineq_id, dataclasses.replace(REGISTRY[ineq_id], sides=sides))
            yield

    return swap
