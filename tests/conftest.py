"""Fixtures shared by several test modules."""

import pytest

from tropaint import regular_subdivision


@pytest.fixture
def lp_calls(monkeypatch):
    """Every strict-feasibility LP solved to certify a cone, in order.

    Secondary cones, painting cones and painting chambers all certify
    through regular_subdivision, so this one binding sees every such LP.
    """
    calls = []
    real = regular_subdivision.lp_feasible_strict

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(regular_subdivision, "lp_feasible_strict", counting)
    return calls
