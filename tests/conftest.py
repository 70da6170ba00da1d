"""Fixtures shared by several test modules."""

import sys

import pytest

from tropaint import regular_subdivision


@pytest.fixture
def fallback_certifications(monkeypatch):
    """Every cone certified without its witness, in order: the arguments
    (equalities, stricts, dimension, rays) of each _ray_sum_cone call, by
    which _certify_cone makes the ray sum the interior point whichever route
    found the rays: the kernels of _flippable_rays for a triangulation cone,
    the hull of _cone_rays for any other.  Ray computations of already
    certified cones are not counted."""
    calls = []
    real = regular_subdivision._ray_sum_cone

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(regular_subdivision, "_ray_sum_cone", counting)
    return calls


@pytest.fixture
def calls_to(monkeypatch):
    """Count calls of a tropaint function through every module's binding.

    Modules import functions by name, so calling the returned install(fn)
    replaces each binding of fn in every loaded tropaint module.  install
    returns the list of calls, each recorded as (calling module, args).
    """

    def install(real):
        calls = []

        def counting(*args):
            calls.append((sys._getframe(1).f_globals.get("__name__"), args))
            return real(*args)

        for name, module in sorted(sys.modules.items()):
            if name.partition(".")[0] == "tropaint":
                for attr, obj in list(vars(module).items()):
                    if obj is real:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    return install
