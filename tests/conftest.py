"""Fixtures shared by several test modules."""

import sys

import pytest

from tropaint import painting, regular_subdivision


@pytest.fixture
def fallback_certifications(monkeypatch):
    """Every cone certified without its witness, in order: the arguments
    (equalities, stricts, dimension, witness, rays) of each _certify_cone
    call whose cone takes the ray sum as interior point, whichever route
    found the rays: the kernels of _flippable_rays for a triangulation cone,
    the hull of _cone_rays for any other.  Calls that find the open cone
    empty, and ray computations of already certified cones, are not
    counted."""
    calls = []
    real = regular_subdivision._certify_cone

    def counting(equalities, stricts, dim, witness, rays=None):
        cone = real(equalities, stricts, dim, witness, rays)
        if cone is not None and cone.interior_point is not witness:
            calls.append((equalities, stricts, dim, witness, rays))
        return cone

    # painting binds the name too, for its chambers and painting cones
    for module in (regular_subdivision, painting):
        monkeypatch.setattr(module, "_certify_cone", counting)
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
