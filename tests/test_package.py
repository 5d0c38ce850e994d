"""Package-level checks: every public module's ``__all__`` resolves."""

import pkgutil

import pytest

import poissonforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(poissonforge.__path__))


def test_modules_found():
    assert {"cli", "formal", "liealg", "multivector", "poisson", "polyalg",
            "realize"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from poissonforge.{module} import *", {})
