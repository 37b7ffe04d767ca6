"""Every library module lists exactly what it offers in ``__all__``."""

import inspect

import pytest

import laxkit

MODULES = [getattr(laxkit, name) for name in laxkit.__all__ if inspect.ismodule(getattr(laxkit, name))]


def test_package_names_resolve():
    assert all(hasattr(laxkit, name) for name in laxkit.__all__)


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_public_definitions_are_listed(mod):
    defined = [name for name, obj in vars(mod).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__ and not name.startswith("_")]
    assert [name for name in defined if name not in mod.__all__] == []
