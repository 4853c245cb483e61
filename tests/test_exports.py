"""The package's export list: a stale name in __all__ fails the star import."""

import inspect

import gpanet


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from gpanet import *", namespace)
    assert len(set(gpanet.__all__)) == len(gpanet.__all__)
    for name in gpanet.__all__:
        assert namespace[name] is getattr(gpanet, name)


def test_every_public_name_is_exported():
    public = {name for name, value in vars(gpanet).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(gpanet.__all__) - {"__version__"}
