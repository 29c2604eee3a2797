"""The package namespace: ``qlre.__all__`` is every public name the package
imports, submodules left out, plus ``__version__``."""

import types

import qlre


def public_names(namespace):
    return {
        name
        for name, value in namespace.items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_all_is_every_imported_public_name():
    assert len(qlre.__all__) == len(set(qlre.__all__))
    assert set(qlre.__all__) == public_names(vars(qlre)) | {"__version__"}
    assert {"ScenarioConfig", "config_from_dict", "evolve", "QlreError"} <= set(qlre.__all__)
    assert not {"dynamics", "scenarios", "errors"} & set(qlre.__all__)


def test_star_import_binds_all_and_no_submodule():
    namespace = {}
    exec("from qlre import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(qlre.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
