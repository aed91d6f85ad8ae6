from __future__ import annotations

import importlib

import pytest

import torsion_gate

ENGINE_MODULES = ("cli", "exactmath", "gate", "hecke", "maninspace", "redux")


@pytest.mark.parametrize("module", ("torsion_gate", *(f"torsion_gate.{m}" for m in ENGINE_MODULES)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from torsion_gate import *", namespace)
    assert set(torsion_gate.__all__) <= set(namespace)
