from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import torsion_gate

SRC = Path(__file__).resolve().parent.parent / "src"
ENGINE_MODULES = ("cli", "exactmath", "gate", "hecke", "maninspace", "redux")


@pytest.mark.parametrize("module", ("torsion_gate", *(f"torsion_gate.{m}" for m in ENGINE_MODULES)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_reexports_each_engine_module():
    # cli, the command-line front end, is not re-exported
    names = []
    for m in ENGINE_MODULES[1:]:
        mod = importlib.import_module(f"torsion_gate.{m}")
        assert all(getattr(torsion_gate, name) is getattr(mod, name) for name in mod.__all__)
        names += mod.__all__
    assert torsion_gate.__all__ == names
    assert not set(names) & set(importlib.import_module("torsion_gate.cli").__all__)


def test_star_import():
    namespace: dict = {}
    exec("from torsion_gate import *", namespace)
    assert set(torsion_gate.__all__) <= set(namespace)


def test_cold_import_generates_no_code():
    # Every CLI call starts a fresh interpreter; dataclasses (with inspect,
    # ast and dis behind it) would cost it more than most commands compute.
    child = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from torsion_gate import cli\n"
        "cli.build_parser()\n"
        "print(cli.__file__)\n"
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", child, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    cli_file, loaded = proc.stdout.split("\n")[:2]
    assert Path(cli_file).resolve().parent == SRC / "torsion_gate"
    assert loaded == ""
