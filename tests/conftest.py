from __future__ import annotations

import pytest

from torsion_gate import gate
from torsion_gate.maninspace import SymbolSpace, build_space


@pytest.fixture(scope="session")
def get_space():
    """Session-wide symbol-space cache: rank computations are reused."""
    cache: dict[int, SymbolSpace] = {}

    def _get(N: int) -> SymbolSpace:
        if N not in cache:
            cache[N] = build_space(N)
        return cache[N]

    return _get


@pytest.fixture
def cached_gate(get_space, monkeypatch):
    """The gate builds its symbol spaces through the session cache."""
    monkeypatch.setattr(gate, "build_space", get_space)
