"""The benchmark's traced rounds rebind named attributes of the library
(``perfbench/spans.py``, ``_bindings``); a refactor that drops one of those
names would only crash the traced rounds.  This reads the benchmark's list
and checks that every name is still defined on its owner."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _bindings() -> list:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._bindings()


BINDINGS = _bindings()


@pytest.mark.parametrize("owner,attr", [(o, a) for o, a, _ in BINDINGS],
                         ids=[f"{o.__name__}.{a}" for o, a, _ in BINDINGS])
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
