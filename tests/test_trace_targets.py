"""The functions the benchmark's traced run wraps still exist.

`perfbench/spans.py` names each traced function as (metric prefix, owner,
attribute).  A function renamed or removed in `src/` would break only the
`--trace 1` runs, so this reads the list and checks every entry.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name,owner,attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_function_exists(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: no callable {attr!r}"
    # the metric prefix is <module>.<attribute>, the module the owner lives in
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    assert name == f"{module.rsplit('.', 1)[-1]}.{attr}"
