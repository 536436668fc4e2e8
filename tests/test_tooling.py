"""The benchmark's span recorder only names library attributes that exist.

perfbench/spans.py wraps (module, attribute) pairs of cfl when a traced run
starts; a pair that no longer resolves would fail that run with an
AttributeError.  The file is read and executed here, not imported, so no
bytecode is written next to it.
"""

import importlib
import os
import types

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "spans.py")


def _spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    with open(SPANS, encoding="utf-8") as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


def test_every_wrapped_attribute_resolves():
    wrapped = _spans().WRAPPED
    assert wrapped
    missing = [
        (module, attr)
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
