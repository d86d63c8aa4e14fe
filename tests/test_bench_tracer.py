"""Every function the benchmark's tracer wraps must resolve.

`bench/tracer.py` names its targets by module and attribute in `SPANS`
and `COUNTS`.  A refactor that renames or moves one of them would make
the tracer fail only when the benchmark runs, so this checks here that
each target resolves through `tracer.original` to the function of that
name defined in that module.  The tracer is loaded from its file; nothing
under `bench/` is changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

TARGETS = [(module, attr) for module, attr, _ in tracer.SPANS + tracer.COUNTS]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_traced_target_resolves(module, attr):
    importlib.import_module(module)
    fn = tracer.original(module, attr)
    assert callable(fn)
    assert (fn.__module__, fn.__qualname__) == (module, attr)
