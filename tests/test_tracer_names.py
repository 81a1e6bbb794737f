"""Every name the benchmark tracer wraps is still bound in brandtlift.

perfbench/tracer.py is only read here: a function must be an attribute of
its module and a method must be in its class's __dict__, as the tracer
looks them up.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def _is_bound(module: str, qualname: str) -> bool:
    mod = importlib.import_module(f"brandtlift.{module}")
    owner, _, name = qualname.rpartition(".")
    if not owner:
        return hasattr(mod, name)
    cls = getattr(mod, owner, None)
    return isinstance(cls, type) and name in vars(cls)


def test_every_traced_name_is_bound():
    traced = _traced()
    assert traced
    missing = [f"{m}.{q}" for m, q, _ in traced if not _is_bound(m, q)]
    assert not missing, f"traced names no longer bound: {missing}"

