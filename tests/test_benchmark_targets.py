"""The benchmark's span targets name attributes the package still defines."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_span_targets_resolve():
    # the tracer wraps `module.attr`, or for "Class.method" the attribute in
    # the class's own namespace
    missing = []
    for module_name, attr in _load_spans().LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}:{attr}")
    assert not missing, missing
