"""The benchmark's span targets and workload calls name attributes the
package still defines."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
SPANS = BENCHMARK / "spans.py"
WORKLOADS = BENCHMARK / "workloads.py"


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


def _sf_chains(path):
    """Every `sf.<module>.<name>...` attribute chain in a source file."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "sf" and len(names) >= 2:
            chains.add(tuple(reversed(names)))
    return chains


def _sf_module(name):
    # the worker's `sf` namespace holds modules of stochflow and stochflow.io_cli
    for package in ("stochflow", "stochflow.io_cli"):
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError:
            pass
    return None


def test_workload_calls_resolve():
    chains = _sf_chains(WORKLOADS)
    assert chains
    missing = []
    for module_name, *attrs in sorted(chains):
        obj = _sf_module(module_name)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(".".join(["sf", module_name, *attrs]))
    assert not missing, missing
