"""The benchmark's traced run times the library by wrapping functions by
name; this keeps those names in step with the library."""
import importlib
import importlib.util
from pathlib import Path


def test_traced_functions_exist():
    """Every (module, function) the benchmark's traced run wraps
    (perfbench/spans.py, ``TARGETS``) resolves in flatlimit, so renaming or
    deleting a traced function fails here instead of in the benchmark."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_spans", root / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, function, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"flatlimit.{module}"), function, None)), (module, function)
