"""The benchmark's tracer wraps library entry points by name; each name it
lists must resolve, or the traced benchmark breaks on a rename."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracing = _tracing_module()
    missing = []
    for span in tracing.LAYER_OF:
        mod_name, _, attr = span.partition(".")
        owner = importlib.import_module(f"tessella.{mod_name}")
        for part in attr.split("."):  # a method resolves through its class
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(span)
    assert missing == []


def test_every_counter_names_a_traced_entry_point():
    tracing = _tracing_module()
    assert set(tracing._COUNTERS) <= set(tracing.LAYER_OF)
