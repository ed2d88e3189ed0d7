"""The benchmark's span recorder wraps csfdyn functions by module and
name; a refactor that renames one would silently leave its layer
unmeasured. This checks that every hook still resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for target in (*spans.TARGETS, spans.ROOT):
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), f"{target.module}.{target.attr}"
