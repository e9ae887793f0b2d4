"""The benchmark's trace spans wrap lomlab functions by module attribute.

``perfbench/tracing.py`` skips a boundary whose attribute is gone, so a
refactor that renames one would silently drop its span; this test, unlike
the perfbench suite, runs with the library's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_boundary_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.BOUNDARIES
        if not callable(getattr(importlib.import_module(f"lomlab.{module}"), attr, None))
    ]
    assert tracing.BOUNDARIES and missing == []
