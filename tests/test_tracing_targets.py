"""The benchmark's span tracer wraps program attributes by name
(``perfbench/spans.py``), so a rename must fail here and not only in the
benchmark's slower self-check."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    spans = _spans()
    targets = [*spans.TRACED, (spans.DirServer, "respond", "dirserver.respond")]
    missing = [name for owner, attr, name in targets if attr not in owner.__dict__]
    assert missing == []
