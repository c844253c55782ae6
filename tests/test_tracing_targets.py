"""The benchmark reaches into the program by attribute name: its span
tracer wraps attributes (``perfbench/spans.py``) and its job driver calls
relaydescs' jobs (``perfbench/workloads.py``), so a rename must fail here
and not only in the benchmark's slower self-check."""

import ast
import importlib.util
from pathlib import Path

from dircollect.plugins import RelayDescsPlugin

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    spans = _spans()
    targets = [*spans.TRACED, (spans.DirServer, "respond", "dirserver.respond")]
    missing = [name for owner, attr, name in targets if attr not in owner.__dict__]
    assert missing == []


def test_every_driven_job_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    (driver,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "JobDriver"]
    (init,) = [node for node in driver.body
               if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    jobs = {node.attr for node in ast.walk(init) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "plugin"}
    assert jobs, "JobDriver.__init__ names no plugin.<job>"
    missing = [job for job in sorted(jobs)
               if not callable(getattr(RelayDescsPlugin, job, None))]
    assert missing == []
