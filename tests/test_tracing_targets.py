"""The benchmark reaches into the program by attribute name: its span
tracer wraps attributes (``perfbench/spans.py``) and its job driver calls
relaydescs' jobs (``perfbench/workloads.py``), so a rename must fail here
and not only in the benchmark's slower self-check. Both files also keep
their own copies of the fetcher's URL table, pinned to it here."""

import ast
import importlib.util
from pathlib import Path

from dircollect.docmodel import DocType
from dircollect.fetcher import BATCH_URLS, BULK_URLS, DOCUMENT_URLS
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


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _constant(tree, name):
    """A module-level ``name = ...``'s value, ``DocType.X`` read as the member."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == [name]]
    expression = compile(ast.Expression(value), name, "eval")
    return eval(expression, {"__builtins__": {}, "DocType": DocType})


def test_benchmark_urls_are_the_fetchers():
    workloads, spans = _tree("workloads.py"), _tree("spans.py")
    assert _constant(workloads, "BATCH_ROUTES") == BATCH_URLS
    assert _constant(workloads, "CONSENSUS_ROUTES") == {
        flavor: DOCUMENT_URLS[flavor]
        for flavor in (DocType.ConsensusNs, DocType.ConsensusMicrodesc)}
    # the batch prefixes that fetcher.batch_fill counts tokens behind
    fill = [ast.literal_eval(node.iter) for node in ast.walk(spans)
            if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple)
            and [getattr(name, "id", None) for name in node.target.elts]
            == ["prefix", "sep"]]
    assert fill == [tuple(BATCH_URLS.values())]
    table = {*DOCUMENT_URLS.values(), *BULK_URLS.values(),
             *(prefix for prefix, _ in BATCH_URLS.values())}
    for tree in (workloads, spans):
        urls = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and node.value.startswith("/tor/")}
        assert urls <= table
