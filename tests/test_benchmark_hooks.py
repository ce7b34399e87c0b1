"""The names the benchmark (`perfbench/`) wraps or reads resolve in the package.

A benchmark run whose hook has gone exits with an error, so a rename inside
the package is caught here, before any benchmark run.  The benchmark's files
are only read: `spans.py` imports the standard library alone and is loaded
by path, and `workloads.py`, which edits `sys.path` and may exit, is parsed,
not imported.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from bouligand_landweber import ForwardProblem, SpdSystem, build_mesh

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = "bouligand_landweber"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


def _workload_reads():
    """(module, attribute) of each `module.attr` that workloads.py reads on a package module."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == PACKAGE
        for alias in node.names
    }
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    )


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in SPANS.MODULE_HOOKS])
def test_each_module_hook_is_a_function_of_its_module(module, attr):
    # the tracer replaces the module attribute that callers resolve at call time
    namespace = vars(importlib.import_module(f"{PACKAGE}.{module}"))
    assert callable(namespace.get(attr)), f"{module}.{attr}"


def test_class_hooks_are_in_their_class_dicts():
    # the tracer patches these on the class, so they must be defined there
    assert SPANS.PACKAGE == PACKAGE
    assert "build" in vars(ForwardProblem)
    assert "matvec" in vars(SpdSystem)


def test_a_built_problem_has_the_fields_the_tracer_wraps():
    problem = ForwardProblem.build(build_mesh(5))
    assert callable(problem.precond)
    for name in SPANS.NONLINEARITY_METHODS:
        assert callable(getattr(problem.nonlinearity, name, None)), name


def test_every_name_the_workloads_read_resolves():
    reads = _workload_reads()
    assert ("landweber", "REASON_FORWARD_FAILURE") in reads and len(reads) >= 15
    missing = [
        f"{module}.{attr}"
        for module, attr in reads
        if not hasattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
    ]
    assert not missing
