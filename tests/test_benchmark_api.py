"""The benchmark scripts under perfbench/ import and patch parts of the
library; these checks parse them with ``ast`` so that a renamed or deleted
name fails here instead of in a traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def slateval_imports(tree) -> dict:
    """Local name -> imported object, for every import from a slateval module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "slateval":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "slateval":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")  # a submodule
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def test_benchmark_scripts_exist():
    assert {p.name for p in SCRIPTS} >= {"run.py", "tracing.py", "oracle.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_imports_and_calls_resolve(script):
    """Every name imported from slateval exists, and every call of one of
    them binds its positional count and keyword names to the signature."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    names = slateval_imports(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        target = names.get(node.func.id)
        if target is None or not callable(target):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        args = [None] * len(node.args)
        kwargs = {k.arg: None for k in node.keywords}
        try:
            inspect.signature(target).bind(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{script.name}:{node.lineno}: {node.func.id}(...): {exc}")


def test_attributes_the_tracer_wraps_or_reads_exist():
    from slateval import moments, optimization
    from slateval.policies import Policy
    from slateval.spaces import SlateSpace

    assert callable(Policy.__dict__["moment_arrays"])
    assert callable(SlateSpace.__dict__["validate"])
    for name in ("moment_matrix", "pinv_numeric", "pinv_uniform"):
        assert callable(getattr(moments, name))
    for member in ("ENUMERATED", "MONTE_CARLO", "CLOSED_FORM_UNIFORM_CARTESIAN",
                   "CLOSED_FORM_UNIFORM_RANKING"):
        assert isinstance(getattr(moments.Provenance, member), moments.Provenance)
    assert "phi_hats" in optimization.DecomposedTargets.__dataclass_fields__



def test_record_builder_calls_the_traced_moment_functions(monkeypatch):
    """The tracer replaces ``moments.moment_matrix``, ``pinv_numeric`` and
    ``pinv_uniform`` on the module. A moment store that bound them locally
    would bypass the spans, and the ``moments.*`` metrics would read 0
    without any failure, so each must see its call here."""
    import numpy as np

    from helpers import random_explicit_policy
    from slateval import moments
    from slateval.policies import UniformPolicy
    from slateval.spaces import SlateSpace

    calls = []

    def counted(name):
        original = getattr(moments, name)
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    for name in ("moment_matrix", "pinv_numeric", "pinv_uniform"):
        monkeypatch.setattr(moments, name, counted(name))
    space = SlateSpace.ranking(4, 2)
    source = moments.PinvSource()
    source.pseudoinverse(UniformPolicy(space), "q")
    assert calls == ["moment_matrix", "pinv_uniform"]
    source.pseudoinverse(random_explicit_policy(space, ["q"], np.random.default_rng(0)), "q")
    assert calls == ["moment_matrix", "pinv_uniform", "moment_matrix", "pinv_numeric"]
