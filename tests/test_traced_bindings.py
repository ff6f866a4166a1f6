"""The benchmark's tracer wraps names bound outside their defining module
(bench/run.py, TRACED_BINDINGS); a refactor that drops one of them breaks
the benchmark but no library test, so this test pins them."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _traced_bindings():
    """TRACED_BINDINGS read off the source of bench/run.py, which is
    neither imported nor changed."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED_BINDINGS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no TRACED_BINDINGS")


def test_every_traced_binding_is_still_bound():
    bindings = _traced_bindings()
    assert bindings
    for owner, names in bindings.items():
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"semigroups.{module}")
        if cls:
            target = getattr(target, cls)
        for name in names:
            assert callable(getattr(target, name, None)), (owner, name)
