"""Source-level guards on the package and on the benchmark's tracer.

* Library invariants must hold under ``python -O``, which strips bare
  ``assert`` statements, so ``src/repro`` states them as named raises.
* ``perfbench/tracer.py`` wraps library names from outside; a renamed or
  removed target would crash only a traced benchmark run.  Resolving every
  ``(owner, attribute)`` pair here fails fast instead.
"""

import ast
import importlib.util
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def test_library_has_no_bare_asserts():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare asserts vanish under python -O: {found}"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets(repro)
    assert targets
    for owner, attr, name, _ in targets:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        assert callable(getattr(owner, attr, None)), f"tracer target {label} is gone"
        assert name in tracer.LAYERS, label
