"""The engine and the analytic model sit below everything that uses them.

``repro.sim`` (event loop, network, servers) and ``repro.core`` (queueing
formulas) must not import the layers built on top of them — not at module
level and not inside a function, where such an import is easy to miss.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
UPPER_LAYERS = ("paxi", "protocols", "bench", "shard", "experiments")


def _imported_modules(path: Path) -> set[str]:
    """Absolute dotted names of everything ``path`` imports, at any depth."""
    package = path.relative_to(SRC.parent).parts[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package[: len(package) - node.level + 1]
                base = ".".join([*parent, *([base] if base else [])])
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("layer", ["sim", "core"])
def test_lower_layer_does_not_import_upward(layer):
    modules = sorted((SRC / layer).rglob("*.py"))
    assert modules, f"no modules found under {SRC / layer}"
    offenders = []
    for path in modules:
        for name in sorted(_imported_modules(path)):
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in UPPER_LAYERS:
                offenders.append(f"{path.relative_to(SRC.parent)} imports {name}")
    assert not offenders, "\n".join(offenders)
