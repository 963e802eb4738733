"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import liestrata

SOURCES = sorted(Path(liestrata.__file__).parent.glob("*.py"))


def outside_imports(source: str) -> list[str]:
    """Absolute imports of source whose top-level package is not stdlib."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names]


def test_runtime_is_standard_library_only():
    assert len(SOURCES) >= 12
    for path in SOURCES:
        assert outside_imports(path.read_text()) == [], path.name


def test_the_import_check_sees_third_party_modules():
    source = SOURCES[0].read_text()
    assert outside_imports("import numpy\n" + source) == ["numpy"]
    assert outside_imports("from numpy.linalg import det\n") == \
        ["numpy.linalg"]
    assert outside_imports("def f():\n    import sympy\n") == ["sympy"]
    assert outside_imports("from . import x\nimport fractions\n") == []
