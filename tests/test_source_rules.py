"""Rules the engine's source keeps: exact arithmetic only, so no float
literal and no `float(` call, and a runtime of the standard library alone."""

import ast
import sys
from pathlib import Path

import quantalg


def test_source_has_no_float_and_imports_only_the_standard_library():
    found = []
    for path in sorted(Path(quantalg.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{where}: float literal {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "float":
                found.append(f"{where}: float() call")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    modules = [] if node.level else [node.module]
                for module in modules:
                    top = module.split(".")[0]
                    if top != "quantalg" and top not in sys.stdlib_module_names:
                        found.append(f"{where}: import of {module}")
    assert found == []
