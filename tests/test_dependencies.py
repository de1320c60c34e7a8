"""The package's runtime needs numpy and the standard library alone."""
import ast
import sys
from pathlib import Path

import socmarket as sm

PACKAGE = Path(sm.__file__).resolve().parent


def test_imports_are_numpy_or_stdlib():
    # every absolute import, including those inside functions; relative
    # imports stay within the package
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in {"numpy", *sys.stdlib_module_names}]
    assert foreign == []
