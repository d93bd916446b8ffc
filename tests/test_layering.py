"""The package imports one way: algebra, oracle and ik, then gefp, then hfun,
then verify and cli.  Every package import sits at the top of its module,
so the order is read off the import statements alone.  Past mpmath, the
package and its CLI import no ``dataclasses`` and nothing it pulls in."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gefp_lab

PACKAGE = Path(gefp_lab.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _package_modules(node):
    """The package modules an import statement reads, the package itself as
    ``__init__``; absolute and relative forms alike."""
    if isinstance(node, ast.Import):
        paths = [alias.name.split(".") for alias in node.names]
        return {path[1] if len(path) > 1 else "__init__"
                for path in paths if path[0] == "gefp_lab"}
    inner = node.module.split(".") if node.module else []
    if node.level == 0:
        if not inner or inner[0] != "gefp_lab":
            return set()
        inner = inner[1:]
    if inner:
        return {inner[0]}
    return {alias.name if alias.name in MODULES else "__init__" for alias in node.names}


def _imports(tree):
    """(statement, inside a function) for every import statement of a module."""
    found = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, nested))
            visit(child, nested or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


TREES = {name: ast.parse((PACKAGE / f"{name}.py").read_text()) for name in sorted(MODULES)}
READS = {name: set().union(*(_package_modules(node) for node, _ in _imports(tree)))
         for name, tree in TREES.items()}


def test_no_package_module_is_imported_inside_a_function():
    late = [(name, node.lineno, sorted(_package_modules(node)))
            for name, tree in TREES.items()
            for node, nested in _imports(tree) if nested and _package_modules(node)]
    assert late == []


def test_the_engines_import_nothing_from_hfun():
    assert "hfun" not in READS["gefp"]
    assert "gefp" in READS["hfun"]


# dataclasses imports inspect, which imports ast, dis, tokenize and linecache:
# about 9 ms of every cold process
SLOW_IMPORTS = {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache"}


def test_the_package_imports_no_dataclasses_past_mpmath():
    script = ("import json, sys, mpmath\n"
              "before = set(sys.modules)\n"
              "import gefp_lab, gefp_lab.cli\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True, env=env)
    added = set(json.loads(result.stdout))
    assert "gefp_lab.cli" in added
    assert added & SLOW_IMPORTS == set()
