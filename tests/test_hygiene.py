"""Source hygiene checks that need no linter: the standard library's ast only."""

import ast
import pathlib

import fusionrec

PACKAGE = pathlib.Path(fusionrec.__file__).parent

# (module, name) -> why the import stays although the module never reads it
ALLOWED_UNUSED = {
    ("experiment", "train_loop"):
        "perfbench/spans.py wraps experiment.train_loop by name, and a test "
        "monkeypatches it",
}


def unused_imports(path):
    """Names a module binds by import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name for name in imported if name not in used}


def modules():
    """(dotted module name, path) of every module but the __init__ files,
    whose imports are the package's re-exports."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            rel = path.relative_to(PACKAGE).with_suffix("")
            yield ".".join(rel.parts), path


def test_no_module_imports_a_name_it_never_uses():
    found = {(mod, name) for mod, path in modules()
             for name in unused_imports(path)}
    assert sorted(found - set(ALLOWED_UNUSED)) == []
    # an entry whose import went or is now read must leave the allowlist
    assert sorted(set(ALLOWED_UNUSED) - found) == []


def test_unused_import_check_sees_an_unused_name(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os\nimport numpy as np\nfrom a.b import c, d\n"
                    "print(np.zeros(1), d)\n")
    assert unused_imports(path) == {"os", "c"}
