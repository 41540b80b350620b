"""The package namespace, its modules' imports and the README's library example."""

import ast
import re
from pathlib import Path

import fsig


def test_every_exported_name_resolves():
    assert len(set(fsig.__all__)) == len(fsig.__all__)
    for name in fsig.__all__:
        assert getattr(fsig, name) is not None, name


def test_every_module_level_import_is_used():
    for path in sorted(Path(fsig.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert "from fsig import segre_generators, f_signature" in example
    exec(compile(example, "README.md", "exec"), {})
