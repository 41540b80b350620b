"""The package namespace and the README's library example."""

import re
from pathlib import Path

import fsig


def test_every_exported_name_resolves():
    assert len(set(fsig.__all__)) == len(fsig.__all__)
    for name in fsig.__all__:
        assert getattr(fsig, name) is not None, name


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert "from fsig import segre_generators, f_signature" in example
    exec(compile(example, "README.md", "exec"), {})
