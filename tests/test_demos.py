"""The demos and the README's python example compile, and every name they
import from edmcontrol exists.  Nothing here runs them."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _sources() -> dict:
    sources = {path.name: path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S), start=1):
        sources[f"README.md[{i}]"] = block
    return sources


SOURCES = _sources()


def test_every_demo_and_the_readme_example_are_collected():
    assert sum(name.endswith(".py") for name in SOURCES) >= 5
    assert "README.md[1]" in SOURCES


def edmcontrol_imports(tree):
    """(module, name) per name imported from edmcontrol; name is None for
    a plain ``import edmcontrol...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "edmcontrol":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "edmcontrol")


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_compiles_and_imported_names_exist(name):
    source = SOURCES[name]
    compile(source, name, "exec")
    imports = list(edmcontrol_imports(ast.parse(source)))
    assert imports, f"{name} imports nothing from edmcontrol"
    for module_name, attr in imports:
        module = importlib.import_module(module_name)
        if attr is not None:
            assert hasattr(module, attr), f"{name}: {module_name} has no {attr}"
