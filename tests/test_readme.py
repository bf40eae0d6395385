"""The README's library references resolve: every ``multiseq.<module>``
and ``multiseq.<module>.<name>`` it names, and every name its Library
example imports."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def library_example_imports() -> list:
    """(module, name) of each name the Library section's example imports."""
    section = README.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [(node.module, alias.name) for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) for alias in node.names]


DOTTED = sorted(set(re.findall(r"\bmultiseq\.(\w+)(?:\.(\w+))?", README)))


def test_the_readme_names_library_references():
    assert len(DOTTED) >= 5
    assert len(library_example_imports()) >= 5


@pytest.mark.parametrize("module, name", DOTTED,
                         ids=[".".join(filter(None, ref)) for ref in DOTTED])
def test_dotted_reference_resolves(module, name):
    target = importlib.import_module(f"multiseq.{module}")
    if name:
        assert hasattr(target, name), f"multiseq.{module} has no {name}"


@pytest.mark.parametrize("module, name", library_example_imports())
def test_library_example_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module} has no {name}"
