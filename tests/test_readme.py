"""The README's library references resolve: every ``multiseq.<module>``
and ``multiseq.<module>.<name>`` it names, and every name its Library
examples import. The Library examples also run, in order, in one
namespace."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
LIBRARY = README.split("## Library", 1)[1].split("\n## ", 1)[0]
EXAMPLES = re.findall(r"```python\n(.*?)```", LIBRARY, re.S)


def library_example_imports() -> list:
    """(module, name) of each name the Library section's examples import
    from a package module."""
    return [(node.module, alias.name) for code in EXAMPLES
            for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.module.startswith("multiseq")
            for alias in node.names]


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


def test_library_examples_run(capsys):
    assert len(EXAMPLES) >= 2
    namespace = {}
    for code in EXAMPLES:
        exec(compile(code, "README.md", "exec"), namespace)
    # the design line, one line per grid point and one per correlation
    assert len(capsys.readouterr().out.splitlines()) == 1 + 9 + 2
