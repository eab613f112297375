"""README's "Library use" snippet runs, and the package root exports exactly
the names it imports plus `__version__`.

Run as a script, `python tests/test_readme.py` checks whichever `itelos` the
interpreter imports, for example an installed package outside the checkout.
"""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The first Python block under README's "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_snippet_imports_exactly_the_exported_names():
    import itelos

    snippet = library_snippet()
    exec(compile(snippet, "README.md", "exec"), {})
    imported = [
        alias.name
        for node in ast.walk(ast.parse(snippet))
        if isinstance(node, ast.ImportFrom) and node.module == "itelos"
        for alias in node.names
    ]
    assert sorted(itelos.__all__) == sorted([*imported, "__version__"])


if __name__ == "__main__":
    import itelos

    test_snippet_imports_exactly_the_exported_names()
    print(f"README library snippet: ok against {itelos.__file__}")
