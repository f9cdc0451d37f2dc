"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _declared():
    """Lower-cased names in ``[project].dependencies`` of pyproject.toml,
    parsed by hand since ``tomllib`` needs Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S)
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
        for spec in re.findall(r'"([^"]+)"', deps.group(1))
    }


def _imported():
    """Top-level module of every absolute import under ``src/repro``,
    mapped to one file that imports it."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], str(path.relative_to(ROOT)))
    return found


def test_third_party_imports_are_declared():
    third_party = {
        module: path
        for module, path in _imported().items()
        if module not in sys.stdlib_module_names and module != "repro"
    }
    assert "numpy" in third_party  # the scan sees the package's imports
    declared = _declared()
    missing = {m: p for m, p in third_party.items() if m.lower() not in declared}
    assert not missing, f"imported but not in [project].dependencies: {missing}"
