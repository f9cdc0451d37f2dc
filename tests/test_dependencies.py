"""Every third-party module the code imports is a declared dependency,
and importing the package loads nothing beyond them."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Top-level names of this repository's own code.
FIRST_PARTY = {"repro", "tests", "benchmarks"}


def _normal(name):
    """A distribution or module name compared case- and ``-``/``_``-blind."""
    return name.lower().replace("-", "_")


def _names(specs):
    """Normalized distribution names of the quoted requirement strings in
    ``specs`` (the inside of a TOML array)."""
    return {
        _normal(re.match(r"[A-Za-z0-9_.-]+", spec).group(0))
        for spec in re.findall(r'"([^"]+)"', specs)
    }


def _table(text, name):
    """The body of TOML table ``[name]``."""
    pattern = rf"^\[{re.escape(name)}\]$(.*?)(?=^\[|\Z)"
    return re.search(pattern, text, re.M | re.S).group(1)


def _declared():
    """``([project].dependencies, the dev extra)`` of pyproject.toml,
    parsed by hand since ``tomllib`` needs Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    runtime = re.search(
        r"^dependencies\s*=\s*\[(.*?)\]", _table(text, "project"), re.M | re.S
    )
    dev = re.search(
        r"^dev\s*=\s*\[(.*?)\]",
        _table(text, "project.optional-dependencies"),
        re.M | re.S,
    )
    return _names(runtime.group(1)), _names(dev.group(1))


def _third_party(directory):
    """Top-level third-party module of every absolute import under
    ``directory``, mapped to one file that imports it."""
    found = {}
    for path in sorted((ROOT / directory).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in FIRST_PARTY:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def _undeclared(found, declared):
    return {m: path for m, path in found.items() if _normal(m) not in declared}


def test_third_party_imports_are_declared():
    runtime, _ = _declared()
    found = _third_party("src/repro")
    assert "numpy" in found  # the scan sees the package's imports
    missing = _undeclared(found, runtime)
    assert not missing, f"imported but not in [project].dependencies: {missing}"


def test_test_and_benchmark_imports_are_declared():
    """``pip install -e .[dev]`` installs what the tests and benchmarks
    import."""
    runtime, dev = _declared()
    found = {**_third_party("benchmarks"), **_third_party("tests")}
    assert {"pytest", "hypothesis", "scipy"} <= set(found)
    missing = _undeclared(found, runtime | dev)
    assert not missing, f"imported but neither a dependency nor dev: {missing}"


def test_example_imports_are_runtime_dependencies():
    runtime, _ = _declared()
    found = _third_party("examples")
    assert "numpy" in found
    missing = _undeclared(found, runtime)
    assert not missing, f"imported but not in [project].dependencies: {missing}"


def test_import_loads_no_scipy():
    """Start-up stays numpy-only: a fresh interpreter that imports the
    package and its CLI has loaded no scipy module."""
    script = (
        "import sys, repro, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
