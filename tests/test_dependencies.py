"""The declared dependencies cover every third-party import.

``setup.py``'s ``install_requires`` must name every package the library
imports, and only those.  The CI workflow runs the suite from a source checkout, so its
``pip install`` line must name those and every package the tests and
benchmarks import, or every step after the install dies at import time.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST_PARTY = {"repro", "tests", "benchmarks"}
#: Import name -> the distribution that provides it, where the two differ.
DISTRIBUTIONS = {"pytest_benchmark": "pytest-benchmark"}


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def third_party_imports(*directories: str) -> dict[str, str]:
    """Distribution -> one module importing it, over every module under ``directories``."""

    found: dict[str, str] = {}
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.partition(".")[0]
                    if top in sys.stdlib_module_names or top in FIRST_PARTY:
                        continue
                    name = _normalized(DISTRIBUTIONS.get(top, top))
                    found.setdefault(name, str(path.relative_to(ROOT)))
    return found


def install_requires() -> set[str]:
    """The literal ``install_requires`` list of the ``setup()`` call in setup.py."""

    for node in ast.walk(ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    return {
                        _normalized(re.split(r"[\s<>=!~;\[]", requirement)[0])
                        for requirement in ast.literal_eval(keyword.value)
                    }
    raise AssertionError("setup.py declares no install_requires")


def workflow_installs() -> set[str]:
    """Every package named on a ``pip install`` line of the CI workflow."""

    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    return {
        _normalized(token)
        for line in re.findall(r"pip install ([^\n]+)", text)
        for token in line.split()
        if not token.startswith("-")
    }


def test_install_requires_covers_the_library_imports():
    declared = install_requires()
    missing = {name: where for name, where in third_party_imports("src").items() if name not in declared}
    assert not missing, f"imported under src/ but not in setup.py install_requires: {missing}"


def test_install_requires_names_only_what_the_library_imports():
    imported = third_party_imports("src")
    unused = sorted(name for name in install_requires() if name not in imported)
    assert not unused, f"in setup.py install_requires but imported nowhere under src/: {unused}"


def test_the_workflow_installs_what_the_suite_imports():
    installed = workflow_installs()
    needed = third_party_imports("src", "tests", "benchmarks")
    missing = {name: where for name, where in needed.items() if name not in installed}
    assert not missing, f"imported but not installed by .github/workflows/ci.yml: {missing}"
