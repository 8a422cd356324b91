"""Setuptools entry point and the package metadata.

``pip install .`` installs the ``repro`` package from ``src/`` with its runtime
dependencies and the ``jwins-repro`` console script.  The test suite also
needs ``pytest``, ``pytest-benchmark`` and ``hypothesis``, which the CI
workflow installs; ``tests/test_dependencies.py`` checks both lists against
what the code imports.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(encoding="utf-8"),
).group(1)

setup(
    name="jwins-repro",
    version=VERSION,
    description="JWINS (ICDCS 2023): wavelet-based sparsification for decentralized learning",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
    entry_points={"console_scripts": ["jwins-repro = repro.cli:main"]},
)
