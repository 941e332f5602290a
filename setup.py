"""Setuptools shim for environments without the ``wheel`` package.

``pip install -e . --no-build-isolation --no-use-pep517`` uses this file via
the legacy ``setup.py develop`` path, which works offline.  This file is the
package's only metadata: ``pyproject.toml`` holds tool settings (pytest, ruff)
and no ``[project]`` table.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
