"""Lazy package exports keep the public API.

Every ``repro`` package ``__init__`` exports lazily (PEP 562, through
``repro._lazy``): importing a package imports none of its modules, and a
public name imports its defining module the first time it is read.  The
probes run in a fresh interpreter, where nothing is imported yet.
"""

import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SOURCE).parts) for init in SOURCE.glob("repro/**/__init__.py")
)


def run_probe(code: str) -> None:
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SOURCE)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


EXPORTS_PROBE = """
import importlib
import pkgutil
import sys

packages = {packages!r}
for name in packages:
    importlib.import_module(name)
loaded = sorted(module for module in sys.modules if module.startswith("repro"))
assert loaded == sorted(packages + ["repro._lazy"]), loaded

own = {{name: set(vars(sys.modules[name])) for name in packages}}
resolved = {{}}
for name in packages:
    package = sys.modules[name]
    listing = dir(package)
    for attr in package.__all__:
        assert attr in listing, (name, attr)
        resolved[name, attr] = getattr(package, attr)

modules = [info.name for info in pkgutil.walk_packages(sys.modules["repro"].__path__, "repro.")]
for module in modules:
    importlib.import_module(module)
for (name, attr), value in resolved.items():
    assert getattr(sys.modules[name], attr) is value, (name, attr)
    if attr in own[name]:
        continue
    if getattr(value, "__qualname__", None) == attr:
        assert getattr(sys.modules[value.__module__], attr) is value, (name, attr)
    else:
        homes = [
            module
            for module in modules
            if module not in packages and vars(sys.modules[module]).get(attr) is value
        ]
        assert homes, (name, attr)
"""


def test_every_exported_name_resolves_to_its_defining_module():
    run_probe(EXPORTS_PROBE.format(packages=PACKAGES))


STAR_PROBE = """
import repro

assert repro.cluster.ShardedSequencer.__module__ == "repro.cluster.sharded"
assert not hasattr(repro.core, "no_such_name")
assert not hasattr(repro.core, "_private")

namespace = {}
exec("from repro import *", namespace)
assert set(namespace) - {"__builtins__"} == set(repro.__all__)
assert namespace["quick_sequence"] is repro.quick_sequence
assert namespace["TommySequencer"].__module__ == "repro.core.sequencer"
"""


def test_star_import_and_submodule_attributes_still_work():
    run_probe(STAR_PROBE)
