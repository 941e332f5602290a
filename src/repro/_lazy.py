"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` names the module that defines each of
its public names and imports nothing itself: a name's module is imported the
first time the name is read, so importing one module of a package does not
load its siblings.  A serving process therefore loads the modules it runs,
not the experiment, chaos and metrics layers it never calls.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a defining module to the names the package re-exports
    from it.  A name resolves to that module's attribute and is then cached
    on the package.  A public name outside the table that names a submodule
    imports the submodule, so ``import repro; repro.cluster.ShardedSequencer``
    works as it did when every package imported its children eagerly.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            setattr(sys.modules[package], name, value)
            return value
        submodule = f"{package}.{name}"
        if not name.startswith("_") and importlib.util.find_spec(submodule) is not None:
            return importlib.import_module(submodule)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
