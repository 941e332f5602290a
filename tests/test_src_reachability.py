"""Every module under ``src/repro`` is reached from a program that runs.

The roots are ``repro.cli`` and every ``repro`` import in ``examples/*.py``
and ``bench/*.py``.  From them the test follows ``import`` and ``from``
statements, parsed with :mod:`ast` so nothing is imported.  ``from repro.pkg
import Name`` reaches ``repro.pkg.Name`` when that is a module, and otherwise
the module ``pkg``'s ``lazy_exports`` table names for ``Name``.  Reaching a
module reaches its parent packages.  A module that only ``tests/`` imports
fails the test: give it a caller that serves the paper, or delete it.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Sequence, Set

REPO = Path(__file__).resolve().parents[1]
SOURCE = REPO / "src"
ROOT_FILES = sorted([*(REPO / "examples").glob("*.py"), *(REPO / "bench").glob("*.py")])


def source_modules(source: Path = SOURCE) -> Dict[str, ast.Module]:
    """Map every module under ``source/repro`` to its parsed source."""
    modules = {}
    for path in source.glob("repro/**/*.py"):
        parts = path.relative_to(source).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = ast.parse(path.read_text())
    return modules


def lazy_table(tree: ast.Module) -> Dict[str, str]:
    """Map each name of a package's ``lazy_exports`` table to its module."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            exports = ast.literal_eval(node.args[1])
            return {name: module for module, names in exports.items() for name in names}
    return {}


def imported_modules(tree: ast.Module, modules: Dict[str, ast.Module]) -> Iterator[str]:
    """Yield the modules that ``tree``'s import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            yield node.module
            if node.module not in modules:
                continue
            table = lazy_table(modules[node.module])
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                yield submodule if submodule in modules else table.get(alias.name, node.module)


def reached_modules(
    modules: Dict[str, ast.Module], root_files: Sequence[Path] = ROOT_FILES
) -> Set[str]:
    frontier = ["repro.cli"]
    for path in root_files:
        frontier.extend(imported_modules(ast.parse(path.read_text()), modules))
    reached: Set[str] = set()
    while frontier:
        name = frontier.pop()
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            module = ".".join(parts[:depth])
            if module in modules and module not in reached:
                reached.add(module)
                frontier.extend(imported_modules(modules[module], modules))
    return reached


def test_every_source_module_is_reached_from_the_cli_examples_or_bench():
    modules = source_modules()
    unreached = sorted(set(modules) - reached_modules(modules))
    assert not unreached, f"modules nothing outside tests/ imports: {unreached}"


def write_tree(root: Path, files: Dict[str, str]) -> Path:
    """Write ``files`` (paths relative to ``root``) and return ``root / "src"``."""
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root / "src"


PACKAGE = {
    "src/repro/__init__.py": "",
    "src/repro/pkg/__init__.py": (
        "from repro._lazy import lazy_exports\n"
        "__getattr__, __dir__ = lazy_exports(__name__, {'repro.pkg.impl': ('Name',)})\n"
    ),
    "src/repro/pkg/impl.py": "Name = 1\n",
    "src/repro/pkg/helper.py": "",
    "src/repro/pkg/orphan.py": "from repro.pkg import impl\n",
}


def test_walker_follows_lazy_exports_and_flags_what_only_tests_import(tmp_path):
    source = write_tree(tmp_path, {**PACKAGE, "src/repro/cli.py": "from repro.pkg import Name\n"})
    modules = source_modules(source)
    assert set(modules) - reached_modules(modules, []) == {"repro.pkg.helper", "repro.pkg.orphan"}


def test_walker_reaches_a_submodule_named_in_a_from_import(tmp_path):
    source = write_tree(tmp_path, {**PACKAGE, "src/repro/cli.py": "from repro.pkg import helper\n"})
    modules = source_modules(source)
    assert set(modules) - reached_modules(modules, []) == {"repro.pkg.impl", "repro.pkg.orphan"}


def test_walker_starts_from_example_and_bench_imports(tmp_path):
    source = write_tree(
        tmp_path,
        {
            **PACKAGE,
            "src/repro/cli.py": "",
            "examples/demo.py": "import repro.pkg.orphan\n",
            "bench/run.py": "from repro.pkg import helper\n",
        },
    )
    modules = source_modules(source)
    roots = [tmp_path / "examples/demo.py", tmp_path / "bench/run.py"]
    # the orphan's own import of impl is followed too
    assert set(modules) - reached_modules(modules, roots) == set()
    assert set(modules) - reached_modules(modules, roots[1:]) == {
        "repro.pkg.impl",
        "repro.pkg.orphan",
    }
