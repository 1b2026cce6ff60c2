"""The package's layering, read from each module's imports with ``ast``.

A module may import, within the package, only the modules below it:
errors at the bottom, then games, then channel and optimize side by side,
then engine, then dynamics.  ``cli`` sits on top and no module imports it;
``__init__`` re-exports the library and may import any module but ``cli``.
"""

import ast
from pathlib import Path

import pytest

import xorszilard

PACKAGE = Path(xorszilard.__file__).resolve().parent

MAY_IMPORT = {
    "errors": set(),
    "games": {"errors"},
    "channel": {"errors", "games"},
    "optimize": {"errors", "games"},
    "engine": {"errors", "games", "channel"},
    "dynamics": {"errors", "engine"},
}
TOP = {"__init__", "cli"}


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports, by relative
    import (``from .games import ...``, ``from . import games``) or by
    absolute name (``xorszilard.games``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module == "xorszilard":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("xorszilard."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("xorszilard."))
    return found


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def test_every_module_has_a_layer():
    assert set(MODULES) == set(MAY_IMPORT) | TOP


@pytest.mark.parametrize("name", sorted(MAY_IMPORT))
def test_module_imports_only_lower_layers(name):
    imported = package_imports(PACKAGE / f"{name}.py")
    assert imported <= MAY_IMPORT[name], (
        f"{name} imports {sorted(imported - MAY_IMPORT[name])}")


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_cli(name):
    assert "cli" not in package_imports(PACKAGE / f"{name}.py")


def test_import_reader_sees_every_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from .games import XorGame\n"
                      "from . import channel, engine\n"
                      "from xorszilard.optimize import DEFAULT_SEED\n"
                      "from xorszilard import dynamics\n"
                      "import xorszilard.cli\n"
                      "import numpy as np\n", encoding="utf-8")
    assert package_imports(source) == {"games", "channel", "engine",
                                       "optimize", "dynamics", "cli"}
