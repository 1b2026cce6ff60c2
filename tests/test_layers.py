"""The package's layering, read from each module's imports with ``ast``.

A module may import, within the package, only the modules below it:
errors at the bottom, then games, then channel and optimize side by side,
then engine, then dynamics.  ``cli`` sits on top and no module imports it;
``__init__`` re-exports the library and may import any module but ``cli``.
It re-exports exactly the names that the CLI, the benchmark or a test
imports from the package top level, so a second spelling of a quantity
cannot come back through it unnoticed, and each export takes exactly the
parameters listed here, so an added option fails here too.
"""

import ast
import inspect
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

EXPORTS = {
    "channel": {"apply_noise", "binary_entropy", "enumerate_rounds",
                "mutual_information", "orient", "rounds_to_csv"},
    "dynamics": {"ProtocolSchedule", "estimate_sigma", "fit_loglog_slope",
                 "scaling_fit", "sigma_moments", "trajectory_energy_audit"},
    "engine": {"branch_decomposition", "branch_works", "class_ceilings",
               "cycle_ledger", "exact_memory_ledger", "memory_ledger",
               "merge_stats", "noise_threshold", "simulate_rounds",
               "small_bias_work", "sweep_s_curve"},
    "errors": {"BudgetError", "ParseError", "RegimeError", "ValidationError"},
    "games": {"Behaviour", "XorGame", "bias", "chsh_S", "correlator_behaviour",
              "correlators", "deterministic_behaviour", "game_value",
              "load_behaviour", "load_game", "make_chained", "make_chsh",
              "mix_with_uniform", "pr_box", "save_behaviour", "save_game",
              "uniform_behaviour"},
    "optimize": {"class_report", "is_nonsignalling", "local_value",
                 "quantum_behaviour", "quantum_value"},
}


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


def test_init_exports_exactly_the_listed_names():
    exported = {}
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported.setdefault(node.module, set()).update(
                alias.asname or alias.name for alias in node.names)
    assert exported == EXPORTS


# The parameter names of each exported function and class, in order.  The
# exception classes take BaseException's message arguments and add none.
SIGNATURES = {
    "apply_noise": ("p", "delta"),
    "binary_entropy": ("p",),
    "enumerate_rounds": ("game", "b"),
    "mutual_information": ("p",),
    "orient": ("p",),
    "rounds_to_csv": ("rounds", "cells", "path"),
    "ProtocolSchedule": ("tau", "steps", "rate", "gap_path"),
    "estimate_sigma": ("p", "sched", "reps", "seed"),
    "fit_loglog_slope": ("taus", "sigmas"),
    "scaling_fit": ("p", "tau_grid", "reps", "sched_template"),
    "sigma_moments": ("p", "sched"),
    "trajectory_energy_audit": ("p", "sched", "seed"),
    "branch_decomposition": ("q", "offset_kt"),
    "branch_works": ("q",),
    "class_ceilings": ("report",),
    "cycle_ledger": ("p",),
    "exact_memory_ledger": ("game", "b"),
    "memory_ledger": ("rounds", "cells"),
    "merge_stats": ("a", "b"),
    "noise_threshold": ("p_resource", "omega_q"),
    "simulate_rounds": ("game", "behaviour", "n", "seed", "p_model",
                        "noise_delta", "keep_records"),
    "small_bias_work": ("beta", "order"),
    "sweep_s_curve": ("s_values",),
    "Behaviour": ("table",),
    "XorGame": ("name", "mu", "f"),
    "bias": ("game", "b"),
    "chsh_S": ("b",),
    "correlator_behaviour": ("e",),
    "correlators": ("b",),
    "deterministic_behaviour": ("amap", "bmap"),
    "game_value": ("game", "b"),
    "load_behaviour": ("path",),
    "load_game": ("path",),
    "make_chained": ("n",),
    "make_chsh": (),
    "mix_with_uniform": ("b", "visibility"),
    "pr_box": ("game",),
    "save_behaviour": ("b", "path"),
    "save_game": ("game", "path"),
    "uniform_behaviour": ("game",),
    "class_report": ("game", "seed"),
    "is_nonsignalling": ("b",),
    "local_value": ("game",),
    "quantum_behaviour": ("game",),
    "quantum_value": ("game", "seed"),
}


def test_every_export_has_a_pinned_signature():
    functions_and_classes = set().union(*EXPORTS.values()) - EXPORTS["errors"]
    assert set(SIGNATURES) == functions_and_classes


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_export_takes_exactly_the_pinned_parameters(name):
    params = inspect.signature(getattr(xorszilard, name)).parameters
    assert tuple(params) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(EXPORTS["errors"]))
def test_exception_adds_no_parameters(name):
    assert "__init__" not in vars(getattr(xorszilard, name))
