"""The benchmark's span wrappers find every function they trace.

``perfbench/tracing.py`` patches functions by name; a renamed or deleted
target makes its per-layer metrics read 0 without any error. This test
loads that module (without editing it) and checks that ``install`` finds
every target and that its undo restores every patched name.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name bound in an agecontrast module or class namespace."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "agecontrast" or name.startswith("agecontrast.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, fn in vars(value).items():
                    out[(name, f"{attr}.{member}")] = fn
    return out


def test_install_finds_every_target_and_undo_restores_them():
    tracing = _load_tracing()
    import agecontrast.cli  # noqa: F401  (loads every module install patches)

    before = _bindings()
    missing, undo = tracing.install(tracing.Tracer())
    try:
        assert missing == []
        during = _bindings()
        patched = {key for key, value in before.items() if during[key] is not value}
        for module_name, attr, _ in tracing.TARGETS:
            assert (module_name, attr) in patched, f"{module_name}.{attr} was not wrapped"
    finally:
        undo()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
