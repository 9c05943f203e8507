"""manifest.atomic_write, the one way the package writes a file."""

import ast
import errno
from pathlib import Path

import pytest

from agecontrast.manifest import atomic_write

from conftest import SRC

# atomic_write opens each file and Run.move moves it into place.
WRITERS = ("atomic_write", "move")


@pytest.mark.parametrize("binary, content", [(False, "é\n"), (True, b"\x00\xff")])
def test_a_clean_block_replaces_the_file(tmp_path, binary, content):
    target = tmp_path / "out"
    target.write_text("earlier")
    with atomic_write(target, binary) as fh:
        fh.write(content)
        assert target.read_text() == "earlier"
    assert (target.read_bytes() if binary else target.read_text(encoding="utf-8")) == content
    assert sorted(tmp_path.iterdir()) == [target]


def test_a_failed_block_keeps_the_earlier_file(tmp_path):
    target = tmp_path / "out"
    target.write_text("earlier")
    with pytest.raises(OSError, match="full"):
        with atomic_write(target) as fh:
            fh.write("partial")
            raise OSError(errno.ENOSPC, "full")
    assert target.read_text() == "earlier"
    assert sorted(tmp_path.iterdir()) == [target]


def test_a_directory_in_place_of_the_target_raises_and_leaves_no_tmp(tmp_path):
    (tmp_path / "out").mkdir()
    with pytest.raises(IsADirectoryError):
        with atomic_write(tmp_path / "out") as fh:
            fh.write("new")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "out"]


def _open_mode(call: ast.Call):
    """The mode argument of open(path, mode) or path.open(mode), or None."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:position + 1]
    return modes[0] if modes else None


def _writes(tree: ast.AST) -> tuple[list[int], list[int]]:
    """Lines of the os.replace calls inside the WRITERS, and lines of
    every other os.replace, .write_text, .write_bytes, and open or
    .open whose mode is not a constant read mode."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in WRITERS for node in ast.walk(fn)}
    replaces, others = [], []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        is_replace = (name == "replace" and isinstance(func, ast.Attribute)
                      and isinstance(func.value, ast.Name) and func.value.id == "os")
        if is_replace and id(call) in inside:
            replaces.append(call.lineno)
        elif id(call) in inside:
            continue
        elif is_replace or (name in ("write_text", "write_bytes")
                            and isinstance(func, ast.Attribute)):
            others.append(call.lineno)
        elif name == "open":
            mode = _open_mode(call)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                others.append(call.lineno)
    return replaces, others


def test_the_package_writes_files_only_through_atomic_write():
    replaces, others = [], []
    for path in sorted((Path(SRC) / "agecontrast").glob("*.py")):
        inside, outside = _writes(ast.parse(path.read_text(encoding="utf-8")))
        replaces += [f"{path.name}:{line}" for line in inside]
        others += [f"{path.name}:{line}" for line in outside]
    assert len(replaces) == 1 and replaces[0].startswith("manifest.py:")
    assert others == []


@pytest.mark.parametrize("source", [
    "Path(p).write_text(s)", "p.write_bytes(b)", "open(p, 'w')", "open(p, mode='a')",
    "p.open('wb')", "open(p, m)", "os.replace(a, b)"])
def test_the_check_finds_each_write(source):
    assert _writes(ast.parse(source)) == ([], [1])


def test_the_check_passes_reads():
    assert _writes(ast.parse("open(p)\nopen(p, 'rb')\np.open('rb')\np.open()")) == ([], [])


def _pool_uses(tree: ast.AST) -> list[int]:
    """Lines that import multiprocessing or concurrent.futures, or name a
    /proc path."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(n.split(".")[0] in ("multiprocessing", "concurrent") or n.startswith("/proc/")
               for n in names):
            found.append(node.lineno)
    return found


def test_only_data_starts_worker_processes():
    """data.dataset_pool alone picks how pool workers start (its probe
    reads /proc) and reports how they ran."""
    found = [f"{path.name}:{line}"
             for path in sorted((Path(SRC) / "agecontrast").glob("*.py"))
             for line in _pool_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found and all(f.startswith("data.py:") for f in found), found


@pytest.mark.parametrize("source", [
    "import multiprocessing", "import os, multiprocessing.pool",
    "from multiprocessing import get_context", "import concurrent.futures",
    "from concurrent.futures.process import BrokenProcessPool", "from concurrent import futures",
    "os.listdir('/proc/self/task')", "open(f'/proc/{pid}/status')"])
def test_the_pool_check_finds_each_use(source):
    assert _pool_uses(ast.parse(source)) == [1]


def test_the_pool_check_passes_other_imports_and_strings():
    source = "import os\nfrom . import data\nfrom .data import dataset_pool\nx = 'a /proc path'"
    assert _pool_uses(ast.parse(source)) == []
