"""Every public name of the library has a reader outside the tests, or a
reason below for staying; `scripts/count_public.py` does the scan. The
library's option count is pinned; `scripts/count_options.py` counts. The
library's exception classes are pinned, and every raise names one of them."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the public names that nothing outside the tests reads, each with its reason
KEPT = {
    "clustering.merge_cost":
        "perfbench traces it by name, and it is the clustering tests' row oracle",
    "divergence.GaussianStats.covariance":
        "the fit's result; the oracle tests check its ridge bit for bit, which the factor hides",
    "identifier.online_update":
        "criterion 12's target, to be wired into diarize for online adaptation",
    "identifier.UpdateDecision.similarity":
        "a field of online_update's result, which ROADMAP item 8's adapt.csv will write",
    "identifier.UpdateDecision.updated":
        "a field of online_update's result; criterion 12 reads it and adapt.csv will write it",
}

# the settable values `scripts/count_options.py` counts; an option added or
# removed moves this pin in the same change
OPTION_COUNT = 75

# the base class, then one class per kind of fault, which every raise names
ERROR_CLASSES = ["FeddiarError", "InvalidConfig", "InvalidSpec", "InvalidInput",
                 "TrainingDiverged", "StageError"]


@pytest.fixture
def count_public(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("count_public")


def test_only_the_kept_names_lack_a_reader(count_public) -> None:
    assert set(count_public.unread_names(ROOT)) == set(KEPT)


def test_option_count_is_pinned() -> None:
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_options.py")],
                         capture_output=True, text=True, check=True).stdout
    assert int(out.splitlines()[-1]) == OPTION_COUNT


def test_errors_define_the_base_class_and_one_class_per_kind_of_fault() -> None:
    body = ast.parse((ROOT / "src" / "feddiar" / "errors.py").read_text()).body
    assert [node.name for node in body if isinstance(node, ast.ClassDef)] == ERROR_CLASSES


def stray_raises(src: Path) -> list[str]:
    """`file:line name` of each raise under src that names no subclass of
    FeddiarError: a built-in exception, the bare base class or anything else.
    A bare re-raise names nothing and passes."""
    stray = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in ERROR_CLASSES[1:]:
                    stray.append(f"{path.name}:{node.lineno} {ast.unparse(exc)}")
    return stray


def test_every_raise_names_a_kind_of_fault() -> None:
    assert stray_raises(ROOT / "src" / "feddiar") == []


def test_raise_scan_flags_built_ins_and_the_base_class(tmp_path) -> None:
    (tmp_path / "mod.py").write_text(
        "from .errors import FeddiarError, InvalidInput\n"
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise InvalidInput('negative')\n"
        "    if x == 0:\n"
        "        raise ValueError('zero')\n"
        "    if x == 1:\n"
        "        raise FeddiarError\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError:\n"
        "        raise\n")
    assert stray_raises(tmp_path) == ["mod.py:6 ValueError", "mod.py:8 FeddiarError"]


def test_package_root_holds_only_its_docstring_and_version() -> None:
    body = ast.parse((ROOT / "src" / "feddiar" / "__init__.py").read_text()).body
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert [ast.unparse(node) for node in body[1:]] == ["__version__ = '0.1.0'"]


def test_scan_counts_reads_outside_the_tests(count_public, tmp_path) -> None:
    files = {
        "src/feddiar/__init__.py": "from .mod import unused\n",
        "src/feddiar/mod.py": (
            "from dataclasses import dataclass\n"
            "LIMIT = 3\n"
            "def used(): return LIMIT\n"
            "def unused(): pass\n"
            "def _private(): pass\n"
            "@dataclass\n"
            "class Box:\n"
            "    written: int\n"
            "    read: int\n"
            "    counted: int\n"
            "    local: int\n"
            "    field: int\n"
            "    def method(self): return self.read\n"
            "def make(): return Box(written=1, read=2, counted=0, local=0, field=0)\n"),
        "src/feddiar/other.py": (
            "from .mod import used\n"
            "def bump(box): box.counted += 1\n"
            "def shadow(local): return local\n"
            "def peek(box): return box.field\n"),
        "scripts/run.sh": "python3 -c 'from feddiar.mod import make; make()'\n",
        "tests/test_mod.py": "from feddiar.mod import unused\nunused()\nBox(1, 2, 3).method()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    (tmp_path / "perfbench").mkdir()
    assert count_public.unread_names(tmp_path) == [
        "mod.unused", "mod.Box.written", "mod.Box.local", "mod.Box.method",
        "other.bump", "other.shadow", "other.peek"]
