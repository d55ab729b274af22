"""Count the public names of the library that nothing outside the tests reads.

A public name is a top-level function, class or UPPER-case constant of a
module under src/feddiar (`__init__.py` skipped), or a method, property or
dataclass field of such a class, whose name does not start with `_`. Each
name is listed as `module:line name` followed by the files that read it, or
`-` when none does; the last line is the number of names that none reads:

    python3 scripts/count_public.py [ROOT]

ROOT defaults to the repository next to this script.

Readers are the `.py` files under src/, perfbench/ and scripts/, and the
scripts/*.sh files for the Python they run; the package's `__init__.py` is
no reader, for a re-export is not a use. A member (method, property or
dataclass field) is read only through an attribute: an `Attribute` load or
an augmented-assignment target `x.member` in Python, or the text `.member`
in a `.sh` file; a local variable of the same name is no read. A
module-level name is read that way too (`pipeline.parse_rttm`), and also by
a `Name` load, an augmented-assignment target or a `from ... import` in
Python, or as a whole word in a `.sh` file. The scan cannot
tell apart attributes of other types that share a member's name, which
leans towards keeping it: any `x.size` counts as a read of every field
called `size`, whatever `x` is. A string that names a function (as
perfbench's list of traced functions does) is no read.
"""

from __future__ import annotations

import ast
import re
import signal
import sys
from pathlib import Path

from count_options import is_dataclass

READER_DIRS = ("src", "perfbench", "scripts")


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names(tree: ast.Module) -> list[tuple[int, str, str, bool]]:
    """(line, qualified name, leaf name, is a member) of every public name of
    a module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            found.append((node.lineno, node.name, node.name, False))
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            found.append((node.lineno, node.name, node.name, False))
            fields = is_dataclass(node)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    member = stmt.name
                elif (fields and isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    member = stmt.target.id
                else:
                    continue
                if _public(member):
                    found.append((stmt.lineno, f"{node.name}.{member}", member, True))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper() and _public(target.id):
                    found.append((node.lineno, target.id, target.id, False))
    return found


def read_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The module-level names and the members that a Python file reads."""
    names, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            members.add(node.attr)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Attribute):
                members.add(node.target.attr)
            elif isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, members


def readers(root: Path) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Name -> the files outside tests/ that read it (paths from ROOT): once
    for the reads that only a module-level name can have, once for reads
    through an attribute."""
    by_name: dict[str, set[str]] = {}
    by_member: dict[str, set[str]] = {}

    def add(found: dict[str, set[str]], names: set[str], path: Path) -> None:
        for name in names:
            found.setdefault(name, set()).add(str(path.relative_to(root)))

    init = root / "src" / "feddiar" / "__init__.py"
    for top in READER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if path != init:
                names, members = read_names(ast.parse(path.read_text(), str(path)))
                add(by_name, names, path)
                add(by_member, members, path)
    for path in sorted((root / "scripts").glob("*.sh")):
        text = path.read_text()
        add(by_name, set(re.findall(r"\w+", text)), path)
        add(by_member, set(re.findall(r"\.(\w+)", text)), path)
    return by_name, by_member


def scan(root: Path) -> list[tuple[str, int, str, list[str]]]:
    """(module, line, name, reading files) of every public name."""
    by_name, by_member = readers(root)
    rows = []
    for path in sorted((root / "src" / "feddiar").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name, leaf, member in public_names(ast.parse(path.read_text(), str(path))):
            files = set(by_member.get(leaf, ()))
            if not member:
                files |= by_name.get(leaf, set())
            rows.append((path.stem, line, name, sorted(files)))
    return rows


def unread_names(root: Path) -> list[str]:
    """`module.name` of every public name that nothing outside the tests reads."""
    return [f"{module}.{name}" for module, _, name, files in scan(root) if not files]


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    unread = 0
    for module, line, name, files in scan(root):
        print(f"{module}:{line} {name} {' '.join(files) or '-'}")
        unread += not files
    print(unread)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a cut pipe ends the scan quietly
    sys.exit(main(sys.argv[1:]))
