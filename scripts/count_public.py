"""Count the public names of the library that nothing outside the tests reads.

A public name is a top-level function, class or UPPER-case constant of a
module under src/feddiar (`__init__.py` skipped), or a method, property or
dataclass field of such a class, whose name does not start with `_`. Each
name is listed as `module:line name` followed by the files that read it, or
`-` when none does; the last line is the number of names that none reads:

    python3 scripts/count_public.py [ROOT]

ROOT defaults to the repository next to this script.

A read is a `Name` load, an `Attribute` load, the target of an augmented
assignment or a name imported with `from ... import`, in a `.py` file under
src/, perfbench/ or scripts/; a whole-word match in scripts/*.sh also counts,
for the Python those scripts run. The package's `__init__.py` is no reader:
a re-export is not a use. Names are matched by their last part alone, which
leans towards keeping a name: any `x.mean` counts as a read of every field
called `mean`, whatever `x` is, and a string that names a function (as
perfbench's list of traced functions does) is no read.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

from count_options import is_dataclass

READER_DIRS = ("src", "perfbench", "scripts")


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, qualified name, leaf name) of every public name of a module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            found.append((node.lineno, node.name, node.name))
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            found.append((node.lineno, node.name, node.name))
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
                    found.append((stmt.lineno, f"{node.name}.{member}", member))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper() and _public(target.id):
                    found.append((node.lineno, target.id, target.id))
    return found


def read_names(tree: ast.AST) -> set[str]:
    """Every leaf name that a Python file reads."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.AugAssign):
            target = node.target
            reads.add(target.attr if isinstance(target, ast.Attribute)
                      else getattr(target, "id", ""))
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def readers(root: Path) -> dict[str, set[str]]:
    """Leaf name -> the files outside tests/ that read it (paths from ROOT)."""
    by_name: dict[str, set[str]] = {}
    init = root / "src" / "feddiar" / "__init__.py"
    for top in READER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if path != init:
                for name in read_names(ast.parse(path.read_text(), str(path))):
                    by_name.setdefault(name, set()).add(str(path.relative_to(root)))
    for path in sorted((root / "scripts").glob("*.sh")):
        for name in set(re.findall(r"\w+", path.read_text())):
            by_name.setdefault(name, set()).add(str(path.relative_to(root)))
    return by_name


def scan(root: Path) -> list[tuple[str, int, str, list[str]]]:
    """(module, line, name, reading files) of every public name."""
    by_name = readers(root)
    rows = []
    for path in sorted((root / "src" / "feddiar").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name, leaf in public_names(ast.parse(path.read_text(), str(path))):
            rows.append((path.stem, line, name, sorted(by_name.get(leaf, ()))))
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
    sys.exit(main(sys.argv[1:]))
