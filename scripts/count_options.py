"""Count the settable values of the library.

A settable value is a function parameter with a default, or a field with a
default in a dataclass, anywhere under src/feddiar (nested functions,
methods and lambdas included). Prints one `module:line name` per value, then
the total on the last line:

    python3 scripts/count_options.py [SRC_DIR]

SRC_DIR defaults to the src/ directory next to this script.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every defaulted parameter and dataclass field."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            owner = getattr(node, "name", "lambda")
            for arg in positional[len(positional) - len(args.defaults):]:
                found.append((arg.lineno, f"{owner}({arg.arg})"))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((arg.lineno, f"{owner}({arg.arg})"))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)):
                    found.append((stmt.lineno, f"{node.name}.{stmt.target.id}"))
    return sorted(found)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted((src / "feddiar").glob("*.py")):
        for line, name in settable_values(ast.parse(path.read_text(), str(path))):
            print(f"{path.stem}:{line} {name}")
            total += 1
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
