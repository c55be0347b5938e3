"""Package structure: modules share only public names, every name a
module exports in __all__ exists, and the command line picks no route."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pathvar"
SOURCES = sorted(SRC.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                offenders += [
                    f"{path.relative_to(SRC)}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_every_exported_name_resolves():
    checked = []
    for path in SOURCES:
        if path.name == "__main__.py":  # importing it runs the command line
            continue
        module = importlib.import_module(_module_name(path))
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [n for n in names if not hasattr(module, n)]
        assert missing == [], module.__name__
        assert len(names) == len(set(names)), module.__name__
        checked.append(module.__name__)
    assert {"pathvar", "pathvar.core", "pathvar.numerics"} <= set(checked)


def test_cli_imports_no_route_or_padding():
    # the library decides which oracle answers and how it pads; the CLI
    # only parses, certifies and prints
    forbidden = {
        "PolylineOracle",
        "PolynomialVariationOracle",
        "variation_oracle_for",
        "ceil_to",
        "floor_log2",
        "Certificate",
    }
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {
        alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & forbidden == set()
