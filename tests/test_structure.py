"""Package structure: modules share only public names, every name a
module exports in __all__ exists, the command line picks no route, no
module under src/ or tests/ imports a name it never uses, and every
function the bench tracer wraps exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pathvar"
BENCH = Path(__file__).resolve().parents[1] / "bench"
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
    assert "pathvar" in checked


def test_cli_imports_no_route_or_padding():
    # the library decides which oracle answers and how it pads; the CLI
    # only parses, certifies and prints
    forbidden = {
        "PolylineOracle",
        "PolynomialVariationOracle",
        "variation_oracle_for",
        "sampled_bracket",
        "sampled_length_bracket",
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


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    where = path.relative_to(SRC.parents[1])
    return [f"{where}:{line} imports {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    tests = Path(__file__).resolve().parent
    offenders = []
    for path in SOURCES + sorted(tests.glob("*.py")):
        offenders += _unused_imports(path)
    assert offenders == []


def test_bench_trace_targets_resolve():
    # bench/run.py --trace 1 patches each target in place; a deleted or
    # renamed one would break the traced run rather than any test
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, module_name, attr in tracing.SPANS + tracing.COUNTED:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
