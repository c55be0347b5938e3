"""Package structure: modules share only public names, every name a
module exports in __all__ exists, the command line picks no route, no
module under src/ or tests/ imports a name it never uses, every function
the bench tracer wraps exists, Fraction is the one exact number type
(Dyadic is a Fraction subclass confined to numerics/), only
core/paths.py tells a sawtooth or a mixture from any other polyline, the
Sturm chain is the one polynomial remainder loop, only two functions in
rectify pick a route, no module imports dataclasses, so that starting
the command line loads neither it nor inspect, the command line reads each
argument its subcommands share once, prints the bracket notice in one
place and refuses only through the library, the path encoder reads each
record's fields rather than its class, a Direction is two slots with no
memo of its own, numerics/dyadic.py alone reads a number: only it
tests for a boolean and defines parse_exact and its caps, and a certificate
is one record whose fields are what it prints."""

import ast
import functools
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from pathvar import oracles, rectify, variation
from pathvar.core import paths
from pathvar.core.certificates import Certificate, CertKind
from pathvar.numerics.interval import Interval

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


def test_no_module_imports_dataclasses():
    # records are plain classes: dataclasses imports inspect, and each
    # decorated class runs generated code, at the start of every process
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    code = "import pathvar.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


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
        "SampledGraph",
    }
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {
        alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & forbidden == set()
    # nor does it read the kind of a path: isinstance sees answers only
    path_classes = {
        name for name, obj in vars(paths).items() if inspect.isclass(obj) and hasattr(obj, "kind")
    }
    tested = {
        word
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        for word in re.findall(r"\w+", ast.unparse(node.args[1]))
    }
    assert "Polyline" in path_classes and "SampledGraph" in path_classes
    assert tested and tested.isdisjoint(path_classes)


def test_cli_reads_each_shared_argument_once():
    # main reads the path file, the tolerance with its digits and the
    # direction before any handler runs, and one helper prints the bracket
    # notice; no oracle refusal is a class of its own
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    shared = {"_load_path", "_fit_digits", "_parse_direction"}
    handlers = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")]
    assert len(handlers) == 6
    offenders = [
        f"{fn.name} calls {node.func.id}"
        for fn in handlers
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in shared
    ]
    assert offenders == []
    notices = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "_BRACKET_ONLY" and isinstance(node.ctx, ast.Load)
    ]
    assert len(notices) == 1
    assert [p.name for p in SOURCES if "OracleUnavailable" in p.read_text(encoding="utf-8")] == []


def test_cli_refuses_only_through_the_library():
    # what is refused, and how, is the library's to say: the command line
    # defines no error class and no tolerance bound, declares each direction
    # flag once, and reads a path file's refusals as ValueError or TypeError
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == []
    constants = {
        target.id: ast.unparse(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    assert [n for n, v in constants.items() if re.search(r"EPS|TOL|FLOOR|Fraction", n + v)] == []
    flags = [
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        and isinstance(node.args[0], ast.Constant)
    ]
    assert flags.count("--theta") == flags.count("--direction") == 1
    load = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_load_path")
    caught = [ast.unparse(node.type) for node in ast.walk(load) if isinstance(node, ast.ExceptHandler)]
    assert caught == ["OSError", "(ValueError, TypeError)"]


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


def test_one_achieve_variation_in_every_oracle_class():
    # one body, bound in each class's own __dict__, where the tracer patches it
    classes = (
        oracles.PolylineOracle,
        oracles.PolynomialVariationOracle,
        rectify.RefinementGainOracle,
    )
    assert all(vars(cls).get("achieve_variation") is oracles.achieve_variation for cls in classes)


def _accepts(fn, keyword: str) -> bool:
    params = inspect.signature(fn).parameters.values()
    return any(
        p.kind is p.VAR_KEYWORD or (p.name == keyword and p.kind is not p.POSITIONAL_ONLY)
        for p in params
    )


def _bench_references(path: Path):
    """(missing names, rejected keywords, keywords checked) for one bench
    file.  The workers receive the package as pv; a name bound by importing
    from pathvar may be bound to several objects (one per function), and a
    keyword must suit every one.  A local function that forwards **kw into a
    pathvar call has its call sites' keywords checked against that call."""
    import pathvar

    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = {"pv": [pathvar]}
    missing, rejected, checked = set(), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pathvar":
                    module = importlib.import_module(alias.name)
                    bound = module if alias.asname else pathvar
                    names.setdefault(alias.asname or "pathvar", []).append(bound)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pathvar":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    names.setdefault(alias.asname or alias.name, []).append(getattr(module, alias.name))
                else:
                    missing.add(f"{node.module}.{alias.name}")

    def resolve(node) -> list:
        if isinstance(node, ast.Name):
            return names.get(node.id, [])
        if isinstance(node, ast.Attribute):
            found = []
            for owner in resolve(node.value):
                if hasattr(owner, node.attr):
                    found.append(getattr(owner, node.attr))
                else:
                    missing.add(f"{getattr(owner, '__name__', owner)}.{node.attr}")
            return found
        return []

    forwards = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.args.kwarg is not None:
            kwarg = fn.args.kwarg.arg
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and any(
                    k.arg is None and isinstance(k.value, ast.Name) and k.value.id == kwarg
                    for k in call.keywords
                ):
                    forwards.setdefault(fn.name, []).extend(resolve(call.func))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        if not isinstance(node, ast.Call):
            continue
        targets = resolve(node.func)
        if isinstance(node.func, ast.Name):
            targets = targets + forwards.get(node.func.id, [])
        for k in node.keywords:
            if k.arg is None:
                continue
            for target in targets:
                checked.add(k.arg)
                if not _accepts(target, k.arg):
                    rejected.append(f"{path.name}:{node.lineno} {k.arg}= to {target.__name__}")
    return missing, rejected, checked


def test_bench_uses_only_what_pathvar_offers():
    # the benchmark calls the public API from outside the package; a
    # renamed name or a dropped option would break only the benchmark run
    missing, rejected, checked = set(), [], set()
    for path in sorted(BENCH.glob("*.py")):
        m, r, c = _bench_references(path)
        missing |= m
        rejected += r
        checked |= c
    assert sorted(missing) == []
    assert rejected == []
    assert "use_uniform_witness" in checked


def test_one_exact_number_type():
    # Dyadic keeps only its grid check, the repr, copy and pickle hooks that
    # Fraction would rebuild as numerator * 2**denominator, and the
    # as_fraction() the bench calls; everything else is Fraction's own
    tree = ast.parse((SRC / "numerics" / "dyadic.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Dyadic"]
    methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    hooks = {"__repr__", "__reduce__", "__copy__", "__deepcopy__"}
    assert methods <= {"__new__", "as_fraction"} | hooks
    offenders = []
    for path in SOURCES:
        rel = path.relative_to(SRC)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "as_fraction":
                    offenders.append(f"{rel}:{node.lineno} calls as_fraction()")
            if rel.parts[0] == "numerics" or str(rel) == "__init__.py":
                continue
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            if "Dyadic" in names:
                offenders.append(f"{rel}:{node.lineno} mentions Dyadic")
    assert offenders == []


def test_one_place_tells_the_sawtooth_from_a_polyline():
    # the sawtooth and the mixture are polylines with a compact spelling;
    # only the JSON codec in core/paths.py tells them apart, so every route
    # sees a Polyline
    compact = {"SawtoothGraph", "SawtoothMixture"}
    offenders = []
    for path in SOURCES:
        rel = path.relative_to(SRC)
        if rel.as_posix() == "core/paths.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)} & compact
            ):
                offenders.append(f"{rel}:{node.lineno} tells a compact polyline apart")
    assert offenders == []


def test_one_polynomial_representation():
    # a RationalPoly is integers over one denominator and nothing else; its
    # Fraction coefficients are a derived view that only the polynomial
    # module itself and the JSON codec in core/paths.py read
    from pathvar.numerics.ratpoly import RationalPoly

    assert RationalPoly.__slots__ == ("ints", "den")
    offenders = []
    for path in SOURCES:
        rel = path.relative_to(SRC).as_posix()
        if rel == "numerics/ratpoly.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        codec = {"path_to_json_dict", "path_from_json_dict"} if rel == "core/paths.py" else set()
        for top in tree.body:
            if getattr(top, "name", None) in codec:
                continue
            offenders += [
                f"{rel}:{node.lineno} reads .coeffs"
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "coeffs"
            ]
    assert offenders == []


def test_one_remainder_sequence_and_no_hand_rolled_memo():
    # the Sturm chain is the one loop that divides polynomials:
    # square_free_chain, and through it isolation, takes gcd(p, p') from its
    # last element rather than run Euclid beside it
    from pathvar.numerics import trig

    tree = ast.parse((SRC / "numerics" / "ratpoly.py").read_text(encoding="utf-8"))
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    dividing = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for loop in ast.walk(fn)
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "divmod"
    }
    assert dividing == {"sturm_chain"}
    # pi and the sin/cos points are memoized through functools, not a dict
    assert [n for n, v in vars(trig).items() if isinstance(v, dict) and not n.startswith("__")] == []
    # and so are a polynomial path's speed and bend bounds, which every
    # oracle and query on the path then shares
    bounds = [vars(paths.PolynomialPath)[n] for n in ("speed_bound", "bend_bound")]
    assert all(isinstance(b, functools.cached_property) for b in bounds)
    # and a direction's components, in one memo that equal directions share:
    # a Direction holds its ray or its angle and no dict, nor does variation
    assert variation.Direction.__slots__ == ("_ray", "_angle")
    assert [n for n, v in vars(variation).items() if isinstance(v, dict) and not n.startswith("__")] == []
    tree = ast.parse((SRC / "variation.py").read_text(encoding="utf-8"))
    made = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Dict, ast.DictComp))]
    made += [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "dict"]
    assert made == []
    third = [variation.Direction.from_theta_pi(Fraction(1, 3)) for _ in range(2)]
    assert third[0].components(-64) is third[1].components(-64)


def test_path_encoder_reads_fields_not_classes():
    # path_to_json_dict writes each name in a record's _fields, so no path
    # class has an encoding branch of its own
    path_classes = {
        name for name, obj in vars(paths).items() if inspect.isclass(obj) and hasattr(obj, "kind")
    }
    tree = ast.parse((SRC / "core" / "paths.py").read_text(encoding="utf-8"))
    (encoder,) = [n for n in tree.body if getattr(n, "name", None) == "path_to_json_dict"]
    tested = {
        node.id
        for call in ast.walk(encoder)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
        for node in ast.walk(call.args[1])
        if isinstance(node, ast.Name)
    }
    assert tested and tested.isdisjoint(path_classes)


def test_one_reader_refuses_booleans():
    # numerics/dyadic.py's to_fraction is the one place that tells a
    # boolean from a number; every constructor and tolerance reads through
    # it, and it reads a string through parse_exact, which is defined there
    # with its caps and ascii_digits and nowhere else
    reader = {"parse_exact", "ascii_digits", "DECIMAL_EXPONENT_CAP", "EXACT_BITS_CAP"}
    offenders, homes = [], []
    for path in SOURCES:
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{rel}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and "bool" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
        ]
        homes += [
            (name, rel)
            for node in ast.walk(tree)
            for name in (
                [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                else [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
            )
            if name in reader
        ]
    assert [o for o in offenders if not o.startswith("numerics/dyadic.py:")] == []
    assert offenders
    assert sorted(homes) == sorted((name, "numerics/dyadic.py") for name in reader)
    # core/paths.py checks shapes and leaves every spelling to the reader
    tree = ast.parse((SRC / "core" / "paths.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "re" not in imported


def test_two_functions_route_and_none_raises_runtime_error():
    # certified_length and certified_variation pick the oracle and pad its
    # enclosure; every other answer in rectify compares their certificates,
    # and none ends in a RuntimeError
    tree = ast.parse((SRC / "rectify.py").read_text(encoding="utf-8"))
    routing = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_route"
    }
    assert routing == {"certified_length", "certified_variation"}
    raised = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert [r for r in raised if "RuntimeError" in r] == []


def test_a_certificate_is_one_record_of_what_it_prints():
    # the keys a certificate prints besides its value, kind and tolerance are
    # exactly its other slots, and no second class holds them: the removed
    # one is named nowhere (spelled in two parts, so this file names it not)
    value = Interval(Fraction(0), Fraction(1))
    cert = Certificate(value, CertKind.NON_SHRINKING_BRACKET, Fraction(1), "chords", 2, 3, {"eps": "1"})
    shared = {"value", "kind", "tolerance"}
    assert set(cert.to_json_dict()) - shared == set(Certificate.__slots__) - shared
    assert all(cert.to_json_dict()[k] == getattr(cert, k) for k in set(Certificate.__slots__) - shared)
    removed = "Prov" + "enance"
    tests = Path(__file__).resolve().parent
    named = [p for p in [*SOURCES, *tests.rglob("*.py")] if removed in p.read_text(encoding="utf-8")]
    assert named == []
