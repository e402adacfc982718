"""Rules that every module of the package keeps."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zfpkit"


def test_no_invariant_rests_on_assert():
    # python -O strips assert statements, so a check that must hold raises instead
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in zfpkit: {', '.join(found)}"


def zfpkit_imports(path):
    """(module, name) of every import from zfpkit in a package module; name is None for ``import``."""
    package = ("zfpkit",) + path.relative_to(PACKAGE).parent.parts
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            found += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
    return [(module, name) for module, name in found if module.split(".")[0] == "zfpkit"]


def test_oracle_takes_nothing_from_the_fast_path():
    # the bit-vector oracle judges the fast path, so it shares only the
    # sequency tables and the line indices with it, and bitvec shares nothing
    allowed = {"zfpkit.bitvec": None, "zfpkit.codec.params": None,
               "zfpkit.codec.pipeline": {"SEQUENCY_TABLES", "_axis_lines", "_inverse_table"}}
    imports = zfpkit_imports(PACKAGE / "codec" / "reference.py")
    assert imports
    found = [f"{module}.{name}" for module, name in imports
             if module not in allowed or allowed[module] is not None and name not in allowed[module]]
    assert not found, f"codec/reference.py imports {', '.join(found)}"
    assert zfpkit_imports(PACKAGE / "bitvec.py") == []


def test_import_rule_resolves_relative_imports():
    imports = zfpkit_imports(PACKAGE / "codec" / "batch.py")
    assert ("zfpkit.codec.pipeline", "_lift_forward_steps") in imports
    assert ("zfpkit.codec.params", "TransformOverflowError") in imports


def test_no_handler_catches_runtime_or_arithmetic_errors():
    # such a clause would also catch TransformOverflowError, an invariant
    # violation that must surface; name the narrower class that is expected
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(isinstance(name, ast.Name) and name.id in ("RuntimeError", "ArithmeticError")
                       for name in names):
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"except clauses naming RuntimeError or ArithmeticError: {', '.join(found)}"
