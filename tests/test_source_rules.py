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
