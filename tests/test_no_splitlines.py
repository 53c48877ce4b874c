"""No module of the package calls ``splitlines``.

``str.splitlines`` also ends a line at ``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``,
``\\x85``, ``\\u2028`` and ``\\u2029``; iterating an opened file ends one only
at a newline. Every input reader numbers lines the second way, as the data
CSV's does, so its errors name physical lines.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_module_calls_splitlines():
    files = sorted(ROOT.glob("src/scalemix/*.py"))
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "splitlines"
    ]
    assert files and calls == []
