"""Every module uses each name it imports; package __init__ re-exports are
exempt.  A plain `ast` pass, so the check needs no linter install."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src/xmrt", "tests", "demos")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_finds_unused_and_keeps_used_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from math import comb, fsum as total\n"
              "np.zeros(comb(3, 1))\n")
    assert _unused_imports(source) == ["os", "total"]


def test_no_module_imports_a_name_it_never_uses():
    offenders = {}
    for folder in CHECKED_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            unused = _unused_imports(path.read_text(encoding="utf-8"))
            if unused:
                offenders[str(path.relative_to(ROOT))] = unused
    assert offenders == {}
