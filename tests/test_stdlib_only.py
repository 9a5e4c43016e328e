"""The package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "pibounds").glob("*.py"))


def imported_modules(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "contfrac.py",
                                         "exactnum.py", "polygon.py", "series.py"}


def test_every_import_is_relative_or_stdlib():
    # sys.stdlib_module_names includes __future__
    outside = [(p.name, name) for p in SOURCES for name in imported_modules(p)
               if name not in sys.stdlib_module_names]
    assert outside == []


# In a fresh interpreter: the modules that importing the CLI and building its
# parser adds, one name a line.
COLD_START = """
import sys
before = set(sys.modules)
import pibounds.cli
pibounds.cli.build_parser()
print(*sorted(set(sys.modules) - before), sep="\\n")
"""


def test_cold_start_loads_no_dataclasses_inspect_or_json():
    """Every run pays its imports: dataclasses pulls in inspect, ast, dis and
    tokenize, and json is needed only by ``--format json``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    added = set(proc.stdout.split())
    assert "pibounds.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "json"}), sorted(added)
