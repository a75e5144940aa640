"""Importing the package stays cheap.

A CLI launch handles one equation, so every module the import loads is
paid on each equation. dataclasses (with inspect, ast and dis behind
it) and typing once made up most of that cost; the package needs none
of them.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("dataclasses", "inspect", "typing")


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: a .pth file in site-packages may load typing before any
    # package code runs
    code = ("import sys; sys.path.insert(0, %r); import hyperode, "
            "hyperode.cli; print(' '.join(m for m in %r if m in "
            "sys.modules))" % (str(SRC), HEAVY))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
