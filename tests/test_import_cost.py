"""Importing the package stays cheap.

A CLI launch handles one equation, so every module the import loads is
paid on each equation. dataclasses (with inspect, ast and dis behind
it) and typing once made up most of that cost; the package needs none
of them. argparse, with gettext behind it, is loaded only when the CLI
parses arguments, not when a library caller imports hyperode.cli for
its verbs.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("dataclasses", "inspect", "typing")


def _loaded_by_import(modules):
    """Which of modules `import hyperode, hyperode.cli` loads."""
    # -S: a .pth file in site-packages may load typing before any
    # package code runs
    code = ("import sys; sys.path.insert(0, %r); import hyperode, "
            "hyperode.cli; print(' '.join(m for m in %r if m in "
            "sys.modules))" % (str(SRC), modules))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_dataclasses_inspect_or_typing():
    assert _loaded_by_import(HEAVY) == []


def test_cli_import_loads_no_argparse_or_gettext():
    assert _loaded_by_import(("argparse", "gettext")) == []
