"""Importing the package stays light: its value records are NamedTuples, so
no module of the package pulls in `dataclasses` (and with it `inspect`,
`ast`, `dis` and `tokenize`).  The check runs in a fresh interpreter
without `site`, so nothing the test runner loaded counts."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, tangleforge, tangleforge.jsonio, tangleforge.dot; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
