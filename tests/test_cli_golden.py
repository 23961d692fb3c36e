"""The command line's stdout and exit code, byte for byte, against stored
outputs: the README's eight commands, `tree --verify` on C10 and U_{6,7},
`separations` with an explicit S file, and `tree --dot` on C10, whose tree
has a flower vertex with a cyclic edge order.  Inputs and outputs live in
tests/golden/: `<name>.out` holds the stdout of command `<name>` and
`exit_codes.json` the exit codes.  After a deliberate change of output,
rewrite them from the checkout's sources with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tangleforge.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

# sys.json is C6, r8.json the cube polymatroid f_1, u26/u67.json the
# uniform matroids U_{2,6} and U_{6,7}, c10.json the 10-edge cycle, and
# c6_default_S.json the members of C6's default S at order 2
COMMANDS = {
    "check": ["check", "--input", "sys.json"],
    "tangles": ["tangles", "--input", "r8.json", "--k", "4"],
    "fcl": ["fcl", "--input", "sys.json", "--k", "2", "--x", "0,1", "--verify"],
    "separations": ["separations", "--input", "r8.json", "--k", "4"],
    "flower-petals": ["flower", "--input", "r8.json", "--k", "4",
                      "--petals", "[[0,1],[2,3],[4,5],[6,7]]"],
    "flower-seed": ["flower", "--input", "r8.json", "--k", "4", "--seed-side", "0,1,2,3"],
    "tree-dot": ["tree", "--input", "u26.json", "--k", "2", "--dot", "--verify"],
    "oracle": ["oracle", "--input", "r8.json", "--k", "4", "--max-petals", "4"],
    "tree-c10": ["tree", "--input", "c10.json", "--k", "2", "--verify"],
    "tree-u67": ["tree", "--input", "u67.json", "--k", "2", "--verify"],
    "separations-S": ["separations", "--input", "sys.json", "--k", "2",
                      "--S", "c6_default_S.json", "--verify"],
    "tree-dot-c10": ["tree", "--input", "c10.json", "--k", "2", "--dot", "--verify"],
}


def run_command(argv):
    """Exit code and stdout of one command, input files read from GOLDEN."""
    args = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(args)
    return code, out.getvalue()


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_the_stored_one(name):
    code, out = run_command(COMMANDS[name])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    codes = {}
    for name, argv in COMMANDS.items():
        codes[name], out = run_command(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
