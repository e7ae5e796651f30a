"""What a cold start loads: scipy.optimize and scipy.fft are imported only
where they run (solve_otsuki), and nothing in the package imports
scipy.integrate, so the package and every command but otsuki load none of
the three."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import eqtorus

SRC = str(Path(eqtorus.__file__).resolve().parents[1])
LAZY = ("scipy.integrate", "scipy.optimize", "scipy.fft")
COMMANDS = {
    "solve-tau": ["solve-tau", "--a", "0.3", "--b", "4.4",
                  "--p", "1", "--q", "1", "--r", "0"],
    "spectral": ["spectral", "--a", "0.3", "--b", "1.4",
                 "--p", "1", "--q", "1", "--r", "0"],
    "value --with-n2": ["value", "--a", "0", "--b", "2",
                        "--p", "1", "--q", "1", "--r", "0", "--with-n2"],
    "scan": ["scan", "--p", "1", "--q", "1", "--r", "0", "--a-steps", "2",
             "--b-steps", "2", "--out", "SCAN"],
    "stability --report index": ["stability", "--report", "index",
                                 "--a", "0.3", "--b", "1.4"],
}
# a fresh interpreter: imports eqtorus.cli, then runs each command through
# main; prints, after the import and after each command, which of LAZY are
# loaded, whether eqtorus.stability is, and the command's exit code
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
lazy, commands = json.loads(sys.argv[2])
def state(code=0):
    return {"loaded": [m for m in lazy if m in sys.modules], "code": code,
            "stability": "eqtorus.stability" in sys.modules}
import eqtorus.cli
states = {"import eqtorus.cli": state()}
for name, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        states[name] = state(eqtorus.cli.main(argv))
print(json.dumps(states))
"""


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    scan = str(tmp_path_factory.mktemp("imports") / "scan.csv")
    commands = {name: [scan if w == "SCAN" else w for w in argv]
                for name, argv in COMMANDS.items()}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, SRC, json.dumps([LAZY, commands])],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("step", ["import eqtorus.cli", *COMMANDS])
def test_lazy_modules_stay_unloaded(states, step):
    assert states[step]["code"] == 0
    assert states[step]["loaded"] == []


def test_stability_stays_eager(states):
    assert states["import eqtorus.cli"]["stability"]


def test_star_import_binds_all():
    namespace = {}
    exec("from eqtorus import *", namespace)
    missing = [name for name in eqtorus.__all__ if name not in namespace]
    assert missing == []
