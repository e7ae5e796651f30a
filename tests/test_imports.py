"""What a cold start loads: scipy.optimize and scipy.fft are imported only
where they run (solve_otsuki), and nothing in the package imports
scipy.integrate, so the package and every command but otsuki load none of
the three.  scipy.linalg and scipy.sparse are imported inside the index
count, so of the commands below only stability --report index loads them,
although eqtorus.stability itself is imported with the package.  Each
command's check reads the modules that command added to sys.modules, so a
command that loads one fails its own check and no other's."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import eqtorus

SRC = str(Path(eqtorus.__file__).resolve().parents[1])
LAZY = ("scipy.integrate", "scipy.optimize", "scipy.fft")
# loaded by the index count and by nothing else below
INDEX_ONLY = ("scipy.linalg", "scipy.sparse")
INDEX = "stability --report index"
COMMANDS = {
    "solve-tau": ["solve-tau", "--a", "0.3", "--b", "4.4",
                  "--p", "1", "--q", "1", "--r", "0"],
    "spectral": ["spectral", "--a", "0.3", "--b", "1.4",
                 "--p", "1", "--q", "1", "--r", "0"],
    "value --with-n2": ["value", "--a", "0", "--b", "2",
                        "--p", "1", "--q", "1", "--r", "0", "--with-n2"],
    "scan": ["scan", "--p", "1", "--q", "1", "--r", "0", "--a-steps", "2",
             "--b-steps", "2", "--out", "SCAN"],
    INDEX: ["stability", "--report", "index", "--a", "0.3", "--b", "1.4"],
}
# a fresh interpreter: imports eqtorus.cli, then runs each command through
# main; prints, for the import and for each command, which of the watched
# modules that step added to sys.modules, whether eqtorus.stability is
# loaded after it, and the command's exit code
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
watched, commands = json.loads(sys.argv[2])
def run(step):
    before = set(sys.modules)
    code = step()
    return {"loaded": [m for m in watched
                       if m in sys.modules and m not in before],
            "code": code, "stability": "eqtorus.stability" in sys.modules}
def import_cli():
    import eqtorus.cli
    return 0
def command(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return sys.modules["eqtorus.cli"].main(argv)
states = {"import eqtorus.cli": run(import_cli)}
for name, argv in commands.items():
    states[name] = run(lambda: command(argv))
print(json.dumps(states))
"""


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    scan = str(tmp_path_factory.mktemp("imports") / "scan.csv")
    commands = {name: [scan if w == "SCAN" else w for w in argv]
                for name, argv in COMMANDS.items()}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, SRC,
         json.dumps([LAZY + INDEX_ONLY, commands])],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("step", ["import eqtorus.cli", *COMMANDS])
def test_lazy_modules_stay_unloaded(states, step):
    assert states[step]["code"] == 0
    assert [m for m in states[step]["loaded"] if m in LAZY] == []


@pytest.mark.parametrize("step", [
    "import eqtorus.cli", *(name for name in COMMANDS if name != INDEX)])
def test_linear_algebra_stays_unloaded(states, step):
    assert [m for m in states[step]["loaded"] if m in INDEX_ONLY] == []


def test_index_count_loads_linear_algebra(states):
    assert states[INDEX]["code"] == 0
    assert states[INDEX]["loaded"] == list(INDEX_ONLY)


def test_stability_stays_eager(states):
    assert states["import eqtorus.cli"]["stability"]


def test_star_import_binds_all():
    namespace = {}
    exec("from eqtorus import *", namespace)
    missing = [name for name in eqtorus.__all__ if name not in namespace]
    assert missing == []
