"""The CLI against its golden outputs (tests/golden_cli.json, written by
tests/make_golden.py): the 18 seed-0 scan columns and the 20 criterion-4
spectral instances.

Exit codes, integers and strings must match exactly.  Floats that come from
the tau triple must match to 1e-12 relative where the row's m1 = 1 - m is at
least 1e-3, and to 1e-8 below it, where a float m leaves both solves about
1e-9 from the exact triple (ROADMAP item 2).  H_re is a difference of terms
of size pi^2 (tau1 + tau2 + tau3) that the reference computed by
cancellation, so its scale is that sum.  Eigenvalues and trace certificates
must match to 1e-10 absolute.
"""

import json
import math
import pathlib

import pytest

from eqtorus.cli import main

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_cli.json").read_text())

SPECTRUM_ABS = 1e-10


def tau_rel(m1: float) -> float:
    return 1e-12 if m1 >= 1e-3 else 1e-8


def run(argv, capsys):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


@pytest.mark.parametrize("case", GOLDEN["scan"],
                         ids=lambda c: "pqr=({},{},{}) a={}".format(*c["argv"][2:9:2]))
def test_scan_column(case, capsys):
    rc, out = run(case["argv"], capsys)
    assert rc == case["rc"]
    want = [line.split(",") for line in case["stdout"].splitlines()]
    got = [line.split(",") for line in out.splitlines()]
    assert got[0] == want[0] and len(got) == len(want)
    col = {name: i for i, name in enumerate(want[0])}
    for g, w in zip(got[1:], want[1:]):
        assert len(g) == len(w)
        rel = tau_rel(1.0 - float(w[col["m"]])) if w[col["m"]] else 0.0
        for name, gv, wv in zip(want[0], g, w):
            if name in ("a", "b") or not _is_float(wv):
                assert gv == wv, (name, w)
                continue
            scale = abs(float(wv))
            if name == "H_re":
                scale = math.pi**2 * sum(float(w[col[t]])
                                         for t in ("tau1", "tau2", "tau3"))
            assert abs(float(gv) - float(wv)) <= rel * scale, (name, gv, w)


def _compare(got, want, rel: float, key: str = "") -> None:
    """got against want, recursively; floats by the rules of the module
    docstring, with key the name of the field that holds them."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for k in want:
            _compare(got[k], want[k], rel, k if key != "trace_certificates"
                     else key)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            _compare(g, w, rel, key)
    elif isinstance(want, float):
        if key in ("eigenvalues", "at_threshold", "trace_certificates"):
            assert abs(got - want) <= SPECTRUM_ABS, (key, got, want)
        elif key in ("a", "b"):
            assert got == want
        else:
            assert abs(got - want) <= rel * abs(want), (key, got, want)
    else:
        assert type(got) is type(want) and got == want, (key, got, want)


@pytest.mark.parametrize("case", GOLDEN["spectral"],
                         ids=lambda c: " ".join(c["argv"][2::2]))
def test_spectral_instance(case, capsys):
    rc, out = run(case["argv"], capsys)
    assert rc == case["rc"]
    _compare(json.loads(out), json.loads(case["stdout"]), tau_rel(case["m1"]))
