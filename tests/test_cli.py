"""CLI surface: exit codes, JSON schema, determinism, removed options."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqtorus
from eqtorus import tau_solver
from eqtorus.cli import RESIDUAL_TOL, _emit, build_parser, main
from eqtorus.config import Tolerances, tolerances
from eqtorus.functional import lambda_bar_quadrature, moduli_scan
from eqtorus.stability import index_nullity_estimate
from eqtorus.tau_solver import (
    ModuliPoint,
    classify_params,
    lattice_integrals,
    solve_tau,
)


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


# _emit's exact text for numpy scalars and arrays, int keys, a tuple, None
# and a bool: every CLI payload is made of these, and its stdout must not
# drift by a byte
EMIT_PINNED = """\
{
  "schema": "1",
  "f": 0.30000000000000004,
  "i": -7,
  "m": [
    [
      1.5,
      -0.0
    ],
    [
      2.0,
      1e-300
    ]
  ],
  "d": {
    "1": "one",
    "20": [
      1,
      2
    ]
  },
  "t": [
    1,
    2.5,
    "x"
  ],
  "n": null,
  "ok": true
}
"""


def test_emit_pinned_text(capsys):
    _emit({"f": np.float64(0.1) * 3, "i": np.int64(-7),
           "m": np.array([[1.5, -0.0], [2.0, 1e-300]]),
           "d": {1: "one", 20: [1, 2]}, "t": (1, 2.5, "x"),
           "n": None, "ok": True})
    assert capsys.readouterr().out == EMIT_PINNED


class TestSolveTau:
    def test_nonlimit_json(self, run):
        code, out, _ = run("solve-tau", "--a", "1/4", "--b", "2.1",
                           "--p", "2", "--q", "3", "--r", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "1"
        assert doc["regime"] == "nonlimit"
        assert max(doc["residuals"].values()) <= 1e-9

    def test_second_limit_rational_a(self, run):
        code, out, _ = run("solve-tau", "--a", "1/2", "--b", "2",
                           "--p", "2", "--q", "3", "--r", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["regime"] == "second_limit"
        assert doc["tau2"] == 1.0

    def test_first_limit_null_n0(self, run):
        code, out, _ = run("solve-tau", "--a", "0.25", "--b", "1.25",
                           "--p", "1", "--q", "2", "--r", "0")
        doc = json.loads(out)
        assert doc["regime"] == "first_limit"
        assert doc["tau1"] == 0.0
        assert doc["n0"] is None

    def test_infeasible_exit_2(self, run):
        code, out, err = run("solve-tau", "--a", "0", "--b", "0.5",
                             "--p", "1", "--q", "1", "--r", "0")
        assert code == 2
        assert "b^2" in err
        assert out == ""

    def test_root_past_the_psi_table_exit_1(self, run):
        # a feasible point past the resolution limit is an error of the
        # solver, not infeasible parameters; the message names where the
        # table of Psi ends, m1 = 2^-39
        code, out, err = run("solve-tau", "--a", "0.3", "--b", "5",
                             "--p", "1", "--q", "1", "--r", "0")
        assert code == 1
        assert err.startswith("error: ")
        assert "beyond m = 1 - 1.8e-12;" in err
        assert "infeasible" not in err
        assert out == ""

    def test_endpoint_layer_writes_no_stderr(self):
        # 1 - tau2 = 1e-11 here; an adaptive rule printed an r residual of
        # 1.88 and a raw IntegrationWarning, so run a fresh interpreter
        env = dict(os.environ,
                   PYTHONPATH=str(Path(eqtorus.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "eqtorus.cli", "solve-tau", "--a", "0.3",
             "--b", "4.4", "--p", "1", "--q", "1", "--r", "0"],
            capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert max(json.loads(proc.stdout)["residuals"].values()) <= 1e-13

    @pytest.mark.parametrize("index,name", enumerate(
        ["b_integral", "p_integral", "r_integral"]))
    def test_residual_gate(self, run, monkeypatch, index, name):
        # a residual above RESIDUAL_TOL = 1e-9 exits 1 naming its integral;
        # one just below it passes
        real = tau_solver.lattice_integrals
        args = ("solve-tau", "--a", "1/4", "--b", "2.1",
                "--p", "2", "--q", "3", "--r", "0")
        for offset, want in ((0.5 * RESIDUAL_TOL, 0), (2.0 * RESIDUAL_TOL, 1)):
            def shifted(tau, offset=offset):
                values = list(real(tau))
                values[index] += offset
                return tuple(values)

            monkeypatch.setattr(tau_solver, "lattice_integrals", shifted)
            code, out, err = run(*args)
            assert code == want
            if want:
                assert out == ""
                assert f"above 1e-09: {name} 2e-09" in err
            else:
                assert json.loads(out)["residuals"][name] <= RESIDUAL_TOL

    def test_deterministic_output(self, run):
        args = ("solve-tau", "--a", "1/4", "--b", "2.1",
                "--p", "2", "--q", "3", "--r", "0")
        _, out1, _ = run(*args)
        _, out2, _ = run(*args)
        assert out1 == out2


class TestValue:
    def test_verdict(self, run):
        code, out, _ = run("value", "--a", "0", "--b", "2",
                           "--p", "1", "--q", "1", "--r", "0")
        doc = json.loads(out)
        assert code == 0
        assert doc["beats_both"] is True
        assert doc["lambda_bar"] > 8 * math.pi
        assert doc["N2"] is None


class TestSpectral:
    def test_one_one_zero(self, run):
        code, out, _ = run("spectral", "--a", "0.3", "--b", "1.4",
                           "--p", "1", "--q", "1", "--r", "0")
        doc = json.loads(out)
        assert code == 0
        assert doc["N2"] == 1
        assert doc["equality"] is True
        assert max(doc["trace_certificates"].values()) <= 1e-7
        assert doc["warnings"] == []
        assert [m["l"] for m in doc["modes"]] == [0, 1, 2]
        for mode in doc["modes"]:
            assert mode.keys() == {"l", "count", "eigenvalues", "at_threshold"}

    def test_flags_large_certificate(self, run):
        # the l = 1 certificate at (0.3, 4.4) reads 9.1e-4, above the 1e-7
        # bound: the exit code stays 0, and one warning names mode 1 and
        # ends in the value
        code, out, _ = run("spectral", "--a", "0.3", "--b", "4.4",
                           "--p", "1", "--q", "1", "--r", "0")
        doc = json.loads(out)
        assert code == 0
        [warning] = doc["warnings"]
        assert warning.startswith("l = 1: trace residual ")
        assert float(warning.rsplit(" ", 1)[1]) == pytest.approx(
            doc["trace_certificates"]["1"], rel=1e-2)

    def test_grid_points_flag_removed(self, run):
        with pytest.raises(SystemExit):
            run("spectral", "--a", "0.3", "--b", "1.4", "--p", "1", "--q", "1",
                "--r", "0", "--grid-points", "100")


class TestScan:
    def test_csv_to_file(self, run, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run("scan", "--p", "1", "--q", "1", "--r", "0",
                           "--a-steps", "2", "--b-steps", "2",
                           "--b-min", "1.3", "--b-max", "1.8",
                           "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("a,b,")
        assert len(lines) == 5
        assert all(line.endswith("ok") for line in lines[1:])

    def test_resolution_limit_rows(self, run, tmp_path):
        # rows past the end of the Psi table say so, and are not infeasible
        target = tmp_path / "scan.csv"
        code, _, _ = run("scan", "--p", "1", "--q", "1", "--r", "0",
                         "--a-min", "0.3", "--a-max", "0.3", "--a-steps", "1",
                         "--b-min", "4", "--b-max", "5", "--b-steps", "3",
                         "--out", str(target))
        assert code == 0
        status = [line.rsplit(",", 1)[1]
                  for line in target.read_text().splitlines()[1:]]
        assert status[0] == "ok"
        assert status[1] == "ok"
        assert status[2].startswith("resolution_limit: root of Psi(m) lies "
                                    "beyond m = 1 - 1.8e-12;")

    @pytest.mark.parametrize("flag,steps", [("--a-steps", "0"),
                                            ("--b-steps", "0"),
                                            ("--b-steps", "-1")])
    def test_empty_grid_rejected(self, run, flag, steps):
        code, out, err = run("scan", "--p", "1", "--q", "1", "--r", "0",
                             flag, steps)
        assert code == 1
        assert out == ""
        assert flag in err and steps in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, run, tmp_path, jobs):
        target = tmp_path / "scan.csv"
        code, out, err = run("scan", "--p", "1", "--q", "1", "--r", "0",
                             "--a-steps", "2", "--b-steps", "2",
                             "--jobs", jobs, "--out", str(target))
        assert code == 1
        assert out == ""
        assert "--jobs" in err and jobs in err
        assert not target.exists()


class TestParserReuse:
    # (1,2,1) at a = 0 fails the ratio condition, so its scan row has an N2
    # only with --with-n2; block and kernel read --p/--q/--r as 1, 2, 0 when
    # unset, index refuses them when set
    SCAN = ("scan", "--p", "1", "--q", "2", "--r", "1", "--a-min", "0",
            "--a-max", "0", "--a-steps", "1", "--b-min", "1.3", "--b-max",
            "1.3", "--b-steps", "1")
    CALLS = [
        ("stability", "--report", "block", "--a", "0", "--b", "1.5", "--p",
         "2", "--q", "3", "--r", "1", "--k", "1", "--l", "0"),
        ("stability", "--report", "block", "--a", "0", "--b", "1.5", "--k",
         "1", "--l", "0"),
        SCAN + ("--with-n2",),
        SCAN,
        ("value", "--a", "0.3", "--b", "1.4", "--p", "1", "--q", "1", "--r",
         "0", "--with-n2"),
        ("value", "--a", "0.3", "--b", "1.4", "--p", "1", "--q", "1", "--r",
         "0"),
        ("stability", "--report", "kernel", "--a", "-0.5", "--b",
         str(math.sqrt(0.75)), "--p", "1", "--r", "1", "--q", "2"),
        ("stability", "--report", "kernel", "--a", "0", "--b", "1"),
    ]

    def test_successive_calls_print_what_fresh_calls_print(self, run):
        # main builds its parser once per process; no option of one call
        # may leak into the next
        assert build_parser() is build_parser()
        successive = [run(*argv) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(run(*argv))
        assert successive == fresh
        scan_n2 = [out.splitlines()[1].split(",")[9]
                   for _, out, _ in successive[2:4]]
        assert scan_n2 == ["4", ""]
        assert [json.loads(out)["N2"] for _, out, _ in successive[4:6]] == [1, None]


class TestOtsuki:
    def test_mesh_written(self, run, tmp_path):
        target = tmp_path / "mesh.jsonl"
        code, out, _ = run("otsuki", "--pt", "2", "--qt", "3",
                           "--mesh", str(target), "--nx", "4", "--ny", "6")
        doc = json.loads(out)
        assert code == 0
        assert doc["mesh_records"] == 24
        recs = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(recs) == 24
        assert doc["conformality_residual_diag"] <= 1e-8

    def test_harmonic_near_m_one(self, run):
        # m* = 1 - 1.2e-6: the printed residual comes from the closed-form
        # second derivatives (a difference stencil printed 6.0e-5)
        code, out, _ = run("otsuki", "--pt", "99", "--qt", "197")
        doc = json.loads(out)
        assert code == 0
        assert 1.0 - doc["m_star"] < 2e-6
        assert doc["harmonicity_residual"] <= 1e-10
        assert doc["conformality_residual_diag"] <= 1e-8

    def test_bad_ratio_exit_2(self, run):
        code, _, err = run("otsuki", "--pt", "3", "--qt", "4")
        assert code == 2
        assert "ratio" in err


class TestStability:
    def test_hersch(self, run):
        code, out, _ = run("stability", "--report", "hersch", "--b0", "1.0")
        doc = json.loads(out)
        assert code == 0
        assert doc["value"] == pytest.approx(math.pi**2 / 2, abs=1e-12)
        assert doc["quadrature"] == pytest.approx(doc["value"], rel=1e-13)

    def test_kernel(self, run):
        code, out, _ = run("stability", "--report", "kernel",
                           "--a", "-0.5", "--b", str(math.sqrt(0.75)),
                           "--p", "1", "--r", "1", "--q", "2")
        doc = json.loads(out)
        assert code == 0
        assert max(doc["residuals"]) <= 1e-9
        assert doc["integrability_possible"] is False

    def test_block(self, run):
        code, out, _ = run("stability", "--report", "block",
                           "--a", "0", "--b", "1", "--p", "1", "--r", "0",
                           "--phi0", str(math.pi / 4), "--k", "2", "--l", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["det_re"] == pytest.approx(75.0, rel=1e-12)

    def test_index(self, run):
        code, out, _ = run("stability", "--report", "index",
                           "--a", "0.3", "--b", "1.4")
        doc = json.loads(out)
        assert code == 0
        assert doc["index"] <= 4
        assert doc["nullity"] >= 6
        assert isinstance(doc["converged"], bool)
        for row in doc["per_mode"].values():
            assert {"borderline", "counts_match", "inertia"} <= row.keys()

    def test_index_names_its_map(self, run):
        code, out, _ = run("stability", "--report", "index",
                           "--a", "0.3", "--b", "1.4", "--p", "1", "--q", "1",
                           "--r", "0")
        doc = json.loads(out)
        assert code == 0
        assert (doc["p"], doc["q"], doc["r"]) == (1, 1, 0)
        assert doc["schema"] == "1"

    @pytest.mark.parametrize("flags,named", [
        (("--p", "2", "--q", "3", "--r", "1"), "--p 2, --q 3, --r 1"),
        (("--q", "2"), "--q 2"),
        (("--r", "1"), "--r 1")])
    def test_index_rejects_other_maps(self, run, flags, named):
        # the count is of the (1,1,0) maps: other (p, q, r) exit 1 before
        # anything is computed
        code, out, err = run("stability", "--report", "index",
                             "--a", "0.3", "--b", "1.4", *flags)
        assert code == 1
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("report,args", [
        ("block", ("--a", "0", "--b", "1", "--phi0", "0.7", "--k", "2",
                   "--l", "1")),
        ("kernel", ("--a", "0", "--b", "1"))])
    def test_block_kernel_default_to_120(self, run, report, args):
        # without --p/--q/--r, block and kernel read (1, 2, 0)
        code, out, _ = run("stability", "--report", report, *args)
        code_120, out_120, _ = run("stability", "--report", report, *args,
                                   "--p", "1", "--q", "2", "--r", "0")
        assert code == code_120 == 0
        assert out == out_120

    def test_index_deterministic(self, run):
        args = ("stability", "--report", "index", "--a", "0.3", "--b", "1.4")
        code, out1, _ = run(*args)
        _, out2, _ = run(*args)
        assert code == 0
        assert out1 == out2

    def test_index_single_resolution_rejected(self, run, capsys):
        # the meshes are the constant stability.RESOLUTIONS: argparse exits
        # on --resolutions before anything is computed
        with pytest.raises(SystemExit) as exc:
            run("stability", "--report", "index", "--a", "0.3", "--b", "1.4",
                "--resolutions", "512")
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --resolutions" in captured.err
        with pytest.raises(SystemExit):
            run("stability", "--help")
        assert "--resolutions" not in capsys.readouterr().out


class TestMeshCommand:
    def test_mesh_file(self, run, tmp_path):
        target = tmp_path / "map.jsonl"
        code, out, _ = run("mesh", "--a", "1/4", "--b", "2.1",
                           "--p", "2", "--q", "3", "--r", "0",
                           "--nx", "3", "--ny", "5", "--out", str(target))
        doc = json.loads(out)
        assert code == 0
        assert doc["mesh_records"] == 15
        rec = json.loads(target.read_text().splitlines()[0])
        norm = (rec["re_z1"] ** 2 + rec["im_z1"] ** 2
                + rec["re_z2"] ** 2 + rec["im_z2"] ** 2)
        assert norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("flag,size", [("--nx", "0"), ("--ny", "-1")])
@pytest.mark.parametrize("command", [
    ("mesh", "--a", "1/4", "--b", "2.1", "--p", "2", "--q", "3", "--r", "0",
     "--out"),
    ("otsuki", "--pt", "2", "--qt", "3", "--mesh"),
], ids=["mesh", "otsuki"])
def test_empty_mesh_rejected(run, tmp_path, command, flag, size):
    target = tmp_path / "old.jsonl"
    target.write_text("earlier output\n")
    code, out, err = run(*command, str(target), flag, size)
    assert code == 1
    assert out == ""
    assert flag in err and size in err
    assert target.read_text() == "earlier output\n"


class TestConfig:
    """The run configuration is deleted: nothing sets a tolerance."""

    SOLVE = ("solve-tau", "--a", "0", "--b", "2", "--p", "1", "--q", "1",
             "--r", "0")

    def _config_run(self, run, capsys, cfg):
        with pytest.raises(SystemExit) as exc:
            run("--config", str(cfg), *self.SOLVE)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        return captured.err

    def test_config_file_parsed(self, run, capsys, tmp_path):
        # the --config flag is gone: argparse exits before any file is read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver_tol = 1e-13\n# comment\n")
        assert "usage: eqtorus" in self._config_run(run, capsys, cfg)
        assert "--config" not in build_parser().format_help()

    @pytest.mark.parametrize("key", ["quadrature_tol", "a_min", "b_steps",
                                     "output_format", "ode_rtol"])
    def test_removed_key_rejected(self, run, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        self._config_run(run, capsys, cfg)
        assert key not in dataclasses.asdict(tolerances())

    def test_env_override(self, run, monkeypatch):
        # EQTORUS_TOL_OVERRIDE is not read: output is byte-identical
        monkeypatch.delenv("EQTORUS_TOL_OVERRIDE", raising=False)
        unset = run(*self.SOLVE)
        monkeypatch.setenv("EQTORUS_TOL_OVERRIDE", "1e7")
        code, out, err = run(*self.SOLVE)
        assert (code, out, err) == unset
        assert code == 0
        assert max(json.loads(out)["residuals"].values()) <= 1e-8

    def test_bad_env_override(self, monkeypatch):
        # a value the old override rejected has nothing to reject now
        monkeypatch.setenv("EQTORUS_TOL_OVERRIDE", "-1")
        assert dataclasses.asdict(tolerances()) == {"solver": 1e-14}


def _rejects(keyword, call):
    def check():
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{keyword}'"):
            call()
    return check


def _tolerances_record():
    assert dataclasses.asdict(tolerances()) == {"solver": 1e-14}
    with pytest.raises(TypeError, match="solver"):
        Tolerances(solver=1e-3)


_POINT = ModuliPoint(0.3, 1.4)
_PARAMS = classify_params(_POINT, 1, 1, 0)
REMOVED_OPTIONS = {
    "solve_tau_xtol": _rejects(
        "xtol", lambda: solve_tau(_POINT, _PARAMS, xtol=1e-3)),
    "moduli_scan_tol": _rejects(
        "tol", lambda: moduli_scan([0.3], [1.4], 1, 1, 0, tol=None)),
    "index_tol": _rejects(
        "tol", lambda: index_nullity_estimate(_POINT, tol=None)),
    "lattice_integrals_epsabs": _rejects(
        "epsabs", lambda: lattice_integrals(solve_tau(_POINT, _PARAMS),
                                            epsabs=1e-12)),
    "lambda_bar_quadrature_epsabs": _rejects(
        "epsabs", lambda: lambda_bar_quadrature(None, epsabs=1e-11)),
    "tolerances_record": _tolerances_record,
}


@pytest.mark.parametrize("option", sorted(REMOVED_OPTIONS))
def test_removed_options(option):
    # no tolerance keyword is left, and tolerances() only records; the
    # --config flag and the environment variable are pinned in TestConfig,
    # the zero_tol keyword in test_stability's test_zero_tol_rejected
    REMOVED_OPTIONS[option]()
