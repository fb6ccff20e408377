"""End-to-end CLI tests, run in-process through main(argv).

Covers the documented exit codes (0 ok, 2 config, 4 simulation domain),
CSV/JSON shapes, run-to-run byte determinism, and the model-file parser.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kinfront as kf
from kinfront.cli import _fmt, main, parse_grid, parse_model_file, parse_vector
from kinfront.errors import ValidationError

L_QUAD = 3.0 * (2.0 * math.log(2.0) - 1.0)


def coth(x):
    return math.cosh(x) / math.sinh(x)


# -- helpers -------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing utilities ---------------------------------------------------


def test_fmt_17_significant_digits():
    assert _fmt(math.pi) == "3.1415926535897931"
    assert _fmt(0.5) == "0.5"
    assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_parse_vector():
    np.testing.assert_allclose(parse_vector("1.5,-2,0.25"), [1.5, -2.0, 0.25])
    with pytest.raises(ValidationError):
        parse_vector("1.5,abc")


def test_parse_grid():
    np.testing.assert_allclose(parse_grid("0:1:5"), [0.0, 0.25, 0.5, 0.75, 1.0])
    for bad in ("0:1", "0:1:0", "a:1:3"):
        with pytest.raises(ValidationError):
            parse_grid(bad)


def test_parse_model_file_interval(tmp_path):
    path = tmp_path / "quad.model"
    path.write_text(
        "# quadratic equilibrium on [-1, 1]\n"
        "support = interval\n"
        "a = -1\n"
        "b = 1\n"
        "density = power\n"
        "k = 2\n"
        "name = file-quadratic\n"
    )
    m = parse_model_file(str(path))
    q = kf.preset("quadratic-1d")
    v = np.linspace(-0.9, 0.9, 5)
    np.testing.assert_allclose(m.density(v), q.density(v), rtol=1e-12)


def test_parse_model_file_discrete(tmp_path):
    path = tmp_path / "pair.model"
    path.write_text(
        "support = discrete\n"
        "point = 1 : 0.5\n"
        "point = -1 : 0.5\n"
    )
    m = parse_model_file(str(path))
    assert m.is_discrete
    np.testing.assert_allclose(np.sort(m.support.points[:, 0]), [-1.0, 1.0])


def test_parse_model_file_errors(tmp_path):
    cases = {
        "dup.model": "support = interval\ndensity = uniform\ndensity = cosine\n",
        "unknown.model": "support = torus\ndensity = uniform\n",
        "extra.model": "support = interval\ndensity = uniform\nfoo = 1\n",
        "nodensity.model": "support = ball\n",
        "stray.model": "support = ball\ndensity = uniform\npoint = 1,0 : 1\n",
        "noeq.model": "support interval\n",
        "badpoint.model": "support = discrete\npoint = 1 0.5\n",
    }
    for fname, text in cases.items():
        path = tmp_path / fname
        path.write_text(text)
        with pytest.raises(ValidationError):
            parse_model_file(str(path))
    with pytest.raises(ValidationError):
        parse_model_file(str(tmp_path / "missing.model"))


# -- subcommands ---------------------------------------------------------


def test_hamiltonian_single_point(capsys):
    code, out, _ = run_cli(capsys, "hamiltonian", "--model", "uniform-1d",
                           "--p", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p1,H,regular,dirac_weight"
    p1, h, regular, w = lines[1].split(",")
    assert float(p1) == 1.0
    np.testing.assert_allclose(float(h), coth(1.0) - 1.0, atol=1e-10)
    assert regular == "true"
    assert float(w) == 0.0


def test_hamiltonian_grid_hits_singular_branch(capsys):
    code, out, _ = run_cli(capsys, "hamiltonian", "--model", "quadratic-1d",
                           "--p-grid", "0:2:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == 0.0 and first[2] == "true"
    last = lines[-1].split(",")
    assert last[2] == "false"
    np.testing.assert_allclose(float(last[1]), 1.0, atol=1e-10)  # H = mu - 1
    np.testing.assert_allclose(float(last[3]), 1.0 - L_QUAD / 2.0, atol=1e-8)


def test_hamiltonian_requires_a_frequency(capsys):
    code, _, err = run_cli(capsys, "hamiltonian", "--model", "uniform-1d")
    assert code == 2
    assert "error" in err


def test_model_flags_mutually_exclusive(capsys, tmp_path):
    path = tmp_path / "m.model"
    path.write_text("support = interval\ndensity = uniform\n")
    code, _, err = run_cli(capsys, "sing", "--model", "uniform-1d",
                           "--model-file", str(path))
    assert code == 2
    code, _, err = run_cli(capsys, "sing")
    assert code == 2


def test_dimension_mismatch_is_config_error(capsys):
    code, _, err = run_cli(capsys, "hamiltonian", "--model", "uniform-1d",
                           "--p", "1.0,2.0")
    assert code == 2


def test_sing_summary(capsys):
    code, out, _ = run_cli(capsys, "sing", "--model", "quadratic-1d",
                           "--p", "2.0")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["l"], L_QUAD, atol=1e-8)
    np.testing.assert_allclose(payload["boundary_radius"], L_QUAD, atol=1e-6)
    assert payload["in_singular_set"] is True


def test_sing_empty_singular_set_serializes_inf(capsys):
    code, out, _ = run_cli(capsys, "sing", "--model", "uniform-1d")
    assert code == 0
    payload = json.loads(out)
    assert math.isinf(payload["l"])
    assert math.isinf(payload["boundary_radius"])


def test_speed_curve_summary_and_table(capsys, tmp_path):
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "speed-curve", "--model", "quadratic-1d",
                           "--r", "1.0", "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["case_label"] == "Case4"
    np.testing.assert_allclose(summary["c_star"], 1.0 - 0.5 / L_QUAD,
                               atol=1e-8)
    np.testing.assert_allclose(summary["lambda_tilde"], 2.0 * L_QUAD,
                               atol=1e-8)
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "lambda,c,branch"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) > 30
    branches = {row[2] for row in rows}
    assert branches == {"regular", "singular"}
    for lam, c, branch in rows:
        assert (branch == "singular") == (float(lam) >= summary["lambda_tilde"])


def test_speed_curve_byte_determinism(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    outs = []
    for p in paths:
        code, out, _ = run_cli(capsys, "speed-curve", "--model", "uniform-1d",
                               "--r", "0.7", "--out", str(p))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_spreading_radii_scale_linearly(capsys):
    code, out, _ = run_cli(capsys, "spreading", "--model", "uniform-1d",
                           "--r", "1.0", "--t", "1,2")
    assert code == 0
    payload = json.loads(out)
    entry = payload["directions"][0]
    c_star = entry["c_star"]
    np.testing.assert_allclose(entry["w_star"], c_star, rtol=1e-9)
    np.testing.assert_allclose(entry["radii"]["planar"]["1"], c_star,
                               atol=1e-6)
    np.testing.assert_allclose(entry["radii"]["planar"]["2"], 2.0 * c_star,
                               atol=1e-6)
    np.testing.assert_allclose(entry["radii"]["point"]["2"],
                               2.0 * entry["w_star"], atol=1e-6)


DIAMOND = ("support = discrete\npoint = 1,0 : 0.25\npoint = -1,0 : 0.25\n"
           "point = 0,1 : 0.25\npoint = 0,-1 : 0.25\n")


def test_spreading_scan_matches_a_fresh_model(capsys, tmp_path):
    # each direction of a scan runs on a model that earlier directions
    # used; a freshly parsed model gives every value bit for bit
    path = tmp_path / "diamond.model"
    path.write_text(DIAMOND)
    code, out, _ = run_cli(capsys, "spreading", "--model-file", str(path), "--r", "3",
                           "--t", "1,2", "--directions", "8")
    assert code == 0
    for entry in json.loads(out)["directions"]:
        m, e0 = parse_model_file(str(path)), np.array(entry["e0"])
        assert entry["c_star"] == kf.minimal_speed(m, 3.0, e0, sample=False).c_star
        assert entry["w_star"] == kf.freidlin_gartner_speed(m, 3.0, e0)
        for init in ("planar", "point"):
            for t in (1.0, 2.0):
                want = kf.nullset_radius(m, 3.0, e0, t, init=init)
                assert entry["radii"][init][_fmt(t)] == want


def test_spreading_radii_are_exactly_linear_in_t(capsys, tmp_path):
    path = tmp_path / "diamond.model"
    path.write_text(DIAMOND)
    e = "%r,%r" % (math.cos(0.46), math.sin(0.46))
    code, out, _ = run_cli(capsys, "spreading", "--model-file", str(path), "--r", "0.8",
                           "--e", e, "--t", "0.5,1,2,4")
    assert code == 0
    (entry,) = json.loads(out)["directions"]
    for init in ("planar", "point"):
        radii = entry["radii"][init]
        assert sorted(radii) == ["0.5", "1", "2", "4"]
        for t in radii:
            assert radii[t] == float(t) * radii["1"]


def test_spreading_direction_scan_needs_2d(capsys):
    code, _, err = run_cli(capsys, "spreading", "--model", "uniform-1d",
                           "--r", "1.0", "--directions", "8")
    assert code == 2


def test_spreading_direction_scan_rejects_3d_before_solving(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("minimal_speed called before the dimension check")

    monkeypatch.setattr(kf.dispersion, "minimal_speed", no_solve)
    code, _, err = run_cli(capsys, "spreading", "--model", "uniform-ball:3",
                           "--r", "1", "--directions", "4")
    assert code == 2
    assert "2-D model" in err


def test_simulate_has_no_kernel_switch(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "two-speed", "--r", "1", "--backend", "python"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_writes_artifacts(capsys, tmp_path):
    prefix = tmp_path / "ts"
    code, out, _ = run_cli(capsys, "simulate", "--model", "two-speed",
                           "--r", "1.0", "--t-end", "10", "--dx", "0.02",
                           "--length", "15", "--out", str(prefix))
    assert code == 0
    summary = json.loads(out)
    assert summary["relative_error"] < 0.05
    assert summary["clamp_count"] == 0
    on_disk = json.loads((tmp_path / "ts.json").read_text())
    assert on_disk == summary

    trace_lines = (tmp_path / "ts.trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "t,front_x"
    assert len(trace_lines) > 50

    snap_lines = (tmp_path / "ts.snapshot.csv").read_text().strip().splitlines()
    header = snap_lines[0].split(",")
    assert header[:2] == ["x", "rho"]
    assert len(header) == 2 + 2  # two velocity atoms
    assert len(snap_lines) == 1 + int(round(15 / 0.02)) + 1


def test_simulate_window_failure_exits_4(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--model", "uniform-1d",
                           "--r", "1.0", "--t-end", "30", "--dx", "0.05",
                           "--length", "1.0", "--nv", "8",
                           "--out", str(tmp_path / "x"))
    assert code == 4
    assert "simulation failure" in err


def test_sweep_threaded_matches_serial(capsys, tmp_path):
    # sweeps run serially; two runs of one grid must be byte-identical
    a, b = tmp_path / "first.csv", tmp_path / "second.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "sweep", "--model", "quadratic-1d",
                             "--r-grid", "0.2:1.4:4", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "r,lambda_tilde,lambda_star,c_star,case_label,left_derivative"
    assert len(lines) == 5
    labels = [ln.split(",")[4] for ln in lines[1:]]
    assert labels[0] == "Case2" and labels[-1] == "Case4"


def test_model_file_drives_subcommands(capsys, tmp_path):
    path = tmp_path / "quad.model"
    path.write_text("support = interval\ndensity = power\nk = 2\n")
    code, out, _ = run_cli(capsys, "sing", "--model-file", str(path))
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["l"], L_QUAD, atol=1e-8)

    ball = tmp_path / "ball.model"
    ball.write_text("support = ball\nradius = 1\ndim = 2\ndensity = uniform\n")
    code, out, _ = run_cli(capsys, "sing", "--model-file", str(ball),
                           "--e", "0,1")
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["l"], 2.0, atol=1e-6)


def test_installed_entry_point_reports_version():
    # the child imports kinfront from where this process found it, which
    # the pytest pythonpath setting puts on sys.path but not in the environment
    src = os.path.dirname(os.path.dirname(kf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c",
                           "from kinfront.cli import main; main(['--version'])"],
                          capture_output=True, text=True, env=env)
    assert "kinfront" in proc.stdout
