"""End-to-end CLI tests, run in-process through main(argv).

Covers the documented exit codes (0 ok, 2 config, 4 simulation domain),
CSV/JSON shapes, run-to-run byte determinism, and the model-file parser.
"""

import json
import math
import os
import subprocess
import sys
import time

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
        # values that do not parse as numbers of their key's kind
        "badk.model": "support = interval\ndensity = power\nk = abc\n",
        "fracdim.model": "support = ball\ndensity = uniform\ndim = 2.5\n",
        "badweight.model": "support = discrete\npoint = 1 : abc\npoint = -1 : 0.5\n",
        "bada.model": "support = interval\ndensity = uniform\na = x\n",
        "badradius.model": "support = ball\ndensity = uniform\nradius = x\n",
        "ragged.model": "support = discrete\npoint = 1,0 : 0.5\npoint = -1 : 0.5\n",
        "nosupport.model": "density = uniform\na = -1\n",
        "discreteextra.model": "support = discrete\npoint = 1 : 0.5\npoint = -1 : 0.5\nk = 2\n",
        "nopoints.model": "support = discrete\nname = empty\n",
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
    # used; a freshly parsed model gives every value bit for bit, where
    # the radii are ballistic (r = 3) and where they are roots (r = 0.8)
    path = tmp_path / "diamond.model"
    path.write_text(DIAMOND)
    for r in (3.0, 0.8):
        code, out, _ = run_cli(capsys, "spreading", "--model-file", str(path), "--r", repr(r),
                               "--t", "1,2", "--directions", "8")
        assert code == 0
        for entry in json.loads(out)["directions"]:
            m, e0 = parse_model_file(str(path)), np.array(entry["e0"])
            assert entry["c_star"] == kf.minimal_speed(m, r, e0, sample=False).c_star
            assert entry["w_star"] == kf.freidlin_gartner_speed(m, r, e0)
            for init in ("planar", "point"):
                for t in (1.0, 2.0):
                    want = kf.nullset_radius(m, r, e0, t, init=init)
                    assert entry["radii"][init][_fmt(t)] == want, (r, e0, init, t)


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


def test_spreading_radii_equal_library_calls_given_the_speeds(capsys, tmp_path):
    # at r = 0.8 neither radius is ballistic: the planar root takes the
    # bracket narrowed about c* and its ray sups start from lambda*; the
    # point root runs on [0, min(c*, hull extent)], and w* is certified by
    # it. A library call that is given no speed solves c* and lambda* and
    # runs the same roots, bit for bit
    path = tmp_path / "diamond.model"
    path.write_text(DIAMOND)
    e = "%r,%r" % (math.cos(0.46), math.sin(0.46))
    code, out, _ = run_cli(capsys, "spreading", "--model-file", str(path), "--r", "0.8",
                           "--e", e, "--t", "1")
    assert code == 0
    (entry,) = json.loads(out)["directions"]
    m, e0 = parse_model_file(str(path)), np.array(entry["e0"])
    curve = kf.minimal_speed(m, 0.8, e0, sample=False)
    c_star = curve.c_star
    w_star = kf.freidlin_gartner_speed(m, 0.8, e0)
    assert (entry["c_star"], entry["w_star"]) == (c_star, w_star)
    planar = kf.nullset_radius(m, 0.8, e0, 1.0, init="planar", speed=c_star,
                               rate=curve.lambda_star)
    point = kf.propagation._point_speeds(m, 0.8, e0, c_star)
    assert entry["radii"]["planar"]["1"] == planar < m.support_max(e0)
    assert (entry["w_star"], entry["radii"]["point"]["1"]) == point
    assert point[1] < 1.0 / (math.cos(0.46) + math.sin(0.46))
    assert kf.nullset_radius(m, 0.8, e0, 1.0, init="planar") == planar
    assert kf.nullset_radius(m, 0.8, e0, 1.0, init="point") == point[1]


def test_spreading_takes_w_star_from_c_star_on_radial_models(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("freidlin_gartner_speed called on a radial model")

    roots = []
    solve = kf.propagation.nullset_radius

    def counted(*args, **kwargs):
        roots.append(kwargs.get("init"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(kf.propagation, "freidlin_gartner_speed", no_solve)
    monkeypatch.setattr(kf.propagation, "nullset_radius", counted)
    for argv in (["--model", "uniform-ball:2", "--e", "0.6,0.8"],
                 ["--model", "uniform-ball:2", "--directions", "3"],
                 ["--model", "uniform-ball:3", "--e", "0.48,0.6,0.64"],
                 ["--model", "quadratic-1d"]):
        roots.clear()
        code, out, _ = run_cli(capsys, "spreading", *argv, "--r", "0.8", "--t", "1,2")
        assert code == 0
        entries = json.loads(out)["directions"]
        # L(q e0) is the planar conjugate along e0: one root per direction
        # gives both radii
        assert roots == ["planar"] * len(entries)
        for entry in entries:
            assert entry["w_star"] == entry["c_star"]
            assert entry["radii"]["point"] == entry["radii"]["planar"]


def test_spreading_rate_costs_no_solve_at_a_kink(capsys, monkeypatch):
    # quadratic-1d at r = 0.8 is Case4: lambda* is lambda_tilde, where the
    # ray sups take g' from the left, so lambda* gives no window and no
    # _h_rays call beyond those of the same call without it
    h_rays = kf.dispersion._h_rays
    solve = kf.propagation.nullset_radius
    calls = []

    def counted(*args):
        calls.append(args)
        return h_rays(*args)

    def unrated(*args, rate=None, **kwargs):
        return solve(*args, **kwargs)

    monkeypatch.setattr(kf.dispersion, "_h_rays", counted)
    monkeypatch.setattr(kf.propagation, "_h_rays", counted)
    argv = ("spreading", "--model", "quadratic-1d", "--r", "0.8", "--t", "1,2")
    outs = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(kf.propagation, "nullset_radius", unrated)
        calls.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outs.append((out, len(calls)))
    (rated, rated_calls), (plain, plain_calls) = outs
    assert rated == plain and rated_calls <= plain_calls


def test_spreading_continuum_rows_start_from_the_rows_they_held(capsys, monkeypatch):
    # within one c* or ray-sup solve, each continuum H row starts from the
    # tangent at the last frequency it solved: one uniform-ball:2 spreading
    # call, model build included, makes 68 GradedGrid.integrals passes
    # (Newton passes and dH/dbeta means), where cold starts made 131. The
    # planar root ends on its seeded pair of ray sups, whose lines and
    # chord meet within its tolerance (94 passes by a root on values alone)
    integrals = kf.quadrature.GradedGrid.integrals
    passes = []

    def counted(self, y):
        passes.append(len(y))
        return integrals(self, y)

    monkeypatch.setattr(kf.quadrature.GradedGrid, "integrals", counted)
    code, _, _ = run_cli(capsys, "spreading", "--model", "uniform-ball:2", "--r", "0.8",
                         "--t", "0.5,1,2,4")
    assert code == 0
    assert len(passes) == 68


def test_spreading_rejects_nonpositive_t_before_solving(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("minimal_speed called before the time check")

    monkeypatch.setattr(kf.dispersion, "minimal_speed", no_solve)
    code, _, err = run_cli(capsys, "spreading", "--model", "uniform-1d",
                           "--r", "1", "--t", "0,1")
    assert code == 2
    assert "time t must be positive" in err


@pytest.mark.parametrize("argv", [
    ["spreading", "--model", "two-speed", "--r", "nan"],
    ["speed-curve", "--model", "quadratic-1d", "--r", "inf"],
    ["speed-curve", "--model", "uniform-1d", "--r", "nan"],
    ["sweep", "--model", "two-speed", "--r-grid", "1:nan:2"],
    ["simulate", "--model", "two-speed", "--r", "nan", "--t-end", "1", "--length", "4"],
])
def test_growth_rate_must_be_finite(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "growth rate r must be positive" in err
    assert out == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "two-speed", "--r-grid", "0.5:1:2"],
    ["spreading", "--model", "two-speed", "--r", "0.5"],
    ["speed-curve", "--model", "uniform-ball:2", "--r", "0.5"],
])
def test_direction_of_the_wrong_dimension_is_config_error(capsys, tmp_path, argv):
    e = "1,1" if "two-speed" in argv else "1,0,0"
    code, _, err = run_cli(capsys, *argv, "--e", e, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "model is" in err and "dimensional" in err


@pytest.mark.parametrize("times", ["1,abc", "1,,2"])
def test_spreading_rejects_unparsable_t(capsys, times):
    code, out, err = run_cli(capsys, "spreading", "--model", "two-speed", "--r", "1", "--t", times)
    assert code == 2
    assert "cannot parse vector" in err and out == ""


def test_spreading_rejects_non_finite_t(capsys):
    code, out, err = run_cli(capsys, "spreading", "--model", "two-speed", "--r", "1",
                             "--t", "nan,inf")
    assert code == 2
    assert "time t must be positive" in err and out == ""


SIM_RANGES = {
    "--threshold": "threshold must lie in (0, 1)",
    "--cfl": "cfl must lie in (0, 1]",
    "--gamma": "gamma must lie in (0, 1]",
    "--fit-fraction": "fit_fraction must lie in (0, 1)",
}


@pytest.mark.parametrize("flag,value", [("--dx", "nan"), ("--t-end", "nan"),
                                        ("--length", "nan"), ("--t-end", "inf"),
                                        ("--threshold", "1.5"), ("--cfl", "1.5"),
                                        ("--cfl", "0"), ("--gamma", "0"), ("--gamma", "2"),
                                        ("--fit-fraction", "1"), ("--fit-fraction", "0")])
def test_simulate_rejects_non_finite_grid(capsys, tmp_path, flag, value):
    code, _, err = run_cli(capsys, "simulate", "--model", "two-speed", "--r", "0.5",
                           flag, value, "--out", str(tmp_path / "run"))
    assert code == 2
    assert SIM_RANGES.get(flag, "must be finite and positive") in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,what", [
    (["--t-end", "1e308", "--dx", "0.1", "--length", "10"], "too many steps"),
    (["--t-end", "1", "--dx", "1e-10", "--length", "1e308"], "too many cells"),
])
def test_simulate_rejects_counts_that_overflow(capsys, tmp_path, monkeypatch, argv, what):
    def no_state(*args, **kwargs):
        raise AssertionError("state allocated before the count check")

    monkeypatch.setattr(kf.sim.engine, "initial_front_state", no_state)
    code, out, err = run_cli(capsys, "simulate", "--model", "uniform-1d", "--r", "1", *argv,
                             "--out", str(tmp_path / "run"))
    assert code == 2 and what in err
    assert out == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("nv", ["0", "-3", "3"])
def test_simulate_rejects_too_few_velocity_nodes(capsys, tmp_path, nv):
    code, _, err = run_cli(capsys, "simulate", "--model", "uniform-1d", "--r", "1",
                           "--nv", nv, "--out", str(tmp_path / "run"))
    assert code == 2
    assert "nv must be an integer of at least 4" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("nv", ["5", "47"])
def test_simulate_rejects_an_odd_node_count(capsys, tmp_path, nv):
    # sim_nodes puts nv / 2 nodes on each side of v.e = 0: an odd nv would
    # silently run nv - 1
    code, _, err = run_cli(capsys, "simulate", "--model", "uniform-1d", "--r", "1",
                           "--nv", nv, "--out", str(tmp_path / "run"))
    assert code == 2
    assert "nv must be even" in err
    assert os.listdir(tmp_path) == []


def test_simulate_rejects_nv_on_an_atom_set(capsys, tmp_path):
    # an atom set runs on its atoms: --nv would do nothing
    code, out, err = run_cli(capsys, "simulate", "--model", "two-speed", "--r", "1",
                             "--nv", "100", "--out", str(tmp_path / "run"))
    assert code == 2 and "--nv" in err
    assert out == "" and os.listdir(tmp_path) == []

def test_solver_failure_exits_3(capsys, tmp_path, monkeypatch):
    def fails(*args, **kwargs):
        raise kf.SolverNotConverged("Lagrangian Newton solve did not converge")

    monkeypatch.setattr(kf.dispersion, "minimal_speed", fails)
    code, out, err = run_cli(capsys, "spreading", "--model", "two-speed", "--r", "1",
                             "--out", str(tmp_path / "out.json"))
    assert code == 3 and err.startswith("numerical failure: ")
    assert out == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("model", ["uniform-ball:2", "quadratic-1d"])
def test_spreading_speed_that_misses_the_planar_root_exits_3(capsys, tmp_path, monkeypatch, model):
    # a c* whose bracket 1e-6 wide shows no sign change of the planar
    # conjugate is reported, not replaced by a root from another bracket
    solve = kf.dispersion.minimal_speed

    def halved(*args, **kwargs):
        curve = solve(*args, **kwargs)
        curve.c_star *= 0.5
        return curve

    monkeypatch.setattr(kf.dispersion, "minimal_speed", halved)
    code, out, err = run_cli(capsys, "spreading", "--model", model, "--r", "0.8",
                             "--out", str(tmp_path / "out.json"))
    assert code == 3 and err.startswith("numerical failure: ") and "is not c*(e0)" in err
    assert out == "" and os.listdir(tmp_path) == []

def test_unwritable_output_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "sweep", "--model", "two-speed", "--r-grid", "0.5:1:2",
                             "--out", str(tmp_path / "missing" / "sweep.csv"))
    assert code == 2
    assert err.startswith("error: ") and out == ""


@pytest.mark.parametrize("r", ["0.5", "1", "2"])
def test_ball_direction_scan_gives_one_value_of_each_result(capsys, r):
    # H on the ball depends on |p| alone, bit for bit in every direction
    code, out, _ = run_cli(capsys, "spreading", "--model", "uniform-ball:2", "--r", r,
                           "--directions", "16")
    assert code == 0
    entries = json.loads(out)["directions"]
    assert len(entries) == 16
    for key in (lambda e: e["c_star"], lambda e: e["radii"]["planar"]["1"],
                lambda e: e["radii"]["point"]["1"]):
        assert len({key(e) for e in entries}) == 1


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


@pytest.mark.parametrize("n", ["0", "-3"])
def test_spreading_needs_at_least_one_direction(capsys, n):
    code, out, err = run_cli(capsys, "spreading", "--model", "uniform-ball:2",
                             "--r", "1", "--directions", n)
    assert code == 2
    assert "--directions must be at least 1" in err and out == ""


def test_spreading_direction_scan_excludes_e(capsys):
    code, out, err = run_cli(capsys, "spreading", "--model", "uniform-ball:2",
                             "--r", "1", "--directions", "4", "--e", "0,1")
    assert code == 2
    assert "--e" in err and out == ""


def test_hamiltonian_takes_p_or_p_grid_not_both(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hamiltonian", "--model", "uniform-1d", "--p", "1", "--p-grid", "0:1:3"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_hamiltonian_e_needs_p_grid(capsys):
    for extra in ([], ["--p", "1"]):
        code, out, err = run_cli(capsys, "hamiltonian", "--model", "uniform-1d",
                                 "--e", "-1", *extra)
        assert code == 2
        assert "--p-grid" in err and out == ""


def test_simulate_rejects_a_bad_direction_before_stepping(capsys, tmp_path):
    # at the default t_end = 60 the run itself takes tens of seconds
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--model", "uniform-1d", "--r", "0.8",
                             "--e", "1,0", "--out", str(tmp_path / "run"))
    assert code == 2
    assert time.perf_counter() - t0 < 5.0
    assert "model is 1-dimensional" in err
    assert out == "" and os.listdir(tmp_path) == []


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


def test_sweep_output_is_reproducible(capsys, tmp_path):
    # two runs of one grid must be byte-identical
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


SWEEP_HEADER = "r,lambda_tilde,lambda_star,c_star,case_label,left_derivative"
DIAMOND = ("support = discrete\npoint = 1,0 : 0.25\npoint = -1,0 : 0.25\n"
           "point = 0,1 : 0.25\npoint = 0,-1 : 0.25\n")


@pytest.mark.parametrize("name", ["uniform-1d", "quadratic-1d", "uniform-ball:2",
                                  "uniform-ball:3", "two-speed", "diamond"])
def test_sweep_equals_one_minimal_speed_per_r(capsys, tmp_path, name):
    # a sweep is one batched solve over its rates; each row is what a
    # minimal_speed call at that rate alone gives. The grid starts at
    # r = 1e-9, below the first bracket end, and ends past the slab's
    # Case3 point and the two-speed ballistic limit
    if name == "diamond":
        path = tmp_path / "diamond.model"
        path.write_text(DIAMOND)
        m, e = parse_model_file(str(path)), np.array([0.6, 0.8])
        argv = ["--model-file", str(path), "--e", "0.6,0.8"]
    else:
        m = kf.preset(name)
        e = np.eye(m.dim)[0]
        argv = ["--model", name]
    grid, out = "1e-9:2.5:6", tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(capsys, "sweep", *argv, "--r-grid", grid, "--out", str(out))
    assert code == 0 and stdout == ""
    lines = [SWEEP_HEADER]
    for r in parse_grid(grid):
        sc = kf.minimal_speed(m, float(r), e, sample=False)
        dleft = "nan" if sc.left_derivative_at_tilde is None else _fmt(sc.left_derivative_at_tilde)
        lines.append(",".join([_fmt(r), _fmt(sc.lambda_tilde), _fmt(sc.lambda_star),
                               _fmt(sc.c_star), sc.case_label, dleft]))
    assert out.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", ["0:1:3", "1:nan:2"])
def test_sweep_gates_every_r_before_solving(capsys, tmp_path, monkeypatch, grid):
    def no_solve(*args, **kwargs):
        raise AssertionError("a minimal speed solved before the r gate")

    monkeypatch.setattr(kf.dispersion, "_min_speeds", no_solve)
    code, out, err = run_cli(capsys, "sweep", "--model", "two-speed", "--r-grid", grid,
                             "--out", str(tmp_path / "out"))
    assert code == 2
    assert "growth rate r must be positive" in err
    assert out == "" and os.listdir(tmp_path) == []


def test_speed_curve_reaches_a_minimum_below_the_first_rate(capsys, tmp_path):
    # at two-speed r = 1e-7, lambda* = 3.16e-4 lies below 1e-3, where the
    # samples start when lambda* >= 1e-3 (r = 0.5)
    out = tmp_path / "curve.csv"
    for r in ("1e-7", "0.5"):
        code, stdout, _ = run_cli(capsys, "speed-curve", "--model", "two-speed", "--r", r,
                                  "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        table = [line.split(",") for line in out.read_text().splitlines()[1:]]
        lams, cs = [float(row[0]) for row in table], [float(row[1]) for row in table]
        assert lams[0] == min(1e-3, summary["lambda_star"] / 10.0)
        assert min(abs(c - summary["c_star"]) for c in cs) <= 0.01 * summary["c_star"]


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


def test_malformed_model_file_value_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("support = interval\ndensity = power\nk = abc\n")
    code, out, err = run_cli(capsys, "sing", "--model-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "k = 'abc'" in err
    assert "Traceback" not in err


NO_SCIPY = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked: " + name)

sys.meta_path.insert(0, NoScipy())
from kinfront.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every
    # subcommand runs and no scipy module is loaded
    diamond = tmp_path / "diamond.model"
    diamond.write_text(DIAMOND)
    out = str(tmp_path / "out")
    calls = [
        ["hamiltonian", "--model", "uniform-ball:2", "--p-grid", "0:3:4", "--out", out],
        ["sing", "--model", "quadratic-1d", "--out", out],
        ["speed-curve", "--model", "uniform-1d", "--r", "0.5", "--out", out],
        ["spreading", "--model-file", str(diamond), "--r", "0.8", "--e", "0.6,0.8", "--out", out],
        ["spreading", "--model", "uniform-ball:3", "--r", "0.8", "--out", out],
        ["simulate", "--model", "two-speed", "--r", "1", "--t-end", "5", "--dx", "0.05",
         "--length", "10", "--out", out],
        ["sweep", "--model", "two-speed", "--r-grid", "0.1:3:8", "--out", out],
    ]
    src = os.path.dirname(os.path.dirname(kf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(calls)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * len(calls), "scipy": []}


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
