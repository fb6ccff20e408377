"""The input gate of the public API, walked from tables.

Every callable in kinfront.__all__ that takes a direction or a vector
raises ValidationError on a wrong dimension, NaN, inf or (for a
direction) the zero vector; every r, t and lambda argument, and the
tolerance and bound of a bisection or a root solve, does the same for
0, -1, NaN and inf; the speed and rate of a planar root refuse their own
bad values; and every --e, --p and --t flag of the command line exits 2.
Each bad input is caught before any solve. The
last test keeps library code that only the tests call out of the public
API.
"""

import ast
import math
import pathlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kinfront as kf
from kinfront.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
NAN, INF = math.nan, math.inf


@lru_cache(maxsize=None)
def model(name):
    if name == "diamond":
        atoms = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        return kf.VelocityModel(kf.DiscreteSet(atoms, [0.25] * 4), name=name)
    return kf.preset(name)


MODELS = ("uniform-1d", "uniform-ball:2", "diamond")
SMALL_RUN = kf.SimConfig(dx=0.1, t_end=1.0, length=10.0, nv=8)

# callables of (model, e): every public function that takes a direction
DIRECTION_CALLS = {
    "support_max": lambda m, e: m.support_max(e),
    "arg_mu": lambda m, e: m.arg_mu(e),
    "l_integral": lambda m, e: kf.l_integral(m, e),
    "j_integral": lambda m, e: kf.j_integral(m, e),
    "singular_boundary_radius": lambda m, e: kf.singular_boundary_radius(m, e),
    "lambda_tilde": lambda m, e: kf.lambda_tilde(m, 1.0, e),
    "speed": lambda m, e: kf.speed(m, 1.0, e, 0.5),
    "speed_derivative_left": lambda m, e: kf.speed_derivative_left(m, 1.0, e, 0.5),
    "minimal_speed": lambda m, e: kf.minimal_speed(m, 1.0, e),
    "minimal_speeds": lambda m, e: kf.minimal_speeds(m, [0.5, 1.0], e),
    "case_from_square_criterion": lambda m, e: kf.case_from_square_criterion(m, 1.0, e),
    "wave_profile": lambda m, e: kf.wave_profile(m, 1.0, e, 0.5),
    "planar_conjugate": lambda m, e: kf.planar_conjugate(m, 1.0, e, 0.1),
    "freidlin_gartner_speed": lambda m, e: kf.freidlin_gartner_speed(m, 1.0, e),
    "nullset_radius point": lambda m, e: kf.nullset_radius(m, 1.0, e, 1.0),
    "nullset_radius planar": lambda m, e: kf.nullset_radius(m, 1.0, e, 1.0, init="planar"),
    "hopf_lax_phi planar": lambda m, e: kf.hopf_lax_phi(
        m, 1.0, 1.0, np.full(m.dim, 0.1), init="planar", e0=e),
    "initial_front_state": lambda m, e: kf.initial_front_state(m, 1.0, e),
    "run_front_experiment": lambda m, e: kf.run_front_experiment(m, 1.0, SMALL_RUN, e),
}

# callables of (model, p): every public function that takes a frequency or a point
VECTOR_CALLS = {
    "hamiltonian": lambda m, p: kf.hamiltonian(m, p),
    "hamiltonian_value": lambda m, p: kf.hamiltonian_value(m, p),
    "in_singular_set": lambda m, p: kf.in_singular_set(m, p),
    "lagrangian": lambda m, p: kf.lagrangian(m, 1.0, p),
    "hopf_lax_phi point": lambda m, x: kf.hopf_lax_phi(m, 1.0, 1.0, x),
    "hopf_lax_phi planar": lambda m, x: kf.hopf_lax_phi(
        m, 1.0, 1.0, x, init="planar", e0=np.eye(m.dim)[0]),
}


def _e(m):
    return np.eye(m.dim)[0]


# callables of (model, x) for every r, t and lambda argument, the
# bisection tolerance and bound of singular_boundary_radius, and the root
# tolerance of nullset_radius
SCALAR_CALLS = {
    "singular_boundary_radius tol": lambda m, x: kf.singular_boundary_radius(m, _e(m), tol=x),
    "singular_boundary_radius r_max": lambda m, x: kf.singular_boundary_radius(
        m, _e(m), r_max=x),
    "lambda_tilde r": lambda m, x: kf.lambda_tilde(m, x, _e(m)),
    "speed r": lambda m, x: kf.speed(m, x, _e(m), 0.5),
    "speed lambda": lambda m, x: kf.speed(m, 1.0, _e(m), x),
    "speed_derivative_left r": lambda m, x: kf.speed_derivative_left(m, x, _e(m), 0.5, c=0.5),
    "speed_derivative_left lambda": lambda m, x: kf.speed_derivative_left(m, 1.0, _e(m), x),
    "speed_derivative_left lambda, c given": lambda m, x: kf.speed_derivative_left(
        m, 1.0, _e(m), x, c=0.5),
    "minimal_speed r": lambda m, x: kf.minimal_speed(m, x, _e(m)),
    "minimal_speeds r": lambda m, x: kf.minimal_speeds(m, [1.0, x], _e(m)),
    "case_from_square_criterion r": lambda m, x: kf.case_from_square_criterion(m, x, _e(m)),
    "wave_profile r": lambda m, x: kf.wave_profile(m, x, _e(m), 0.5),
    "wave_profile lambda": lambda m, x: kf.wave_profile(m, 1.0, _e(m), x),
    "lagrangian r": lambda m, x: kf.lagrangian(m, x, 0.1 * _e(m)),
    "planar_conjugate r": lambda m, x: kf.planar_conjugate(m, x, _e(m), 0.1),
    "freidlin_gartner_speed r": lambda m, x: kf.freidlin_gartner_speed(m, x, _e(m)),
    "hopf_lax_phi r": lambda m, x: kf.hopf_lax_phi(m, x, 1.0, 0.1 * _e(m)),
    "hopf_lax_phi planar r": lambda m, x: kf.hopf_lax_phi(
        m, x, 1.0, 0.1 * _e(m), init="planar", e0=_e(m)),
    "hopf_lax_phi t": lambda m, x: kf.hopf_lax_phi(m, 1.0, x, 0.1 * _e(m)),
    "nullset_radius r": lambda m, x: kf.nullset_radius(m, x, _e(m), 1.0),
    "nullset_radius planar r": lambda m, x: kf.nullset_radius(m, x, _e(m), 1.0, init="planar"),
    "nullset_radius t": lambda m, x: kf.nullset_radius(m, 1.0, _e(m), x),
    "nullset_radius tol": lambda m, x: kf.nullset_radius(m, 1.0, _e(m), 1.0, tol=x),
    "initial_front_state r": lambda m, x: kf.initial_front_state(m, x),
    "run_front_experiment r": lambda m, x: kf.run_front_experiment(m, x, SMALL_RUN),
}


def _bad_vectors(dim, direction):
    bad = {
        "wrong dimension": np.ones(dim + 1),
        "nan": np.r_[NAN, np.ones(dim - 1)],
        "inf": np.r_[np.ones(dim - 1), INF],
    }
    if direction:
        bad["zero"] = np.zeros(dim)
    return bad


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("call", DIRECTION_CALLS)
def test_every_direction_argument_is_gated(name, call):
    m = model(name)
    for what, e in _bad_vectors(m.dim, direction=True).items():
        with pytest.raises(kf.ValidationError):
            DIRECTION_CALLS[call](m, e)
            pytest.fail("%s took a direction with %s" % (call, what))


def test_direction_rejects_zero_and_non_finite_vectors():
    for e in ([0.0, 0.0], [NAN, 1.0], [1.0, INF], 0.0, NAN):
        with pytest.raises(kf.ValidationError):
            kf.direction(e)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("call", VECTOR_CALLS)
def test_every_vector_argument_is_gated(name, call):
    m = model(name)
    for what, p in _bad_vectors(m.dim, direction=False).items():
        with pytest.raises(kf.ValidationError):
            VECTOR_CALLS[call](m, p)
            pytest.fail("%s took a vector with %s" % (call, what))


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("call", SCALAR_CALLS)
def test_every_rate_time_and_decay_is_gated(name, call):
    m = model(name)
    for x in (0.0, -1.0, NAN, INF):
        with pytest.raises(kf.ValidationError, match="must be positive"):
            SCALAR_CALLS[call](m, x)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(max_value=0.0) | st.sampled_from([NAN, INF]))
def test_no_nonpositive_or_non_finite_scalar_passes(x):
    for name in MODELS:
        for call in SCALAR_CALLS.values():
            with pytest.raises(kf.ValidationError):
                call(model(name), x)


@pytest.mark.parametrize("c", [NAN, INF, -INF])
def test_speed_derivative_left_needs_a_finite_speed(c):
    for name in MODELS:
        m = model(name)
        with pytest.raises(kf.ValidationError, match="c must be finite"):
            kf.speed_derivative_left(m, 1.0, _e(m), 0.5, c=c)


# the speed c*(e0) and rate lambda*(e0) of a planar root, with their bad
# values. c* is 0 where vbar(e0) is, and lambda* is +inf at a ballistic c*;
# minimal_speed returns both, so both pass the gate
SEED_CALLS = {
    "speed": (lambda m, x: kf.nullset_radius(m, 1.0, _e(m), 1.0, init="planar", speed=x),
              (-1.0, NAN, INF, -INF)),
    "rate": (lambda m, x: kf.nullset_radius(m, 1.0, _e(m), 1.0, init="planar", speed=0.5,
                                            rate=x),
             (0.0, -1.0, NAN, -INF)),
}


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("arg", SEED_CALLS)
def test_every_speed_and_rate_is_gated(monkeypatch, name, arg):
    def no_solve(*args):
        raise AssertionError("solved before the gate")

    monkeypatch.setattr(kf.propagation, "_cstars", no_solve)
    monkeypatch.setattr(kf.propagation, "_ray_sups", no_solve)
    call, bad = SEED_CALLS[arg]
    for x in bad:
        with pytest.raises(kf.ValidationError, match="%s must be" % arg):
            call(model(name), x)


def test_nullset_radius_takes_the_speeds_minimal_speed_returns():
    # c* = 0 across a line of atoms, where vbar(e0) = 0 too; lambda* = +inf
    # where the diamond's c* is ballistic. Each radius is vbar(e0)
    line = kf.VelocityModel(kf.DiscreteSet([(1.0, 1.0), (-1.0, -1.0)], [0.5, 0.5]))
    for m, r, e in ((line, 0.5, (1.0, -1.0)), (model("diamond"), 3.0, (0.6, 0.8))):
        sc = kf.minimal_speed(m, r, e, sample=False)
        got = kf.nullset_radius(m, r, e, 1.0, init="planar", speed=sc.c_star, rate=sc.lambda_star)
        assert np.isinf(sc.lambda_star) and got == sc.c_star == m.support_max(sc.e)
    # a speed of 0 where vbar(e0) > 0 is refused by its bracket
    with pytest.raises(kf.SolverNotConverged):
        kf.nullset_radius(model("uniform-1d"), 1.0, 1.0, 1.0, speed=0.0)


def test_nullset_radius_rejects_an_unknown_init():
    with pytest.raises(kf.ValidationError, match="init must be 'planar' or 'point'"):
        kf.nullset_radius(model("diamond"), 0.8, [math.cos(0.46), math.sin(0.46)], 1.1,
                          init="bogus")


# -- the command line --------------------------------------------------

# each subcommand with --e, on the 2-D ball, with what else it needs
E_COMMANDS = {
    "hamiltonian": ["--p-grid", "0:1:3"],
    "sing": [],
    "speed-curve": ["--r", "1"],
    "spreading": ["--r", "1"],
    "simulate": ["--r", "1"],
    "sweep": ["--r-grid", "0.5:1:2"],
}
BAD_E = ["1,0,0", "nan,0", "0,inf", "0,0", "1,abc", ""]
BAD_P = ["1,0,0", "nan,0", "0,inf", "1,abc", ""]
BAD_T = ["0", "-1", "nan", "inf", "1,abc", ""]


def _exits_2(capsys, tmp_path, argv):
    code = main(argv + ["--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 2, argv
    assert out == "" and not any(tmp_path.iterdir()), argv


@pytest.mark.parametrize("command", E_COMMANDS)
def test_every_e_flag_exits_2(capsys, tmp_path, command):
    for e in BAD_E:
        _exits_2(capsys, tmp_path,
                 [command, "--model", "uniform-ball:2", "--e", e] + E_COMMANDS[command])


@pytest.mark.parametrize("command", ["hamiltonian", "sing"])
def test_every_p_flag_exits_2(capsys, tmp_path, command):
    for p in BAD_P:
        _exits_2(capsys, tmp_path, [command, "--model", "uniform-ball:2", "--p", p])


def test_every_t_flag_exits_2(capsys, tmp_path):
    for t in BAD_T:
        _exits_2(capsys, tmp_path, ["spreading", "--model", "uniform-ball:2", "--r", "1",
                                    "--t", t])


# -- the public API has no test-only members ---------------------------

# the paper's Hopf-Lax phase, travelling-wave profile and point spreading
# speed, kept as public results although no library code calls them (the
# spreading command takes w* from the root that also gives its point radius)
KEPT_UNCALLED = {"freidlin_gartner_speed", "hopf_lax_phi", "wave_profile"}


def _loaded_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_besides_the_tests():
    """A name counts as used where library or benchmark code loads it;
    the re-export in __init__.py and the name's own def or class do not
    count."""
    init = ROOT / "src" / "kinfront" / "__init__.py"
    files = [p for p in (ROOT / "src" / "kinfront").rglob("*.py") if p != init]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_loaded_names, files))
    assert set(kf.__all__) - used == KEPT_UNCALLED
