"""The benchmark's tracer must still find the calls it counts.

perfbench/spans.py wraps `dispersion._h_value` and `dispersion._discrete_h`
by name to count H solves, and the public functions of each layer by
name, `propagation.nullset_radius` and `propagation.lagrangian` among
them; renaming or deleting any of these breaks a per-layer metric of
`perfbench/run.py --trace 1`. This imports the tracer read-only and runs
it on one continuum and one atom-set H solve, on one `spreading` call,
on one `sweep` of each kind of velocity set, and on direct L and w*
calls in 2-D and 3-D.
"""

import math
import os
import sys

import numpy as np

import kinfront.cli  # noqa: F401  (the tracer wraps every kinfront layer module)
from kinfront import dispersion, propagation
from kinfront.models import DiscreteSet, VelocityModel, preset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
DIAMOND = ("support = discrete\npoint = 1,0 : 0.25\npoint = -1,0 : 0.25\n"
           "point = 0,1 : 0.25\npoint = 0,-1 : 0.25\n")


def _tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    return spans.Tracer()


def test_tracer_counts_h_solves():
    tracer = _tracer()
    tracer.install()
    try:
        P = np.array([[0.5], [-2.0], [3.0]])
        dispersion.hamiltonian_values(preset("uniform-1d"), P)
        dispersion.hamiltonian_values(preset("two-speed"), P)
    finally:
        tracer.uninstall()
    layer = tracer.per_layer(tracer.take())
    # one batched continuum call, and three atom-set rows
    assert layer["h_solves"] == 4
    assert layer["calls"]["dispersion._h_value"] == 2
    assert not hasattr(dispersion.hamiltonian_values, "__wrapped__")


def test_tracer_counts_spreading_root_solves(tmp_path, capsys):
    path = tmp_path / "diamond.model"
    path.write_text(DIAMOND)
    argv = ["spreading", "--model-file", str(path), "--r", "0.8",
            "--e", "%r,%r" % (math.cos(0.46), math.sin(0.46)), "--t", "1,2"]
    tracer = _tracer()
    tracer.install()
    try:
        assert kinfront.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layer = tracer.per_layer(tracer.take())
    calls = layer["calls"]
    # one planar radius; the point radius and w* come from one root of L
    # and one batch of candidate c*, inside the command, with no public
    # lagrangian or freidlin_gartner_speed call. Each L of the root after
    # the first interior one starts its Newton solve from that L's q (211
    # H solves when every L started from q = 0), and the L at the hull is
    # certified positive by its facet's weight, not solved (160 with it).
    # Both roots step on the slopes their values come with, the rate of a
    # ray sup and q*.e0 of an L (118 when they used values alone)
    assert calls["propagation.nullset_radius"] == 1
    assert "propagation.lagrangian" not in calls
    assert "propagation.freidlin_gartner_speed" not in calls
    assert layer["h_solves"] == 88


def test_tracer_counts_sweep_solves(tmp_path, capsys):
    # a sweep is one minimal_speeds call, and every minimal speed goes
    # through one batched _min_speeds with a row per r. An interior minimum
    # is one bracketed root of c', and all rows step together: on a
    # continuum the tracer counts one H solve per batched _h_value pass,
    # one at lambda_tilde, one at both bracket ends and one per root step
    # of the slowest row (10 on uniform-ball:2). The two-speed solves are
    # counted per row: 2 for each row's bracket ends, and 9 root steps at
    # r = 0.5 (r = 1.25 and 2 are ballistic), in 10 passes. Minima at the
    # kink (Case4 on quadratic-1d) solve H(lambda_tilde) once, in one pass
    for name, grid, h_solves, passes in (("uniform-ball:2", "0.2:1.2:3", 12, 12),
                                         ("two-speed", "0.5:2:3", 15, 10),
                                         ("quadratic-1d", "0.6:2:3", 1, 1)):
        argv = ["sweep", "--model", name, "--r-grid", grid, "--out", str(tmp_path / "sweep.csv")]
        tracer = _tracer()
        tracer.install()
        try:
            assert kinfront.cli.main(argv) == 0
        finally:
            tracer.uninstall()
        layer = tracer.per_layer(tracer.take())
        assert layer["calls"]["dispersion.minimal_speeds"] == 1
        assert "dispersion.minimal_speed" not in layer["calls"]
        solver = "dispersion._discrete_h" if name == "two-speed" else "dispersion._h_value"
        assert layer["calls"][solver] == passes
        assert layer["h_solves"] == h_solves
    capsys.readouterr()


def test_tracer_counts_direction_search_solves():
    # w* on an atom set is one root of the point radius, each step one
    # Newton solve of L with one H solve per iterate, and one batched c*
    # solve over e0, e* = q*/|q*| and the facet normals that face e0. A
    # direction search over c* took 3,298 (2-D) and 5,959 (3-D) H solves,
    # and put the octahedron's w* 4.4e-15 higher. L itself is one Newton
    # solve in q, where a direction search over ray sups took 2,629 (2-D)
    # and 5,237 (3-D). The root's L solves start from the last interior
    # maximiser: from q = 0 they took 193 (2-D) and 208 (3-D). The L at the
    # hull is certified positive by its facet's weight, not solved: solving
    # it took 142 (2-D) and 158 (3-D). The root steps on the slope q*.e0
    # of each L: a root on the values of L alone took 100 (2-D) and 116
    # (3-D), and put the diamond's w* one ulp lower
    pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    diamond = VelocityModel(DiscreteSet(pts, [0.25] * 4))
    octahedron = VelocityModel(DiscreteSet(np.vstack([np.eye(3), -np.eye(3)]), [1.0 / 6.0] * 6))
    calls = (
        (lambda: propagation.freidlin_gartner_speed(diamond, 0.8, [math.cos(0.46), math.sin(0.46)]),
         74, 0.7387021058641875),
        (lambda: propagation.lagrangian(diamond, 0.8, [0.3, 0.2]), 5, -0.6754429719040477),
        (lambda: propagation.freidlin_gartner_speed(octahedron, 0.8, [1.0, 2.0, 2.0]),
         90, 0.5944923414842704),
        (lambda: propagation.lagrangian(octahedron, 0.8, [0.31, 0.17, 0.12]),
         5, -0.5989499192664304),
    )
    for call, h_solves, value in calls:
        tracer = _tracer()
        tracer.install()
        try:
            got = call()
        finally:
            tracer.uninstall()
        assert tracer.per_layer(tracer.take())["h_solves"] == h_solves
        assert got == value
