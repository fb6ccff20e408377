"""The benchmark's tracer must still find the H solvers it counts.

perfbench/spans.py wraps `dispersion._h_value` and `dispersion._discrete_h`
by name to count H solves; renaming or deleting either breaks
`perfbench/run.py --trace 1`. This imports the tracer read-only and runs
it on one continuum and one atom-set H solve.
"""

import os
import sys

import numpy as np

import kinfront.cli  # noqa: F401  (the tracer wraps every kinfront layer module)
from kinfront import dispersion
from kinfront.models import preset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_counts_h_solves():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    tracer = spans.Tracer()
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
