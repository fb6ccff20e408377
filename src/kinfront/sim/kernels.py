"""The stepping kernel used by the simulation engine.

There is one lane: `strang_step` is the numpy implementation in
`_kernels_py`, re-exported here so that callers bind one name. It needs
the velocity rows in ascending order of speed, as `engine.sim_nodes`
returns them. `BACKEND` names the lane for run reports.
"""

from ._kernels_py import strang_step  # noqa: F401

BACKEND = "python"
