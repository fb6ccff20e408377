"""The stepping kernel used by the simulation engine.

There is one lane: `strang_step` and its per-run `StepPlan` are the numpy
implementation in `_kernels_py`, re-exported here so that callers bind one
name. A run builds one plan and calls `strang_step(g, plan)` on every step.
The plan needs the velocity rows in ascending order of speed, as
`engine.sim_nodes` returns them. The ghost values are fixed at 1 on the left
(behind the front) and 0 on the right (ahead of it). From a plan's second
step on, g must enter each step in [0, 1]: the plan then skips the clamp
scan where it proves that the step keeps g there. `BACKEND` names the lane
for run reports.
"""

from ._kernels_py import StepPlan, strang_step  # noqa: F401

BACKEND = "python"
