"""The three workloads: their CLI calls, their result counts and their checks.

A round is a fixed list of `kinfront` subcommand calls. Inputs come from
the seed alone (through `random.Random`), and the program sees only the
generated arguments. Every call writes its tables to `--out` files; the
first round's outputs are checked against `oracles` and against
properties the method must have, and every later round must reproduce
them byte for byte (identical arguments give identical output).

This module imports only the standard library at load time, so that the
set-up probe can time the import of kinfront itself.
"""

import functools
import hashlib
import json
import math
import os
import random

SPREAD_TIMES = "0.5,1,2,4"
DIAMOND_FILE = """# four-point diamond: +-e1, +-e2 with weight 1/4
support = discrete
point = 1,0 : 0.25
point = -1,0 : 0.25
point = 0,1 : 0.25
point = 0,-1 : 0.25
name = diamond
"""

# criterion 7 of the acceptance suite: fitted front speed within 3 % of c*
SIM_TOL = 0.03
# minimal speeds: the H root is solved to 1e-12 and lambda to 1e-10
# relative, so c* is good to about 1e-12; the oracles agree to ~1e-13
CSTAR_RTOL = 1e-10
# l(e) from the graded ladders; the acceptance suite holds it to 1e-8
L_RTOL = 1e-8
# null-set radii: Brent root on the conjugate with xtol 1e-9 in x/t
RADIUS_RTOL = 1e-8
# the Freidlin-Gartner scan: 256 angles plus golden-section refinement
WSTAR_RTOL = 1e-8


def _num(x):
    return repr(float(x))


class Call:
    """One subcommand call: its arguments, what it produces and how it is judged."""

    def __init__(self, label, argv, outputs, work, check):
        self.label = label
        self.argv = argv
        self.outputs = outputs  # files the call writes
        self.work = work  # (stdout, files) -> results produced
        self.check = check  # (stdout, files) -> list of problems


# ------------------------------------------------------------------ front-sim

# (model, r, dx, t_end); the other settings are the CLI defaults:
# nv = 48 nodes for continuum models, length 40, cfl 0.9
SIM_RUNS = (
    ("uniform-ball:2", 1.0, 0.01, 60.0),
    ("quadratic-1d", 1.0, 0.02, 120.0),
    ("two-speed", 0.5, 0.01, 100.0),
)
SIM_NV, SIM_LENGTH, SIM_CFL = 48, 40.0, 0.9


def _sim_cells(model, dx, t_end):
    """nv * nx * steps of one run, from the scheme's documented discretisation.

    Continuum models carry nv Gauss-Legendre nodes, nv/2 on each side of
    v.e = 0 over [-1, 1], so the fastest speed is 1 - x_0 with x_0 the
    smallest node on [0, 1]; two-speed carries its two atoms +-1. The
    step is the largest dt <= cfl dx / vmax that divides t_end.
    """
    import numpy as np

    if model == "two-speed":
        nv, vmax = 2, 1.0
    else:
        nv = SIM_NV
        x0 = 0.5 * (np.polynomial.legendre.leggauss(SIM_NV // 2)[0][0] + 1.0)
        vmax = 1.0 - x0
    nx = int(round(SIM_LENGTH / dx)) + 1
    steps = max(1, int(math.ceil(t_end / (SIM_CFL * dx / vmax) - 1e-12)))
    return nv * nx * steps


def _sim_oracle(model, r):
    import oracles

    if model == "uniform-ball:2":
        return oracles.disk_cstar(r)
    if model == "quadratic-1d":
        return oracles.quad_cstar(r)
    return oracles.two_speed_cstar(r)[0]


def _front_sim(rng, base):
    calls = []
    for model, r, dx, t_end in SIM_RUNS:
        prefix = os.path.join(base, model.replace(":", ""))
        argv = ["simulate", "--model", model, "--r", _num(r), "--dx", _num(dx),
                "--t-end", _num(t_end), "--out", prefix]
        cells = _sim_cells(model, dx, t_end)
        nv = 2 if model == "two-speed" else SIM_NV
        nx = int(round(SIM_LENGTH / dx)) + 1

        def check(stdout, files, model=model, r=r, prefix=prefix, nv=nv, nx=nx):
            problems = []
            summary = json.loads(stdout)
            if json.loads(files[prefix + ".json"]) != summary:
                problems.append("summary file differs from stdout")
            if summary["clamp_count"] != 0:
                problems.append("%d clamped cells" % summary["clamp_count"])
            ref = _sim_oracle(model, r)
            rel = abs(summary["fitted_speed"] - ref) / ref
            if not rel < SIM_TOL:
                problems.append("fitted speed %.6f vs oracle c* %.6f (%.2f%%)"
                                % (summary["fitted_speed"], ref, 100 * rel))
            lines = files[prefix + ".snapshot.csv"].decode().splitlines()
            if len(lines) != nx + 1 or len(lines[0].split(",")) != nv + 2:
                problems.append("snapshot is not %d rows of %d columns" % (nx, nv + 2))
            rho = [float(line.split(",", 2)[1]) for line in lines[1:]]
            if min(rho) < -1e-12 or max(rho) > 1.0 + 1e-12:
                problems.append("density leaves [0, 1]: %g..%g" % (min(rho), max(rho)))
            return problems

        calls.append(Call(
            "simulate %s" % model, argv,
            [prefix + ".json", prefix + ".trace.csv", prefix + ".snapshot.csv"],
            lambda stdout, files, cells=cells: cells, check))
    return calls


# ---------------------------------------------------------------- speed-sweep

# (model, r range lo, r range hi, points). The ranges are narrow and the
# quadratic slab has one grid on each side of its Case3 point r = 0.371, so
# the mix of cases, and with it the cost of a round, is the same on every
# seed; a Case2 minimal speed of the slab costs ten Case4 ones.
SWEEPS = (
    ("uniform-1d", (0.1, 0.12), (2.9, 3.1), 8),  # Case1, golden-section solves
    ("quadratic-1d", (0.05, 0.06), (0.3, 0.32), 4),  # Case2
    ("quadratic-1d", (0.45, 0.5), (2.9, 3.1), 20),  # Case4, the kink shortcut
    ("uniform-ball:2", (0.1, 0.12), (2.9, 3.1), 8),  # Case2, radial
    ("uniform-ball:3", (0.1, 0.12), (2.9, 3.1), 8),  # Case2, radial
    ("two-speed", (0.05, 0.06), (2.9, 3.1), 64),  # Case1, batched discrete path
)


def _lambda_tilde_ref(model, r):
    import oracles

    return {
        "uniform-1d": math.inf,
        "two-speed": math.inf,
        "quadratic-1d": (1.0 + r) * oracles.L_QUAD,
        "uniform-ball:2": 2.0 * (1.0 + r),
        "uniform-ball:3": (1.0 + r) * oracles.L_BALL3,
    }[model]


def _rel(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / abs(b)


@functools.lru_cache(maxsize=None)
def _preset(name):
    from kinfront.models import preset

    return preset(name)


def _check_cstar(model, r, c_star, lam_star, lam_tilde, label):
    """Problems with one reported minimal speed, against the closed forms."""
    import numpy as np
    import oracles
    from kinfront import dispersion

    problems = []
    where = "%s r=%s" % (model, r)
    lt_ref = _lambda_tilde_ref(model, r)
    if math.isinf(lt_ref) != math.isinf(lam_tilde) or (
            math.isfinite(lt_ref) and _rel(lam_tilde, lt_ref) > L_RTOL):
        problems.append("%s: lambda_tilde %r, closed form %r" % (where, lam_tilde, lt_ref))
    m = _preset(model)
    square = dispersion.case_from_square_criterion(m, r, np.eye(m.dim)[0])
    if label != square:
        problems.append("%s: case %s, square criterion says %s" % (where, label, square))
    if model == "two-speed":
        ref, lam_ref = oracles.two_speed_cstar(r)
        if math.isinf(lam_star):
            # documented ballistic limit: reported when lambda* lies past the cap
            if c_star != 1.0 or lam_ref < dispersion.LAMBDA_CAP * (1.0 - 1e-9):
                problems.append("%s: ballistic c*=%r but oracle lambda*=%r"
                                % (where, c_star, lam_ref))
            return problems
    else:
        ref = {
            "uniform-1d": oracles.slab_cstar,
            "quadratic-1d": oracles.quad_cstar,
            "uniform-ball:2": oracles.disk_cstar,
            "uniform-ball:3": oracles.ball3_cstar,
        }[model](r)
    if _rel(c_star, ref) > CSTAR_RTOL:
        problems.append("%s: c* %r, oracle %r" % (where, c_star, ref))
    if label in ("Case3", "Case4") and lam_star != lam_tilde:
        problems.append("%s: %s minimum not at the kink" % (where, label))
    return problems


def _speed_sweep(rng, base):
    import oracles

    calls = []
    for k, (model, lo_range, hi_range, n) in enumerate(SWEEPS):
        lo = rng.uniform(*lo_range)
        hi = rng.uniform(*hi_range)
        out = os.path.join(base, "sweep%d.csv" % k)
        grid = "%s:%s:%d" % (_num(lo), _num(hi), n)
        argv = ["sweep", "--model", model, "--r-grid", grid, "--out", out]

        def check(stdout, files, model=model, out=out, n=n):
            rows = [line.split(",") for line in files[out].decode().splitlines()[1:]]
            problems = [] if len(rows) == n else ["%d rows, expected %d" % (len(rows), n)]
            for r, lt, ls, cs, label, _ in rows:
                problems += _check_cstar(model, float(r), float(cs), float(ls), float(lt), label)
            return problems

        calls.append(Call("sweep %s %s" % (model, grid), argv, [out],
                          lambda stdout, files, out=out: len(files[out].splitlines()) - 1,
                          check))

    # the Case3 boundary j = (1+r) l^2 of the quadratic slab, reachable only exactly
    r = oracles.R_CRIT_QUAD
    out = os.path.join(base, "curve.csv")

    def check_curve(stdout, files, r=r, out=out):
        summary = json.loads(stdout)
        problems = _check_cstar("quadratic-1d", r, summary["c_star"], summary["lambda_star"],
                                summary["lambda_tilde"], summary["case_label"])
        if summary["case_label"] != "Case3":
            problems.append("speed-curve at r=%r is %s, not Case3" % (r, summary["case_label"]))
        c_star = summary["c_star"]
        for line in files[out].decode().splitlines()[1:]:
            lam, c, branch = line.split(",")
            lam, c = float(lam), float(c)
            if c < c_star * (1.0 - 1e-12):
                problems.append("curve point c(%r) = %r below c*" % (lam, c))
            if branch == "singular" and _rel(c, 1.0 - 1.0 / lam) > 1e-12:
                problems.append("singular branch c(%r) = %r, not 1 - 1/lambda" % (lam, c))
        return problems

    calls.append(Call("speed-curve quadratic-1d",
                      ["speed-curve", "--model", "quadratic-1d", "--r", _num(r), "--out", out],
                      [out], lambda stdout, files: 1, check_curve))
    return calls


# ------------------------------------------------------------------ spreading


def _spreading(rng, base):
    model_file = os.path.join(base, "diamond.model")
    with open(model_file, "w") as fh:
        fh.write(DIAMOND_FILE)
    theta = rng.uniform(0.3, 0.6)  # generic: off the axes and the diagonal
    runs = (
        ("diamond axis", ["--model-file", model_file, "--e", "1,0"], 0.0),
        ("diamond generic", ["--model-file", model_file,
                             "--e", "%s,%s" % (_num(math.cos(theta)), _num(math.sin(theta)))],
         theta),
        ("uniform-ball:2", ["--model", "uniform-ball:2"], None),
        ("uniform-ball:3", ["--model", "uniform-ball:3"], None),
        ("quadratic-1d", ["--model", "quadratic-1d"], None),
    )
    calls = []
    for label, model_args, theta in runs:
        # below r = 1, where the diamond's diagonal c* is not yet ballistic, and
        # narrow, since the point-radius root solve takes 13-19 Lagrangian
        # evaluations over r in [0.8, 0.9] and the diamond dominates the round
        r = rng.uniform(0.78, 0.82)
        out = os.path.join(base, label.replace(" ", "-").replace(":", "") + ".json")
        argv = ["spreading"] + model_args + ["--r", _num(r), "--t", SPREAD_TIMES, "--out", out]

        def work(stdout, files, out=out):
            entries = json.loads(files[out])["directions"]
            return sum(len(e["radii"]["planar"]) + len(e["radii"]["point"]) for e in entries)

        def check(stdout, files, label=label, r=r, theta=theta, out=out):
            import oracles

            (entry,) = json.loads(files[out])["directions"]
            c_star, w_star = entry["c_star"], entry["w_star"]
            problems = []
            if theta is None:
                ref = {"uniform-ball:2": oracles.disk_cstar, "uniform-ball:3": oracles.ball3_cstar,
                       "quadratic-1d": oracles.quad_cstar}[label](r)
                w_ref = ref  # 1-D and radial models spread at c* in every direction
            else:
                ref = oracles.diamond_cstar(theta, r)
                w_ref = oracles.diamond_wstar(theta, r)
            if _rel(c_star, ref) > CSTAR_RTOL:
                problems.append("%s: c* %r, oracle %r" % (label, c_star, ref))
            if _rel(w_star, w_ref) > WSTAR_RTOL:
                problems.append("%s: w* %r, oracle %r" % (label, w_star, w_ref))
            if w_star > c_star * (1.0 + WSTAR_RTOL):
                problems.append("%s: w* %r exceeds c* %r" % (label, w_star, c_star))
            for init, speed in (("planar", c_star), ("point", w_star)):
                radii = entry["radii"][init]
                per_t = [radii[t] / float(t) for t in SPREAD_TIMES.split(",")]
                if max(_rel(v, speed) for v in per_t) > RADIUS_RTOL:
                    problems.append("%s: %s radii / t %r, speed %r" % (label, init, per_t, speed))
                if max(per_t) - min(per_t) > 1e-12 * max(per_t):
                    problems.append("%s: %s radii not linear in t: %r" % (label, init, per_t))
            return problems

        calls.append(Call("spreading %s" % label, argv, [out], work, check))
    return calls


# --------------------------------------------------------------------- rounds

_BUILDERS = {"front-sim": _front_sim, "speed-sweep": _speed_sweep, "spreading": _spreading}


def round_calls(workload, seed, base):
    """The calls of one round; the same seed gives the same arguments."""
    return _BUILDERS[workload](random.Random(seed), base)


# warm-up calls, small versions of each workload's subcommands and models
WARMUP = {
    "front-sim": [
        ["simulate", "--model", "uniform-ball:2", "--r", "1", "--dx", "0.1", "--t-end", "1",
         "--length", "10", "--out", "{base}/warm"],
        ["simulate", "--model", "two-speed", "--r", "0.5", "--dx", "0.1", "--t-end", "1",
         "--length", "10", "--out", "{base}/warm"],
    ],
    "speed-sweep": [
        ["sweep", "--model", "quadratic-1d", "--r-grid", "0.2:1:2", "--out", "{base}/warm.csv"],
        ["sweep", "--model", "two-speed", "--r-grid", "0.5:1:2", "--out", "{base}/warm.csv"],
        ["speed-curve", "--model", "uniform-ball:3", "--r", "1", "--out", "{base}/warm.csv"],
    ],
    "spreading": [
        ["spreading", "--model", "two-speed", "--r", "1", "--t", "1", "--out", "{base}/warm.json"],
        ["spreading", "--model", "quadratic-1d", "--r", "1", "--t", "1", "--out",
         "{base}/warm.json"],
    ],
}
MODELS = {
    "front-sim": ("uniform-ball:2", "quadratic-1d", "two-speed"),
    "speed-sweep": ("uniform-1d", "quadratic-1d", "uniform-ball:2", "uniform-ball:3", "two-speed"),
    "spreading": ("uniform-ball:2", "uniform-ball:3", "quadratic-1d"),
}


def setup(workload, base):
    """Import kinfront, build the workload's models and run its warm-up calls.

    Returns the CLI entry module. Raises RuntimeError if a warm-up call fails.
    """
    import kinfront.cli as cli
    from kinfront.models import preset

    for name in MODELS[workload]:
        preset(name)
    if workload == "spreading":
        path = os.path.join(base, "diamond.model")
        with open(path, "w") as fh:
            fh.write(DIAMOND_FILE)
        cli.parse_model_file(path)
    for argv in WARMUP[workload]:
        argv = [a.replace("{base}", base) for a in argv]
        rc, _, err, _ = run_cli(cli, argv)
        if rc != 0:
            raise RuntimeError("warm-up %s exited %s: %s" % (" ".join(argv), rc, err.strip()))
    return cli


def run_cli(cli, argv):
    """Call the CLI in-process; returns (exit code, stdout, stderr, wall seconds)."""
    import contextlib
    import io
    import traceback
    from time import perf_counter

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a failed operation, not a crash
        rc = -1
        err.write(traceback.format_exc())
    wall = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), wall


def digest(stdout, files):
    h = hashlib.sha256(stdout.encode())
    for path in sorted(files):
        h.update(files[path])
    return h.hexdigest()
