"""Command-line front end.

Subcommands:
  hamiltonian   table of H(p) values over a p grid or a single p
  sing          singular-set summary for a direction (l, j, boundary)
  speed-curve   sampled c(lambda, e) plus the minimum and case label
  spreading     c*, w* and Hopf-Lax null-set radii along directions
  simulate      direct kinetic front run cross-checked against c*
  sweep         minimal-speed summaries over a grid of growth rates

Models come from --model (a preset name) or --model-file (a flat
key = value text file, see parse_model_file). All tables are CSV with a
header row and 17-significant-digit values; summaries are JSON. Exit
codes: 0 ok, 2 bad configuration, 3 numerical failure, 4 simulation
left its domain.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__, dispersion, propagation
from .errors import (
    DomainError,
    FrontLeftDomain,
    QuadratureNotConverged,
    SolverNotConverged,
    ValidationError,
)
from .models import (
    Ball,
    DensityFamily,
    DiscreteSet,
    Interval,
    PRESET_NAMES,
    VelocityModel,
    _positive,
    _unit,
    j_integral,
    l_integral,
    preset,
)
from .sim import SimConfig, run_front_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_SIM = 4


def _fmt(x):
    return "%.17g" % float(x)


def parse_vector(text):
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ValidationError("cannot parse vector %r" % text)


def parse_grid(text):
    """lo:hi:n -> n evenly spaced values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("grid must be lo:hi:n, got %r" % text)
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError("cannot parse grid %r" % text)
    if n < 1:
        raise ValidationError("grid needs at least one point")
    return np.linspace(lo, hi, n)


def _file_number(key, text, kind=float):
    """A model-file value as a number of the given kind; ValidationError
    naming the key when it does not parse."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError("cannot parse %s = %r in model file" % (key, text))


def parse_model_file(path):
    """Build a model from a flat key = value file.

    Keys:
      support = interval | ball | discrete
      a, b                  interval endpoints
      radius, dim           ball parameters
      density = uniform | power | cosine
      k                     power-law exponent
      point = vx[,vy[,vz]] : weight     (discrete; repeatable)
      name                  optional label
    Lines starting with # are comments.
    """
    entries = []
    try:
        with open(path) as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(
                        "%s:%d: expected key = value" % (path, line_no)
                    )
                key, _, value = line.partition("=")
                entries.append((key.strip(), value.strip()))
    except OSError as exc:
        raise ValidationError("cannot read model file %s: %s" % (path, exc))

    fields = {}
    points = []
    for key, value in entries:
        if key == "point":
            head, sep, wtxt = value.partition(":")
            if not sep:
                raise ValidationError("point entries need 'coords : weight'")
            points.append((parse_vector(head.strip()), _file_number("point weight", wtxt.strip())))
        elif key in fields:
            raise ValidationError("duplicate key %r in model file" % key)
        else:
            fields[key] = value

    support_kind = fields.pop("support", None)
    if support_kind is None:
        raise ValidationError("model file needs a 'support' entry")
    name = fields.pop("name", None)

    if support_kind == "discrete":
        if fields:
            raise ValidationError(
                "unexpected keys for discrete support: %s" % ", ".join(sorted(fields))
            )
        if not points:
            raise ValidationError("discrete support needs point entries")
        if len({p.size for p, _ in points}) > 1:
            raise ValidationError("point entries must all have the same dimension")
        pts = np.array([p for p, _ in points])
        wts = np.array([w for _, w in points])
        return VelocityModel(DiscreteSet(pts, wts), None, name=name)

    density_name = fields.pop("density", None)
    if density_name is None:
        raise ValidationError("continuum support needs a 'density' entry")
    k = _file_number("k", fields.pop("k", 0.0))
    density = DensityFamily(density_name, k=k)
    if support_kind == "interval":
        a = _file_number("a", fields.pop("a", -1.0))
        b = _file_number("b", fields.pop("b", 1.0))
        support = Interval(a, b)
    elif support_kind == "ball":
        radius = _file_number("radius", fields.pop("radius", 1.0))
        dim = _file_number("dim", fields.pop("dim", 2), int)
        support = Ball(radius, dim)
    else:
        raise ValidationError("unknown support kind %r" % support_kind)
    if points:
        raise ValidationError("point entries are only valid for discrete support")
    if fields:
        raise ValidationError("unexpected keys: %s" % ", ".join(sorted(fields)))
    return VelocityModel(support, density, name=name)


def build_model(args):
    if args.model and args.model_file:
        raise ValidationError("--model and --model-file are mutually exclusive")
    if args.model:
        return preset(args.model)
    if args.model_file:
        return parse_model_file(args.model_file)
    raise ValidationError("a model is required (--model or --model-file)")


def _default_e(args, model):
    if args.e is not None:
        return _unit(model, parse_vector(args.e))
    return np.eye(model.dim)[0]


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def emit_json(payload, path=None):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [float(v) for v in x]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


# -- subcommands -------------------------------------------------------


def cmd_hamiltonian(args):
    model = build_model(args)
    if args.e is not None and args.p_grid is None:
        raise ValidationError("--e sets the direction of --p-grid and needs it")
    if args.p is not None:
        ps = [parse_vector(args.p)]
    elif args.p_grid is not None:
        e = _default_e(args, model)
        ps = [t * e for t in parse_grid(args.p_grid)]
    else:
        raise ValidationError("hamiltonian needs --p or --p-grid")
    header = ["p%d" % (i + 1) for i in range(model.dim)] + ["H", "regular", "dirac_weight"]
    rows = []
    for p in ps:
        res = dispersion.hamiltonian(model, p)
        rows.append(
            [_fmt(c) for c in np.atleast_1d(res.p)]
            + [_fmt(res.H), "true" if res.regular else "false", _fmt(res.dirac_weight)]
        )
    write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_sing(args):
    model = build_model(args)
    e = _default_e(args, model)
    payload = {
        "e": _jsonable(e),
        "l": _jsonable(l_integral(model, e)),
        "j": _jsonable(j_integral(model, e)),
        "boundary_radius": _jsonable(dispersion.singular_boundary_radius(model, e)),
    }
    if args.p is not None:
        p = parse_vector(args.p)
        payload["p"] = _jsonable(p)
        payload["in_singular_set"] = bool(dispersion.in_singular_set(model, p))
    emit_json(payload, args.out)
    return EXIT_OK


def cmd_speed_curve(args):
    model = build_model(args)
    e = _default_e(args, model)
    curve = dispersion.minimal_speed(model, args.r, e)
    summary = {
        "lambda_tilde": _jsonable(curve.lambda_tilde),
        "lambda_star": _jsonable(curve.lambda_star),
        "c_star": _jsonable(curve.c_star),
        "case_label": curve.case_label,
        "left_derivative": _jsonable(curve.left_derivative_at_tilde),
    }
    if args.out:
        rows = []
        for lam, c in zip(curve.lambda_grid, curve.c_values):
            branch = "singular" if lam >= curve.lambda_tilde else "regular"
            rows.append([_fmt(lam), _fmt(c), branch])
        write_csv(args.out, ["lambda", "c", "branch"], rows)
    emit_json(summary)
    return EXIT_OK


def cmd_spreading(args):
    model = build_model(args)
    if args.directions < 1:
        raise ValidationError("--directions must be at least 1")
    if args.directions > 1 and args.e is not None:
        raise ValidationError("--e and a --directions scan exclude each other")
    if args.directions > 1 and model.dim != 2:
        raise ValidationError(
            "direction scans need a 2-D model, not a %d-dimensional one" % model.dim
        )
    ts = parse_vector(args.t) if args.t is not None else [1.0]
    for t in ts:
        _positive(t, "time t")
    if args.directions > 1:
        angles = 2.0 * np.pi * np.arange(args.directions) / args.directions
        dirs = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    else:
        dirs = [_default_e(args, model)]
    report = []
    # on 1-D and continuum models L(q e0) is the planar conjugate along e0
    # at q, so w*(e0) is c*(e0) and the point null set is the planar one:
    # one speed and one root serve both
    planar_is_point = propagation._point_is_planar(model)
    for e0 in dirs:
        curve = dispersion.minimal_speed(model, args.r, e0, sample=False)
        c_star = curve.c_star
        # phi(t, x) = t phi(1, x/t): each radius is t times its value at t = 1;
        # c*, and lambda* for the planar sups, only narrow the planar brackets
        planar = propagation.nullset_radius(model, args.r, e0, 1.0, init="planar", speed=c_star,
                                            rate=curve.lambda_star)
        if planar_is_point:
            w_star, point = c_star, planar
        else:
            # on an atom set one root of L(q e0) gives the point radius and,
            # with c* on the candidate directions, the w* it certifies
            w_star, point = propagation._point_speeds(model, args.r, e0, c_star)
        entry = {"e0": _jsonable(e0), "c_star": _jsonable(c_star), "w_star": _jsonable(w_star)}
        entry["radii"] = {
            init: {_fmt(t): _jsonable(t * q) for t in ts}
            for init, q in (("planar", planar), ("point", point))
        }
        report.append(entry)
    emit_json({"r": args.r, "directions": report}, args.out)
    return EXIT_OK


def cmd_simulate(args):
    model = build_model(args)
    e = _default_e(args, model)
    if args.nv is not None and model.is_discrete:
        raise ValidationError("--nv sets the nodes of a continuum model; an atom set runs on its atoms")
    config = SimConfig(
        dx=args.dx,
        t_end=args.t_end,
        length=args.length,
        cfl=args.cfl,
        nv=SimConfig.nv if args.nv is None else args.nv,
        threshold=args.threshold,
        fit_fraction=args.fit_fraction,
        gamma=args.gamma,
    )
    trace = run_front_experiment(model, args.r, config, e=e)
    c_star = dispersion.minimal_speed(model, args.r, e, sample=False).c_star
    rel = abs(trace.fitted_speed - c_star) / abs(c_star) if c_star != 0 else np.inf
    summary = {
        "fitted_speed": _jsonable(trace.fitted_speed),
        "predicted_c_star": _jsonable(c_star),
        "relative_error": _jsonable(rel),
        "fit_window": [_jsonable(t) for t in trace.fit_window],
        "residual": _jsonable(trace.residual),
        "threshold_sensitivity": {
            _fmt(k): _jsonable(v) for k, v in sorted(trace.threshold_speeds.items())
        },
        "clamp_max": _jsonable(trace.clamp_max),
        "clamp_count": int(trace.clamp_count),
    }
    prefix = args.out or "run"
    write_csv(
        prefix + ".trace.csv",
        ["t", "front_x"],
        [
            [_fmt(t), _fmt(x)]
            for t, x in zip(trace.times, trace.front_positions)
        ],
    )
    state = trace.final_state
    header = ["x", "rho"] + ["f_v=%.6g" % v for v in state.v_nodes]
    fvals = state.f
    rho = state.rho
    xg = state.x_grid
    rows = [
        [_fmt(xg[i]), _fmt(rho[i])] + [_fmt(fvals[j, i]) for j in range(fvals.shape[0])]
        for i in range(xg.size)
    ]
    write_csv(prefix + ".snapshot.csv", header, rows)
    emit_json(summary, prefix + ".json")
    emit_json(summary)
    return EXIT_OK


def cmd_sweep(args):
    model = build_model(args)
    e = _default_e(args, model)
    rs = parse_grid(args.r_grid)
    # one batched solve; minimal_speeds gates every r before it
    rows = [
        [
            _fmt(r),
            _fmt(curve.lambda_tilde),
            _fmt(curve.lambda_star),
            _fmt(curve.c_star),
            curve.case_label,
            _fmt(curve.left_derivative_at_tilde)
            if curve.left_derivative_at_tilde is not None
            else "nan",
        ]
        for r, curve in zip(rs, dispersion.minimal_speeds(model, rs, e))
    ]
    write_csv(
        args.out,
        ["r", "lambda_tilde", "lambda_star", "c_star", "case_label", "left_derivative"],
        rows,
    )
    return EXIT_OK


# -- parser ------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kinfront",
        description="Spectral and simulation tools for kinetic front propagation.",
    )
    parser.add_argument("--version", action="version", version="kinfront " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_r=False):
        p.add_argument("--model", choices=PRESET_NAMES, help="preset model name")
        p.add_argument("--model-file", help="flat key = value model description")
        p.add_argument("--out", help="output path (CSV table or JSON)")
        if needs_r:
            p.add_argument("--r", type=float, required=True, help="growth rate r > 0")

    p = sub.add_parser("hamiltonian", help="evaluate H(p) on a grid or a point")
    common(p)
    freq = p.add_mutually_exclusive_group()
    freq.add_argument("--p", help="single frequency, comma-separated components")
    freq.add_argument("--p-grid", help="scalar grid lo:hi:n along --e")
    p.add_argument("--e", help="direction for --p-grid (default first axis)")
    p.set_defaults(func=cmd_hamiltonian)

    p = sub.add_parser("sing", help="singular-set summary in a direction")
    common(p)
    p.add_argument("--e", help="direction (default first axis)")
    p.add_argument("--p", help="optional frequency to test for membership")
    p.set_defaults(func=cmd_sing)

    p = sub.add_parser("speed-curve", help="speed curve, minimum and case label")
    common(p, needs_r=True)
    p.add_argument("--e", help="direction (default first axis)")
    p.set_defaults(func=cmd_speed_curve)

    p = sub.add_parser("spreading", help="c*, w* and null-set radii")
    common(p, needs_r=True)
    p.add_argument("--e", help="direction e0 (default first axis)")
    p.add_argument("--directions", type=int, default=1, help="scan this many 2-D directions")
    p.add_argument("--t", help="comma-separated times for radii (default 1)")
    p.set_defaults(func=cmd_spreading)

    p = sub.add_parser("simulate", help="direct kinetic front simulation")
    common(p, needs_r=True)
    p.add_argument("--e", help="front direction (default first axis)")
    p.add_argument("--t-end", type=float, default=60.0)
    p.add_argument("--dx", type=float, default=0.005)
    p.add_argument("--length", type=float, default=40.0)
    p.add_argument("--nv", type=int, help="velocity nodes of a continuum model (default 48)")
    p.add_argument("--cfl", type=float, default=0.9)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--fit-fraction", type=float, default=0.5)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="minimal-speed summaries over growth rates")
    common(p, needs_r=False)
    p.add_argument("--r-grid", required=True, help="growth-rate grid lo:hi:n")
    p.add_argument("--e", help="direction (default first axis)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureNotConverged, SolverNotConverged, DomainError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICS
    except FrontLeftDomain as exc:
        print("simulation failure: %s" % exc, file=sys.stderr)
        return EXIT_SIM
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
