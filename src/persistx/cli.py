"""Command-line interface.

Subcommands: simulate (Monte Carlo estimates), operator (discretized spectral
problem), oracle (closed forms), compare (cross-validate routes on one case),
sweep (convergence / monotonicity / continuity / full suite). All output is
canonical JSON with floats at 17 significant digits, so identical invocations
produce identical bytes. Exit codes: 0 success, 1 computation, validation or
I/O failure (a file that cannot be read or written), 2 usage error. Exit 1
prints one `error: <Type>: <message>` line for a model.PersistxError (every
error persistx raises for a run or a config it refuses), a ValueError or an
OSError; an output file whose directory is missing is refused before
anything is computed. Each command imports only the route it runs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import harness as harness_mod
from .harness import canonical_json
from .model import (
    INNOVATIONS,
    ARModel,
    Exponential,
    Gaussian,
    IIDInnovation,
    PersistxError,
    SurvivalConvention,
    initial_from_json,
    innovation_from_json,
    model_from_json,
)

COMPUTE_ERRORS = (PersistxError, ValueError, OSError)


def _parse_floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def parse_innovation(text):
    """Parse kind[:params], e.g. uniform:-1,1  gaussian:2  exponential.

    The parameters are the law's fields in model.INNOVATIONS, all or none
    (none keeps the defaults).
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    obj = {"kind": kind}
    if rest and kind in INNOVATIONS:
        names = [f.name for f in fields(INNOVATIONS[kind])]
        values = _parse_floats(rest)
        if len(values) != len(names):
            raise ValueError(f"{kind} takes {','.join(names) or 'no parameters'}, got {rest!r}")
        obj.update(zip(names, values))
    return innovation_from_json(obj)


def float_or_auto(text):
    """A --delta value: a float, or 'auto' for operator.default_delta."""
    return text if text == "auto" else float(text)


def parse_initial(text, innovation):
    """Build the initial law of iid | point:v1,... | stationary:a1 (_initial_json)."""
    return initial_from_json(_initial_json(text), innovation)


def _initial_json(text):
    """Map iid | point:v1,... | stationary:a1 onto a JSON initial law."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "iid":
        if rest.strip():
            raise ValueError(f"iid initial law takes no parameters, got {rest.strip()!r}")
        return {"kind": "iid"}
    if kind == "point":
        values = _parse_floats(rest)
        if not values:
            raise ValueError("point initial law needs values, e.g. point:0.0")
        return {"kind": "point_mass", "values": values}
    if kind == "stationary":
        params = _parse_floats(rest)
        if len(params) != 1:
            raise ValueError("stationary initial law takes one parameter, a1")
        return {"kind": "stationary_ar1_gaussian", "a1": params[0]}
    raise ValueError(f"unknown initial law {kind!r}")


def build_model(args):
    """The model of the model flags, built by model_from_json from their schema."""
    obj = {"process": args.process, "coeffs": _parse_floats(args.coeffs),
           "innovation": parse_innovation(args.innovation).to_json(),
           "convention": args.convention}
    if args.init is not None:
        # the schema refuses an MA model any initial law, so only AR reads the text
        obj["initial"] = _initial_json(args.init) if args.process == "ar" else args.init
    return model_from_json(obj)


def add_model_arguments(sub, process_required=True):
    sub.add_argument("--process", choices=["ar", "ma"], required=process_required)
    sub.add_argument("--coeffs", required=process_required,
                     help="comma-separated coefficients a_1,...")
    sub.add_argument("--innovation", default="gaussian:1",
                     help="kind[:params], e.g. uniform:-1,1 gaussian:1 exponential rademacher")
    sub.add_argument("--init",
                     help="AR initial law: iid (default) | point:v1,... | stationary:a1")
    sub.add_argument("--convention", choices=["ge", "gt"], default="ge",
                     help="survival event Z >= 0 (ge) or Z > 0 (gt)")


def _check_outputs(args):
    """Refuse, before anything is computed, an output file whose directory is
    missing or not a directory: the error open() would raise after the run."""
    for path in (getattr(args, flag, None) for flag in ("out", "csv", "eigenfunction")):
        parent = Path(path).parent if path else None
        if parent is not None and not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), path)


def _emit(payload, out):
    text = canonical_json(payload)
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_simulate(args):
    model = build_model(args)
    if args.horizons:
        # counts as in a config, checked by the estimate: 1e1 is 10, 2.5 a named error
        horizons = _parse_floats(args.horizons)
    else:
        horizons = list(range(0, args.n + 1))
    mc = {"method": args.method, "horizons": horizons, "replicates": args.reps,
          "particles": args.particles, "threads": args.threads}
    if args.window:
        try:
            mc["window"] = tuple(int(i) for i in args.window.split(":"))
        except ValueError:
            raise ValueError(f"fit window {args.window!r} is not two integers i0:i1") from None
    t0 = time.perf_counter()
    est = harness_mod.run_mc(model, mc, args.seed)
    wall = time.perf_counter() - t0
    payload = {"model": model.to_json(), "estimate": est.to_json(), "seed": args.seed}
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,p_hat,se\n")
            for j, n in enumerate(est.horizons):
                fh.write("%d,%s,%s\n" % (n, harness_mod.format_float(est.p_hat[j]),
                                         harness_mod.format_float(est.se[j])))
        payload["csv"] = args.csv
    _emit(payload, args.out)
    sys.stderr.write("wall_time_s=%.3f\n" % wall)
    return 0


def cmd_operator(args):
    from . import operator as operator_mod

    model = build_model(args)
    if args.eigenfunction and model.order != 1:
        raise ValueError("--eigenfunction output requires a one-dimensional grid")
    res = operator_mod.solve_operator(model, m=args.M, n=args.N, delta=args.delta)
    payload = {"model": model.to_json(), "result": res.to_json()}
    if args.eigenfunction:
        with open(args.eigenfunction, "w") as fh:
            fh.write("x,psi\n")
            for x, v in zip(res.grid.nodes, res.psi):
                fh.write("%s,%s\n" % (harness_mod.format_float(x),
                                      harness_mod.format_float(v)))
        payload["eigenfunction_csv"] = args.eigenfunction
    _emit(payload, args.out)
    return 0


# the oracle cases that read --n and --initial; any other case refuses them
_ORACLE_FLAG_READERS = {
    "n": ("ar1-exponential", "rademacher", "degenerate-ma"),
    "initial": ("ar1-exponential",),
}


def cmd_oracle(args):
    from . import oracle as oracle_mod

    convention = SurvivalConvention(args.convention)
    case = args.case
    for flag, readers in _ORACLE_FLAG_READERS.items():
        if getattr(args, flag) is not None and case not in readers:
            raise ValueError(f"oracle case {case!r} does not read --{flag}; "
                             f"it is read by {', '.join(readers)}")
    if args.n is not None and args.n < 0:
        raise ValueError(f"--n must be a nonnegative horizon, got {args.n}")
    payload = {"case": case}
    if case == "ar1-uniform":
        payload["parameters"] = {"a": args.a, "b": args.b}
        payload["exponent"] = oracle_mod.ar1_uniform_exponent(args.a, args.b)
    elif case == "ar1-exponential":
        payload["parameters"] = {"a1": args.a1}
        payload["exponent"] = oracle_mod.ar1_exponential_exponent(args.a1)
        if (args.n is None) != (args.initial is None):
            missing = "--initial" if args.initial is None else "--n"
            raise ValueError(f"ar1-exponential p_n needs {missing} as well")
        if args.n is not None:
            initial = parse_initial(args.initial, Exponential())
            payload["pn"] = [
                {"n": n, "p": oracle_mod.ar1_exponential_pn(args.a1, n, initial)}
                for n in range(1, args.n + 1)
            ]
    elif case == "ma1-uniform":
        payload["parameters"] = {"a": args.a, "b": args.b}
        payload["exponent"] = oracle_mod.ma1_uniform_exponent(args.a, args.b)
    elif case == "ma1-symmetric":
        payload["parameters"] = {"c": args.c, "terms": args.terms}
        payload["exponent"] = oracle_mod.ma1_symmetric_exponent()
        payload["series_value"] = oracle_mod.ma1_symmetric_series(args.c, args.terms)
    elif case == "rademacher":
        payload["parameters"] = {"convention": convention.value}
        payload["exponent"] = oracle_mod.rademacher_exponent(convention)
        if args.n is not None:
            payload["pn"] = [
                {"n": n, "p": oracle_mod.rademacher_pn(n, convention)}
                for n in range(0, args.n + 1)
            ]
    elif case == "ma1-exponential":
        payload["parameters"] = {"a1": args.a1}
        payload["exponent"] = oracle_mod.ma1_exponential_exponent(args.a1)
    elif case == "degenerate-ma":
        payload["parameters"] = {}
        n_max = 6 if args.n is None else args.n
        payload["pn"] = [
            {"n": n, "p": oracle_mod.degenerate_factorial_pn(n)} for n in range(0, n_max + 1)
        ]
    elif case == "supercritical-ar":
        coeffs = _parse_floats(args.coeffs)
        # the regime reads only the coefficients, so any law will do
        regime = oracle_mod.classify_regime(ARModel(coeffs, Gaussian(), IIDInnovation()))
        if regime["regime"] != "supercritical":
            raise ValueError(f"supercritical-ar needs a >= 0 with sum(a) > 1; "
                             f"coefficients {coeffs} are in the {regime['regime']} regime")
        payload["parameters"] = {"coeffs": coeffs}
        payload["exponent"] = regime["exponent"]
        payload["characteristic_root"] = regime["characteristic_root"]
    elif case == "iid":
        innovation = parse_innovation(args.innovation)
        payload["parameters"] = {"innovation": innovation.to_json()}
        payload["exponent"] = oracle_mod.iid_exponent(innovation)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown oracle case {case!r}")
    _emit(payload, args.out)
    return 0


def cmd_compare(args):
    if args.config:
        case = harness_mod.load_config(args.config)
    else:
        model = build_model(args)
        case = model.to_json()
        case["seed"] = args.seed
        mc = {"method": args.method}
        if args.method == "crude":
            mc["replicates"] = args.reps
        elif args.method == "splitting":
            mc["particles"] = args.particles
        case["mc"] = mc
        case["operator"] = {"N": args.N}
        if args.M is not None:
            case["operator"]["M"] = args.M
        if args.delta != 0.0:
            case["operator"]["delta"] = args.delta
    report = harness_mod.compare(case)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_sweep(args):
    if args.kind == "suite":
        if not args.config:
            raise ValueError("sweep --kind suite requires --config")
        result = harness_mod.run_suite(args.config, args.out_dir or "suite-out",
                                       threads=args.threads)
        payload = {
            "cases": [
                {"name": r["name"], "type": r["type"], "passed": bool(r["passed"]),
                 **({"error": r["error"]} if "error" in r else {})}
                for r in result.records
            ],
            "any_failed": result.any_failed,
            "out_dir": result.out_dir,
        }
        _emit(payload, args.out)
        return 1 if result.any_failed else 0

    model = build_model(args)
    if args.kind == "convergence":
        from . import operator as operator_mod

        ms = _parse_floats(args.Ms) if args.Ms else None
        ns = _parse_floats(args.Ns) if args.Ns else None
        if ms is None or ns is None:
            raise ValueError("sweep --kind convergence requires --Ms and --Ns")
        result = operator_mod.convergence_sweep(model, ms, ns, delta=args.delta)
        _emit(result, args.out)
        return 0
    if args.kind == "monotonicity":
        if not args.coeff_grid:
            raise ValueError("sweep --kind monotonicity requires --coeff-grid")
        grid = [_parse_floats(tok) for tok in args.coeff_grid.split(";")]
        result = harness_mod.monotonicity_sweep(model, grid, m=args.M, n=args.N,
                                                delta=args.delta)
        _emit(result, args.out)
        return 0 if result["passed"] else 1
    if args.kind == "continuity":
        if not (args.path and args.target):
            raise ValueError("sweep --kind continuity requires --path and --target")
        path = [_parse_floats(tok) for tok in args.path.split(";")]
        target = _parse_floats(args.target)
        result = harness_mod.continuity_sweep(model, path, target, m=args.M,
                                              n=args.N, delta=args.delta)
        _emit(result, args.out)
        return 0 if result["passed"] else 1
    raise ValueError(f"unknown sweep kind {args.kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="persistx",
        description="Persistence exponents of AR and MA processes: "
                    "Monte Carlo, operator discretization, closed forms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="Monte Carlo persistence estimates")
    add_model_arguments(p)
    p.add_argument("--method", choices=["crude", "splitting"], default="crude")
    p.add_argument("--n", type=int, default=16, help="estimate p_0..p_n")
    p.add_argument("--horizons", help="explicit comma-separated horizons")
    p.add_argument("--reps", type=int, default=100000)
    p.add_argument("--particles", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", help="fit window i0:i1 over the horizon list")
    p.add_argument("--threads", type=int)
    p.add_argument("--out", help="write the JSON payload to this file as well")
    p.add_argument("--csv", help="write an n,p_hat,se table to this file")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("operator", help="discretized persistence operator")
    add_model_arguments(p)
    p.add_argument("--M", type=float, help="state truncation (default: innovation tails)")
    p.add_argument("--N", type=int, default=400, help="nodes per axis")
    p.add_argument("--delta", type=float_or_auto, default="0",
                   help="AR tilt rate, a float or 'auto'")
    p.add_argument("--eigenfunction", help="write x,psi CSV (1D grids only)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_operator)

    p = subs.add_parser("oracle", help="closed-form exponents and probabilities")
    p.add_argument("--case", required=True,
                   choices=["ar1-uniform", "ar1-exponential", "ma1-uniform",
                            "ma1-symmetric", "rademacher", "ma1-exponential",
                            "degenerate-ma", "supercritical-ar", "iid"])
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--a1", type=float, default=-0.5)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--terms", type=int, default=200)
    p.add_argument("--n", type=int)
    p.add_argument("--convention", choices=["ge", "gt"], default="ge")
    p.add_argument("--coeffs", default="1.2")
    p.add_argument("--innovation", default="gaussian:1")
    p.add_argument("--initial", help="ar1-exponential initial law, e.g. point:0 or iid")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("compare", help="cross-validate the routes on one case")
    add_model_arguments(p, process_required=False)
    p.add_argument("--config", help="JSON case file (overrides model flags)")
    p.add_argument("--method", choices=["crude", "splitting", "none"], default="crude")
    p.add_argument("--reps", type=int, default=200000)
    p.add_argument("--particles", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--M", type=float)
    p.add_argument("--N", type=int, default=400)
    p.add_argument("--delta", type=float_or_auto, default="0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("sweep", help="convergence, monotonicity, continuity, suite")
    add_model_arguments(p, process_required=False)
    p.add_argument("--kind", required=True,
                   choices=["convergence", "monotonicity", "continuity", "suite"])
    p.add_argument("--Ms", help="comma-separated truncations")
    p.add_argument("--Ns", help="comma-separated node counts")
    p.add_argument("--coeff-grid", help="semicolon-separated coefficient vectors")
    p.add_argument("--path", help="semicolon-separated coefficient vectors")
    p.add_argument("--target", help="target coefficient vector")
    p.add_argument("--M", type=float)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--delta", type=float_or_auto, default="0")
    p.add_argument("--config", help="suite JSON config")
    p.add_argument("--out-dir", help="suite report directory")
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command in ("compare", "sweep") and not args.config
            and not (args.command == "sweep" and args.kind == "suite")
            and (args.process is None or args.coeffs is None)):
        parser.error(f"{args.command} requires --process and --coeffs")
    try:
        _check_outputs(args)
        return args.func(args)
    except COMPUTE_ERRORS as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
