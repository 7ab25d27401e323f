"""Batch command-line front end.

Modes: stat, calibrate, stationary, extrema, evolve, ssa, reproduce.
Parameters come from flags or a JSON config file (flags win).  Outputs are
a single self-describing JSON object; stat, calibrate, stationary and ssa
write CSV instead with ``--format csv`` (``n,probability`` rows plus
``# key=value`` moment footers, or ``key,value`` rows for calibrate).  Exit
codes: 0 success, 1 domain error (``ERROR <CODE>: message`` on stderr),
2 usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .core import (
    DiscreteDistribution,
    KineticParams,
    ReducedStatParams,
    moments,
)
from .errors import MegstatError
from . import birthdeath, multiplicity, ssa

KINETIC_FLAGS = ("k1A", "km1", "k2", "km2AV", "V")


class UsageError(Exception):
    pass


def _kinetic_params(args) -> KineticParams:
    for f in KINETIC_FLAGS:
        if getattr(args, f) is None:
            raise UsageError(f"missing required parameter --{f}")
    v = args.V
    # flags carry the natural rate groups k1*A and k_m2*A*V; store with A = 1
    return KineticParams(k1=args.k1A, k_m1=args.km1, k2=args.k2,
                         k_m2=args.km2AV / v, a=1.0, volume=v)


def _provenance(seed=None):
    prov = {"tool": "megstat", "version": __version__, "rng": ssa.RNG_NAME}
    if seed is not None:
        prov["seed"] = seed
    return prov


def _moment_dict(d: DiscreteDistribution) -> dict:
    m = moments(d)
    return {
        "mean": m.mean,
        "second_moment": m.second_moment,
        "variance": m.variance,
        "fano_factor": None if np.isnan(m.fano_factor) else m.fano_factor,
        "poisson_deviation": m.poisson_deviation,
        "exciton_yield": m.exciton_yield,
    }


def _dist_payload(d: DiscreteDistribution, params: dict, seed=None) -> dict:
    return {
        "support": [int(n) for n in d.support],
        "probs": [float(p) for p in d.probs],
        "moments": _moment_dict(d),
        "params": params,
        "provenance": _provenance(seed),
    }


# CSV rows are formatted this many at a time, so that a long law is never
# held as Python objects for every state at once
_CSV_ROWS = 512


def _emit(d: DiscreteDistribution, params: dict, args, seed=None) -> None:
    """Write a law as one JSON object, or as ``n,probability`` rows plus moment footers."""
    if args.format == "json":
        _emit_json_only(_dist_payload(d, params, seed), args)
        return
    footers = "".join(f"# {key}={val!r}\n" for key, val in sorted(_moment_dict(d).items()))

    def pieces():
        yield "n,probability\n"
        for lo in range(0, len(d.probs), _CSV_ROWS):
            ns = d.support[lo:lo + _CSV_ROWS].tolist()
            ps = d.probs[lo:lo + _CSV_ROWS].tolist()
            yield "".join(f"{n},{p!r}\n" for n, p in zip(ns, ps))
        yield footers

    _write(pieces(), args)


def _emit_json_only(payload, args):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)


def _write(text, args) -> None:
    """Write ``text``, one string or an iterable of strings, to --output or stdout."""
    pieces = (text,) if isinstance(text, str) else text
    if not args.output:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(args.output, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise UsageError(f"cannot write --output {args.output!r}: {exc.strerror}") from None


def _run_stat(args):
    if args.epsilon is None or args.g is None:
        raise UsageError("stat needs --epsilon and --g")
    if args.epsilon <= 1:
        raise UsageError("epsilon must exceed 1")
    params = ReducedStatParams(coupling=args.g, energy_ratio=args.epsilon)
    d = multiplicity.multiplicity_distribution(params)
    _emit(d, {"epsilon": args.epsilon, "g": args.g}, args)


def _run_calibrate(args):
    if args.epsilon is None or args.target_mean is None:
        raise UsageError("calibrate needs --epsilon and --target-mean")
    if args.epsilon <= 1:
        raise UsageError("epsilon must exceed 1")
    res = multiplicity.calibrate_coupling(args.epsilon, args.target_mean)
    payload = {
        "g": res.coupling,
        "achieved_mean": res.achieved_mean,
        "iterations": res.iterations,
        "bracket": list(res.bracket),
        "params": {"epsilon": args.epsilon, "target_mean": args.target_mean},
        "provenance": _provenance(),
    }
    if args.format == "csv":
        _write("key,value\n" + "".join(
            f"{k},{payload[k]!r}\n" for k in ("g", "achieved_mean", "iterations")), args)
    else:
        _emit_json_only(payload, args)


def _run_stationary(args):
    kp = _kinetic_params(args)
    d = birthdeath.stationary_distribution(kp, tail_tol=args.tail_tol)
    _emit(d, _kin_dict(args), args)


def _kin_dict(args):
    return {f: getattr(args, f) for f in KINETIC_FLAGS}


def _run_extrema(args):
    kp = _kinetic_params(args)
    rep = birthdeath.find_extrema(kp)
    payload = {
        "continuous_roots": list(rep.continuous_roots),
        "integer_maxima": list(rep.integer_maxima),
        "integer_minima": list(rep.integer_minima),
        "is_bimodal": rep.is_bimodal,
        "alt_closed_form_roots": list(rep.alt_closed_form_roots),
        "discrepancy_flag": rep.discrepancy_flag,
        "params": _kin_dict(args),
        "provenance": _provenance(),
    }
    _emit_json_only(payload, args)


def _run_evolve(args):
    kp = _kinetic_params(args)
    if not args.t_grid:
        raise UsageError("evolve needs --t-grid")
    try:
        t_grid = [float(t) for t in str(args.t_grid).split(",")]
    except ValueError:
        raise UsageError(f"--t-grid {args.t_grid!r} is not a comma-separated list of times") from None
    initial = DiscreteDistribution.from_probs([args.n_init], [1.0])
    dists = birthdeath.transient_evolve(kp, initial, t_grid, n_max=args.n_max)
    payload = {
        "t_grid": t_grid,
        "snapshots": [
            {"t": t, "support": [int(n) for n in d.support],
             "probs": [float(p) for p in d.probs],
             "mean": d.mean()}
            for t, d in zip(t_grid, dists)
        ],
        "params": _kin_dict(args),
        "provenance": _provenance(),
    }
    _emit_json_only(payload, args)


def _run_ssa(args):
    kp = _kinetic_params(args)
    d = ssa.stationary_histogram(kp, seed=args.seed, n_events=args.events,
                                 burn_in_fraction=args.burn_in)
    _emit(d, _kin_dict(args), args, seed=args.seed)


# pinned reproduction cases: photon-to-gap ratios with target mean and the
# reference moments they are checked against
_CASES = {
    "pbse-3.63": {"epsilon": 3.63, "m2_ref": 18.4, "m2_rtol": 0.05},
    "pbse-4.9": {"epsilon": 4.9, "mean_ref": 5.7, "mean_rtol": 0.10,
                 "m2_ref": 33.46, "m2_rtol": 0.10},
}
_CALIBRATION_EPSILON = 3.63
_CALIBRATION_TARGET_MEAN = 4.2


def _run_reproduce(args):
    if args.case not in _CASES:
        raise UsageError(
            f"unknown case {args.case!r}; choose from {sorted(_CASES)}")
    case = _CASES[args.case]
    res = multiplicity.calibrate_coupling(_CALIBRATION_EPSILON, _CALIBRATION_TARGET_MEAN)
    eps = case["epsilon"]
    d = multiplicity.multiplicity_distribution(
        ReducedStatParams(coupling=res.coupling, energy_ratio=eps))
    m = moments(d)
    base = moments(multiplicity.multiplicity_distribution(
        ReducedStatParams(coupling=res.coupling, energy_ratio=_CALIBRATION_EPSILON)))

    checks = {}
    checks["sub_poissonian"] = m.poisson_deviation > 0
    if "mean_ref" in case:
        checks["mean_within_tolerance"] = (
            abs(m.mean - case["mean_ref"]) <= case["mean_rtol"] * case["mean_ref"])
        checks["deviation_grows_with_photon_energy"] = (
            m.poisson_deviation > base.poisson_deviation)
    checks["second_moment_within_tolerance"] = (
        abs(m.second_moment - case["m2_ref"]) <= case["m2_rtol"] * case["m2_ref"])
    payload = {
        "case": args.case,
        "calibrated_g": res.coupling,
        "calibration": {"epsilon": _CALIBRATION_EPSILON,
                        "target_mean": _CALIBRATION_TARGET_MEAN,
                        "achieved_mean": res.achieved_mean},
        "epsilon": eps,
        "mean": m.mean,
        "second_moment": m.second_moment,
        "poisson_deviation": m.poisson_deviation,
        "exciton_yield": m.exciton_yield,
        "checks": checks,
        "passed": all(checks.values()),
        "provenance": _provenance(),
    }
    _emit_json_only(payload, args)
    return 0 if payload["passed"] else 1


_RUNNERS = {
    "stat": _run_stat,
    "calibrate": _run_calibrate,
    "stationary": _run_stationary,
    "extrema": _run_extrema,
    "evolve": _run_evolve,
    "ssa": _run_ssa,
    "reproduce": _run_reproduce,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every call of :func:`main`.

    Each ``parse_args`` returns a fresh namespace, and the config merge only
    reads the parser, so no state carries from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="megstat",
        description="Exciton-multiplicity statistics: statistical-theory law, "
                    "birth-death master equation, and exact stochastic simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode")

    def common(p, csv=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output", help="output path (default: stdout)")
        if csv:
            p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("stat", help="multiplicity law at given (epsilon, g)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--g", type=float)
    common(p)

    p = sub.add_parser("calibrate", help="fit g to a target mean multiplicity")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--target-mean", type=float, dest="target_mean")
    common(p)

    def kinetic(p):
        p.add_argument("--k1A", type=float, dest="k1A")
        p.add_argument("--km1", type=float, dest="km1")
        p.add_argument("--k2", type=float, dest="k2")
        p.add_argument("--km2AV", type=float, dest="km2AV")
        p.add_argument("--V", type=float, dest="V")

    p = sub.add_parser("stationary", help="stationary law of the birth-death chain")
    kinetic(p)
    p.add_argument("--tail-tol", type=float, dest="tail_tol")
    common(p)

    p = sub.add_parser("extrema", help="extremum/bimodality analysis")
    kinetic(p)
    common(p, csv=False)

    p = sub.add_parser("evolve", help="transient probability evolution")
    kinetic(p)
    p.add_argument("--t-grid", dest="t_grid", help="comma-separated output times")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--n-init", type=int, dest="n_init")
    common(p, csv=False)

    p = sub.add_parser("ssa", help="stochastic-simulation stationary histogram")
    kinetic(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--events", type=int)
    p.add_argument("--burn-in", type=float, dest="burn_in",
                   help="share of the events discarded before counting, in [0, 0.5] "
                        "(default 0.1)")
    common(p)

    p = sub.add_parser("reproduce", help="pinned reference-case reproduction")
    p.add_argument("--case", choices=sorted(_CASES))
    common(p, csv=False)

    return parser


def _apply_config(args, parser: argparse.ArgumentParser) -> None:
    """Fill unset args from the JSON config file; flags always win.

    The accepted keys are the mode's flags (dashes or underscores), save
    ``--config`` itself.  Each value is parsed as its flag's command-line
    text would be, with the flag's ``type`` and ``choices``.
    """
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {args.config!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    modes, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in modes.choices[args.mode]._actions
               if a.dest not in ("help", "config")}
    for raw_key, value in cfg.items():
        key = raw_key.replace("-", "_")
        if key == "mode":
            if value != args.mode:
                raise UsageError(
                    f"config mode {value!r} conflicts with requested mode {args.mode!r}")
            continue
        if key not in actions:
            raise UsageError(f"unknown config key {raw_key!r} for mode {args.mode!r}")
        if value is None or getattr(args, key, None) is not None:
            continue
        action, text = actions[key], str(value)
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            raise UsageError(
                f"config key {raw_key!r}: invalid {action.type.__name__} value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"config key {raw_key!r}: {value!r} is not one of {sorted(action.choices)}")
        setattr(args, key, value)


# hard defaults, applied only after the config merge so config values win
_DEFAULTS = {
    "format": "json",
    "tail_tol": 1e-12,
    "n_max": 200,
    "n_init": 0,
    "seed": 0,
    "events": 1_000_000,
    "burn_in": 0.1,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.mode is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _apply_config(args, parser)
        for key, val in _DEFAULTS.items():
            if getattr(args, key, False) is None:
                setattr(args, key, val)
        rc = _RUNNERS[args.mode](args)
        return 0 if rc is None else rc
    except UsageError as exc:
        print(f"ERROR USAGE: {exc}", file=sys.stderr)
        return 2
    except MegstatError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
