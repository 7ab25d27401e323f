"""Batch command-line front end.

Modes: stat, calibrate, stationary, extrema, evolve, ssa, reproduce.
argparse reads all input: a JSON config file (``--config``) of flag names
(dashes or underscores) and values becomes ``--key=value`` flags right after
the mode, so the command line wins.  Outputs are a single self-describing JSON
object; stat, calibrate, stationary and ssa write CSV instead with ``--format
csv`` (``n,probability`` rows plus ``# key=value`` moment footers, or
``key,value`` rows for calibrate).  Exit codes: 0 success, 1 domain error
(``ERROR <CODE>: message`` on stderr), 2 usage error (``ERROR USAGE: message``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

import numpy as np

from . import __version__
from .core import (
    DiscreteDistribution,
    KineticParams,
    ReducedStatParams,
    moments,
)
from .errors import DomainError, MegstatError
from . import birthdeath, multiplicity, ssa

KINETIC_FLAGS = ("k1A", "km1", "k2", "km2AV", "V")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser that refuses abbreviated flags and raises :class:`UsageError`."""

    def __init__(self, **kw):
        super().__init__(allow_abbrev=False, **kw)

    def error(self, message):
        raise UsageError(message)


def _epsilon(text: str) -> float:
    try:
        eps = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if eps <= 1:
        raise argparse.ArgumentTypeError("epsilon must exceed 1")
    return eps


def _times(text: str) -> list:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of times") from None


def _kinetic_params(args) -> KineticParams:
    v = args.V
    if v == 0:   # before the division below
        raise DomainError("volume must be finite and strictly positive")
    # flags carry the natural rate groups k1*A and k_m2*A*V; store with A = 1
    return KineticParams(k1=args.k1A, k_m1=args.km1, k2=args.k2,
                         k_m2=args.km2AV / v, a=1.0, volume=v)


def _moment_dict(d: DiscreteDistribution) -> dict:
    moms = dict(vars(moments(d)))
    if np.isnan(moms["fano_factor"]):
        moms["fano_factor"] = None   # the mean is 0; JSON has no NaN
    return moms


def _law(d: DiscreteDistribution, params: dict) -> tuple:
    """A law's payload, its ``n,probability`` table and its moment footers."""
    moms = _moment_dict(d)
    payload = {"support": d.support, "probs": d.probs, "moments": moms, "params": params}
    return payload, ("n,probability", d.support, d.probs), moms


# CSV rows are formatted this many at a time, so that a long law is never
# held as Python objects for every state at once
_CSV_ROWS = 512


def _emit(args, payload: dict, table=None, footers=None) -> None:
    """Write a run's result to --output or stdout; the only place output is formatted.

    JSON (the default) is ``payload`` plus its provenance, keys sorted, with
    numpy arrays written as lists.  With ``--format csv`` it is ``table``, a
    ``(header, keys, values)`` triple of equal-length arrays written as
    ``key,repr(value)`` rows, then ``# name=repr(value)`` lines for
    ``footers`` in name order.

    An existing ``--output`` file is overwritten in place from its start and
    then trimmed to the bytes written, never truncated on open: on ext4,
    truncating a non-empty file frees its blocks through the journal and
    forces a flush on close, ~0.1 ms per write on a shared 2-vCPU x86-64
    host.  Only a regular file is trimmed, so ``/dev/null`` and pipes work
    as before.  After a failed write (exit 2) the file's content is
    unspecified.
    """
    if getattr(args, "format", None) == "csv":
        header, keys, values = table

        def pieces():
            yield header + "\n"
            for lo in range(0, len(keys), _CSV_ROWS):
                rows = zip(keys[lo:lo + _CSV_ROWS].tolist(), values[lo:lo + _CSV_ROWS].tolist())
                yield "".join(f"{k},{v!r}\n" for k, v in rows)
            yield "".join(f"# {k}={v!r}\n" for k, v in sorted((footers or {}).items()))

        text = pieces()
    else:
        prov = {"tool": "megstat", "version": __version__, "rng": ssa.RNG_NAME}
        if getattr(args, "seed", None) is not None:
            prov["seed"] = args.seed
        payload = {**payload, "provenance": prov}
        # arrays become lists only here, so a CSV run never builds them
        text = (json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n",)
    if not args.output:
        sys.stdout.writelines(text)
        return
    try:
        # the mode open(path, "w") gives; the umask applies
        with open(os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.writelines(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise UsageError(f"cannot write --output {args.output!r}: {exc.strerror}") from None


def _run_stat(args):
    params = ReducedStatParams(coupling=args.g, energy_ratio=args.epsilon)
    d = multiplicity.multiplicity_distribution(params)
    _emit(args, *_law(d, {"epsilon": args.epsilon, "g": args.g}))


def _run_calibrate(args):
    res = multiplicity.calibrate_coupling(args.epsilon, args.target_mean)
    payload = {
        "g": res.coupling,
        "achieved_mean": res.achieved_mean,
        "iterations": res.iterations,
        "bracket": res.bracket,
        "params": {"epsilon": args.epsilon, "target_mean": args.target_mean},
    }
    rows = ("g", "achieved_mean", "iterations")
    # object dtype keeps each value as it is: the iteration count stays an int
    values = np.array([payload[k] for k in rows], dtype=object)
    _emit(args, payload, ("key,value", np.array(rows), values))


def _run_stationary(args):
    kp = _kinetic_params(args)
    d = birthdeath.stationary_distribution(kp, tail_tol=args.tail_tol)
    _emit(args, *_law(d, _kin_dict(args)))


def _kin_dict(args):
    return {f: getattr(args, f) for f in KINETIC_FLAGS}


def _run_extrema(args):
    kp = _kinetic_params(args)
    rep = birthdeath.find_extrema(kp)
    _emit(args, {**vars(rep), "params": _kin_dict(args)})


def _run_evolve(args):
    kp, t_grid = _kinetic_params(args), args.t_grid
    initial = DiscreteDistribution.from_probs([args.n_init], [1.0])
    dists = birthdeath.transient_evolve(kp, initial, t_grid, n_max=args.n_max)
    snapshots = [{"t": t, "support": d.support, "probs": d.probs, "mean": d.mean()}
                 for t, d in zip(t_grid, dists)]
    _emit(args, {"t_grid": t_grid, "snapshots": snapshots, "params": _kin_dict(args)})


def _run_ssa(args):
    kp = _kinetic_params(args)
    d = ssa.stationary_histogram(kp, seed=args.seed, n_events=args.events,
                                 burn_in_fraction=args.burn_in)
    _emit(args, *_law(d, _kin_dict(args)))


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
    }
    _emit(args, payload)
    return 0 if payload["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every call of :func:`main`.

    Each ``parse_args`` returns a fresh namespace, so no state carries from
    one call to the next.
    """
    parser = _Parser(
        prog="megstat",
        description="Exciton-multiplicity statistics: statistical-theory law, "
                    "birth-death master equation, and exact stochastic simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p, run, csv=True):
        p.add_argument("--config", help="JSON config file of flag values; flags override it")
        p.add_argument("--output", help="output path (default: stdout)")
        if csv:
            p.add_argument("--format", choices=("csv", "json"), default="json")
        p.set_defaults(run=run)

    p = sub.add_parser("stat", help="multiplicity law at given (epsilon, g)")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--g", type=float, required=True)
    common(p, _run_stat)

    p = sub.add_parser("calibrate", help="fit g to a target mean multiplicity")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--target-mean", type=float, required=True)
    common(p, _run_calibrate)

    def kinetic(p):
        for flag in KINETIC_FLAGS:
            p.add_argument(f"--{flag}", type=float, required=True)

    p = sub.add_parser("stationary", help="stationary law of the birth-death chain")
    kinetic(p)
    p.add_argument("--tail-tol", type=float, default=1e-12)
    common(p, _run_stationary)

    p = sub.add_parser("extrema", help="extremum/bimodality analysis")
    kinetic(p)
    common(p, _run_extrema, csv=False)

    p = sub.add_parser("evolve", help="transient probability evolution")
    kinetic(p)
    p.add_argument("--t-grid", type=_times, required=True, help="comma-separated output times")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--n-init", type=int, default=0)
    common(p, _run_evolve, csv=False)

    p = sub.add_parser("ssa", help="stochastic-simulation stationary histogram")
    kinetic(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=1_000_000,
                   help="jump-chain events to walk, in [10^4, 10^9] (default 10^6)")
    p.add_argument("--burn-in", type=float, default=0.1,
                   help="share of the events discarded before counting, in [0, 0.5] "
                        "(default 0.1)")
    common(p, _run_ssa)

    p = sub.add_parser("reproduce", help="pinned reference-case reproduction")
    p.add_argument("--case", choices=sorted(_CASES), required=True)
    common(p, _run_reproduce, csv=False)

    return parser


def _config_flags(argv: list) -> list:
    """argv with its --config file's entries put in as ``--key=value`` flags right after the mode.

    The file is found by a plain scan of argv, not by a parse, because
    :func:`main` runs in process once per command.  A ``null`` value is
    skipped, and a ``mode`` entry must name the mode being run.
    """
    path = None
    for i, arg in enumerate(argv):
        if arg.startswith("--config="):
            path = arg[len("--config="):]
        elif arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
    if path is None:
        return argv
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    at = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), 0)   # the mode
    if cfg.get("mode", argv[at]) != argv[at]:
        raise UsageError(f"config mode {cfg['mode']!r} conflicts with requested mode {argv[at]!r}")
    if any(key.replace("-", "_") == "config" for key in cfg):
        raise UsageError("a config file cannot set --config")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in cfg.items()
             if key != "mode" and value is not None]
    return [*argv[:at + 1], *flags, *argv[at + 1:]]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_config_flags(sys.argv[1:] if argv is None else argv))
        rc = args.run(args)
        return 0 if rc is None else rc
    except UsageError as exc:
        print(f"ERROR USAGE: {exc}", file=sys.stderr)
        return 2
    except MegstatError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
