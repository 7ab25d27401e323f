"""The benchmark's four workloads: seeded inputs, the timed operation and its checks.

Each workload builds a fixed list of inputs from the seed.  ``run`` is the
timed operation and calls megstat only through its public modules.
``check`` returns a list of problems (empty when the output is right) and
compares the output with :mod:`oracles` or with a property the method must
have, never with a stored copy of megstat's output.  ``fingerprint`` lets
later passes confirm they reproduce the checked first pass bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

import oracles
from megstat import birthdeath, cli, core, multiplicity, ssa

OUT_DIR = Path(__file__).resolve().parent / "out"


class Strata:
    """Stratified (Latin-hypercube) draws of one parameter at a time for ``n`` inputs.

    Each parameter's range is cut into ``n`` equal strata (in log space for
    log-uniform ones).  Input i takes stratum ``perm[i]`` of a permutation
    that is the same for every seed, and the seed only places the value
    inside its stratum.  So every seed gets the same mix of cheap and costly
    inputs.  With plain random draws, a cost model of the stat-calibrate
    inputs (linear in eps) spread 20% in total and 21% in p90 between seeds;
    stratified, 0.2% and 3%.
    """

    def __init__(self, rng, n):
        self.rng, self.n = rng, n
        self._layout = np.random.default_rng(0)

    def uniform(self, lo, hi) -> list[float]:
        u = (self._layout.permutation(self.n) + self.rng.uniform(size=self.n)) / self.n
        return (lo + (hi - lo) * u).tolist()

    def log_uniform(self, lo, hi) -> list[float]:
        return [math.exp(x) for x in self.uniform(math.log(lo), math.log(hi))]


def _digest(*parts) -> bytes:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _kinetic_params(rates: dict) -> core.KineticParams:
    # the CLI's convention: rate groups k1*A and k_m2*A*V, stored with A = 1
    return core.KineticParams(k1=rates["k1A"], k_m1=rates["km1"], k2=rates["k2"],
                              k_m2=rates["km2AV"] / rates["V"], a=1.0, volume=rates["V"])


class StatCalibrate:
    """Calibrate g to a target mean, then the multiplicity law at eps and at a higher eps."""

    name = "stat-calibrate"
    n_inputs = 100
    PBSE = (3.63, 4.2, 4.9)   # the paper's PbSe points: calibrate at 3.63, predict at 4.9

    def inputs(self, rng):
        s = Strata(rng, self.n_inputs - 1)
        out = [self.PBSE]
        for eps, frac in zip(s.log_uniform(3.6, 1000.0), s.uniform(0.05, 0.6)):
            top = 2 * math.ceil(eps) - 2          # largest open channel
            out.append((eps, 2.0 + frac * (top - 2), eps * self.PBSE[2] / self.PBSE[0]))
        return out

    def warmup_input(self):
        return self.PBSE

    def run(self, inp):
        eps, target, eps_hi = inp
        res = multiplicity.calibrate_coupling(eps, target)
        laws = [multiplicity.multiplicity_distribution(core.ReducedStatParams(res.coupling, e))
                for e in (eps, eps_hi)]
        return res, laws, [core.moments(d) for d in laws]

    def check(self, inp, out):
        eps, target, eps_hi = inp
        res, laws, moms = out
        errs = []
        deviations = []
        for e, d, m in zip((eps, eps_hi), laws, moms):
            support, ref = oracles.multiplicity_law(e, res.coupling)
            if not (np.array_equal(d.support, support)
                    and np.allclose(d.probs, ref, rtol=1e-9, atol=1e-15)):
                errs.append(f"law at eps={e!r} differs from the closed form")
            mean, second = float(support @ ref), float(support ** 2 @ ref)
            if not (math.isclose(m.mean, mean, rel_tol=1e-9)
                    and math.isclose(m.second_moment, second, rel_tol=1e-9)):
                errs.append(f"moments at eps={e!r} differ from the closed-form law's")
            deviations.append(m.poisson_deviation)
        oracle_mean = float(np.dot(*oracles.multiplicity_law(eps, res.coupling)))
        if not (abs(res.achieved_mean - target) <= 1e-6
                and abs(oracle_mean - target) <= 1e-6 + 1e-9 * target):
            errs.append(f"calibrated mean {oracle_mean!r} misses target {target!r}")
        if not 0 < deviations[0] < deviations[1]:
            errs.append(f"Poisson deviations {deviations} not positive and growing with eps")
        if inp == self.PBSE:
            if abs(moms[0].second_moment - 18.4) > 0.05 * 18.4:
                errs.append(f"PbSe <n^2> at 3.63 is {moms[0].second_moment!r}, not 18.4 +- 5%")
            if abs(moms[1].mean - 5.7) > 0.10 * 5.7:
                errs.append(f"PbSe mean at 4.9 is {moms[1].mean!r}, not 5.7 +- 10%")
        return errs

    def fingerprint(self, out):
        res, laws, moms = out
        return _digest(res, *(d.probs.tobytes() for d in laws), moms)


class KineticStationary:
    """``megstat stationary`` (CSV) then ``megstat extrema`` (JSON), run in-process."""

    name = "kinetic-stationary"
    n_inputs = 201                              # 67 of each family

    def __init__(self):
        # a directory of this process's own, so that runs at the same time
        # do not overwrite each other's files; removed when the process ends
        self._dir = tempfile.TemporaryDirectory(prefix=f"{self.name}-{os.getpid()}-", dir=OUT_DIR)
        self.law_path = Path(self._dir.name) / "stationary.csv"
        self.extrema_path = Path(self._dir.name) / "extrema.json"

    def inputs(self, rng):
        families = []
        for family in ("generic", "detailed-balance", "no-impact-recombination"):
            s = Strata(rng, self.n_inputs // 3)
            # V and the macroscopic concentration xbar = n/V set the law's size
            sizes = zip(s.log_uniform(1.0, 300.0), s.log_uniform(0.5, 30.0), s.log_uniform(0.3, 3.0))
            if family == "generic":
                # per-capita death k2 + km1 xbar = k2 (1 + phi) at the fixed point
                # xbar; a share beta of it is balanced by spontaneous birth km2A,
                # the rest by k1A.  Small beta with k1A > k2 gives the bimodal
                # laws of small V.
                rows = [dict(k1A=k2 * (1 + phi) * (1 - beta), km1=k2 * phi / xbar, k2=k2,
                             km2AV=k2 * (1 + phi) * beta * xbar * v, V=v)
                        for (v, xbar, k2), phi, beta
                        in zip(sizes, s.log_uniform(0.1, 10.0), s.log_uniform(1e-3, 0.9))]
            elif family == "detailed-balance":   # k1A/km1 = km2A/k2 = xbar: Poisson(xbar V)
                rows = [dict(k1A=xbar * km1, km1=km1, k2=k2, km2AV=xbar * k2 * v, V=v)
                        for (v, xbar, k2), km1 in zip(sizes, s.log_uniform(0.05, 1.0))]
            else:                                # km1 = 0: negative binomial
                rows = [dict(k1A=rho * k2, km1=0.0, k2=k2, km2AV=xbar * v * k2 * (1 - rho), V=v)
                        for (v, xbar, k2), rho in zip(sizes, s.uniform(0.1, 0.8))]
            families.append([dict(row, family=family) for row in rows])
        return [row for triple in zip(*families) for row in triple]

    def warmup_input(self):
        # the README's bimodal example
        return dict(family="generic", k1A=5.0, km1=0.3, k2=2.0, km2AV=0.1, V=1.0)

    def run(self, inp):
        flags = []
        for key in ("k1A", "km1", "k2", "km2AV", "V"):
            flags += [f"--{key}", repr(inp[key])]
        rcs = (cli.main(["stationary", *flags, "--format", "csv", "--output", str(self.law_path)]),
               cli.main(["extrema", *flags, "--output", str(self.extrema_path)]))
        if rcs != (0, 0):
            raise RuntimeError(f"megstat exit codes {rcs}")
        return None

    def check(self, inp, out):
        support, p = self._read_law()
        if not np.array_equal(support, np.arange(len(support))):
            return ["stationary support is not 0..N"]
        with open(self.extrema_path) as fh:
            extrema = json.load(fh)
        errs = []
        top = len(p) - 1
        logw = oracles.product_log_weights(inp, 2 * top + 200)
        full = oracles.normalize_log(logw)
        if not full[top + 1:].sum() <= 1e-12:
            errs.append(f"dropped tail mass {full[top + 1:].sum():.3e} exceeds tail_tol 1e-12")
        normal = np.minimum(p[:-1], p[1:]) > 1e-290   # relative flux needs normal floats
        flux = oracles.net_flux(p, inp)[normal]
        if flux.size and not np.max(np.abs(flux)) <= 1e-9:
            errs.append(f"net probability flux {np.max(np.abs(flux)):.3e} is not zero")
        if extrema["integer_maxima"] != oracles.local_maxima(logw[:top + 1]):
            errs.append(f"reported maxima {extrema['integer_maxima']} are not the law's")
        if inp["family"] == "detailed-balance":
            lam = inp["k1A"] / inp["km1"] * inp["V"]
            ref = oracles.poisson_pmf(np.arange(top + int(20 * math.sqrt(lam)) + 50), lam)
            if not oracles.total_variation(p, ref) < 1e-10:
                errs.append(f"TV {oracles.total_variation(p, ref):.3e} to Poisson({lam!r})")
        elif inp["family"] == "no-impact-recombination":
            rho = inp["k1A"] / inp["k2"]
            ref = oracles.nbinom_pmf(np.arange(top + 1), inp["km2AV"] / inp["k1A"], rho)
            if not np.allclose(p, ref, rtol=1e-9, atol=0.0):
                errs.append("law differs from the negative binomial")
        return errs

    def _read_law(self):
        with open(self.law_path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]
                    if not line.startswith("#")]
        return np.array([int(n) for n, _ in rows]), np.array([float(p) for _, p in rows])

    def fingerprint(self, out):
        return _digest(self.law_path.read_bytes(), self.extrema_path.read_bytes())


class KineticTransient:
    """``transient_evolve`` from the empty state to 4-6 snapshots over a few relaxation times."""

    name = "kinetic-transient"
    n_inputs = 100

    def inputs(self, rng):
        half = self.n_inputs // 2
        s = Strata(rng, half)
        # immigration-death: Poisson(lam (1 - exp(-k2 t)))
        linear = [dict(family="immigration-death", k1A=0.0, km1=0.0, k2=k2, km2AV=lam * k2, V=1.0)
                  for lam, k2 in zip(s.log_uniform(1.0, 10.0), s.log_uniform(0.2, 5.0))]
        # all four reactions, small volume
        nonlinear = [dict(family="nonlinear", k1A=k2 * f, km1=km1, k2=k2, km2AV=v * km2a, V=v)
                     for v, k2, f, km1, km2a in zip(
                         s.log_uniform(1.0, 2.0), s.log_uniform(0.5, 2.0), s.uniform(0.1, 0.5),
                         s.log_uniform(0.02, 0.1), s.log_uniform(1.0, 2.5))]
        horizons = Strata(rng, 2 * half).uniform(1.5, 2.5)
        rates = [r for pair in zip(linear, nonlinear) for r in pair]
        return [self._with_grid(r, h, 4 + i % 3) for i, (r, h) in enumerate(zip(rates, horizons))]

    @staticmethod
    def _with_grid(rates, horizon, n_snapshots):
        # lattice top: first state past the stationary mode below 1e-13.  From
        # the empty state the law stays stochastically below the stationary
        # one, so the boundary holds far less than transient_evolve's 1e-9.
        law = oracles.product_law(rates, 400)
        n = np.arange(len(law))
        n_max = int(n[(n > np.argmax(law)) & (law < 1e-13)][0])
        q = oracles.leaky_generator(rates, n_max)
        t_end = horizon * oracles.relaxation_time(q)
        t_grid = [t_end * (j + 1) / n_snapshots for j in range(n_snapshots)]
        return dict(rates=rates, kp=_kinetic_params(rates), n_max=n_max, t_grid=t_grid)

    def warmup_input(self):
        rates = dict(family="immigration-death", k1A=0.0, km1=0.0, k2=1.0, km2AV=3.0, V=1.0)
        return self._with_grid(rates, 2.0, 4)

    def run(self, inp):
        initial = core.DiscreteDistribution.from_probs([0], [1.0])
        return birthdeath.transient_evolve(inp["kp"], initial, inp["t_grid"], inp["n_max"])

    def check(self, inp, out):
        rates, n_max, t_grid = inp["rates"], inp["n_max"], inp["t_grid"]
        states = np.arange(n_max + 1)
        p0 = (states == 0).astype(float)
        refs = oracles.evolve(oracles.leaky_generator(rates, n_max), p0, t_grid)
        errs = []
        for t, d, ref in zip(t_grid, out, refs):
            if not np.array_equal(d.support, states):
                errs.append(f"snapshot at t={t!r} is not on 0..n_max")
                continue
            if not np.max(np.abs(d.probs - ref)) <= 1e-9:
                errs.append(f"snapshot at t={t!r} is {np.max(np.abs(d.probs - ref)):.3e} from expm")
            if rates["family"] == "immigration-death":
                lam = rates["km2AV"] / rates["k2"] * -math.expm1(-rates["k2"] * t)
                gap = np.max(np.abs(d.probs - oracles.poisson_pmf(states, lam)))
                if not gap <= 1e-9:
                    errs.append(f"snapshot at t={t!r} is {gap:.3e} from Poisson({lam!r})")
        if len(out) != len(t_grid):
            errs.append(f"{len(out)} snapshots for {len(t_grid)} times")
        return errs

    def fingerprint(self, out):
        return _digest(*(d.probs.tobytes() for d in out))


# Bound on TV * sqrt(E) for the SSA histogram.  Over 6000 histograms of this
# input family (ssa_bound.py, seeds 1000000-1000039) the median was 1.7, the
# 99.9th percentile 6.3 and the maximum 8.8.
SSA_TV_SCALE = 16.0


class SsaHistogram:
    """``stationary_histogram`` of one long direct-method trajectory at V = 1."""

    name = "ssa-histogram"
    n_inputs = 150

    def inputs(self, rng):
        s = Strata(rng, self.n_inputs)
        rates = [dict(k1A=k2 * f, km1=km1, k2=k2, km2AV=km2av, V=1.0)
                 for k2, f, km1, km2av in zip(s.log_uniform(0.5, 2.0), s.uniform(0.0, 0.6),
                                              s.log_uniform(0.05, 0.5), s.log_uniform(1.0, 10.0))]
        events = [int(e) for e in s.log_uniform(1e4, 3e4)]
        seeds = rng.integers(2 ** 31, size=self.n_inputs).tolist()
        return [self._input(*args) for args in zip(rates, seeds, events)]

    @staticmethod
    def _input(rates, seed, events):
        return dict(rates=rates, kp=_kinetic_params(rates), seed=seed, events=events)

    def warmup_input(self):
        return self._input(dict(k1A=0.0, km1=0.0, k2=1.0, km2AV=3.0, V=1.0), 17, 10_000)

    def run(self, inp):
        return ssa.stationary_histogram(inp["kp"], inp["seed"], n_events=inp["events"])

    @staticmethod
    def scaled_error(inp, out):
        """TV distance to the exact product law times sqrt(E), the scale of the sampling error."""
        exact = oracles.product_law(inp["rates"], max(200, 2 * int(out.support[-1])))
        hist = np.zeros(len(exact))
        hist[out.support] = out.probs
        return oracles.total_variation(hist, exact) * math.sqrt(inp["events"])

    def check(self, inp, out):
        err = self.scaled_error(inp, out)
        return [] if err <= SSA_TV_SCALE else [
            f"TV * sqrt(E) = {err:.3f} to the exact law exceeds {SSA_TV_SCALE}"]

    def fingerprint(self, out):
        return _digest(out.support.tobytes(), out.probs.tobytes())


WORKLOADS = {w.name: w for w in (StatCalibrate, KineticStationary, KineticTransient, SsaHistogram)}
