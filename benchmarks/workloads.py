"""The benchmark's three workloads.

Each workload draws its inputs from the seed when it is built (that is the
set-up the benchmark times), then repeats identical rounds of work.  Every
operation of a round is checked against the acceptance criteria; a check
never uses a tolerance looser than the test suite's.

The grid constants and closed-form references are this benchmark's own
copies of those in ``tests/conftest.py``.  They are duplicated on purpose,
so that a later edit to the tests cannot silently change a workload.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

# the package's functions are called through their modules, so that the
# tracer's wrappers (installed on the modules) see these calls too
from parext import cli, grids, norms, search
from parext.exponents import validate_exponents
from parext.extension import ParaboloidShift
from parext.grids import FrequencyGrid, FrequencyProfile, SpacetimeGrid

# ---------------------------------------------------------------------------
# copies of tests/conftest.py: grids as (FrequencyGrid args, SpacetimeGrid args)
# ---------------------------------------------------------------------------

FROZEN_D1 = ((1, 10.0, 4096), (1, 400.0, 220.0, 5121, 4097))
FROZEN_D2 = ((2, 7.0, 128), (2, 10.0, 16.0, 129, 97))
PAIR = ((1, 10.0, 2048), (1, 160.0, 200.0, 2049, 2049))
SEARCH = ((1, 10.0, 256), (1, 5.0, 15.0, 81, 129))

# exact full-space norms of E exp(-|xi|^2) and the sharp constant A2, d = 1
GAUSS_L6_D1 = (math.pi**4 * math.sqrt(2.0 * math.pi / 3.0)) ** (1.0 / 6.0)
GAUSS_L2_D1 = (math.pi / 2.0) ** 0.25
A2_D1 = GAUSS_L6_D1 / GAUSS_L2_D1
GAUSS_L4_D2 = math.pi**1.5

# the acceptance dilations and the four nonzero shifts (tau0, xi0) of criterion 3
LAMBDAS = [1.0, 0.5, 0.2, 0.1]
NONZERO_SHIFTS = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, -1.0)]

SEARCH_MAX_STEPS = 400


def _window_factor(X: float, v: float, c: float) -> float:
    """Integral of exp(-c y^2) over y in [v - X, v + X]: the window [-X, X]
    seen by E f(t, x + v), which is the extension of f exp(i xi v)."""
    return 0.5 * math.sqrt(math.pi / c) * (
        special.erf((X + v) * math.sqrt(c)) + special.erf((X - v) * math.sqrt(c))
    )


def truncated_gauss_l6_d1(T: float, X: float, v: float = 0.0) -> float:
    """||Ef||_{L^6([-T,T] x [-X,X])} for exp(-xi^2 + i v xi), d = 1:
    |Ef|^6 = pi^3 (1+t^2)^{-3/2} exp(-3 (x+v)^2 / (2 (1+t^2)))."""

    def integrand(t):
        s = 1.0 + t * t
        return math.pi**3 * s**-1.5 * _window_factor(X, v, 3.0 / (2.0 * s))

    val, _ = integrate.quad(integrand, -T, T, limit=400)
    return val ** (1.0 / 6.0)


def truncated_gauss_l4_d2(T: float, X: float, v=(0.0, 0.0)) -> float:
    """||Ef||_{L^4} on [-T,T] x [-X,X]^2 for exp(-|xi|^2 + i v.xi), d = 2:
    |Ef|^4 = pi^4 (1+t^2)^{-2} exp(-|x+v|^2 / (1+t^2))."""

    def integrand(t):
        s = 1.0 + t * t
        return math.pi**4 / s**2 * _window_factor(X, v[0], 1.0 / s) * _window_factor(X, v[1], 1.0 / s)

    val, _ = integrate.quad(integrand, -T, T, limit=400)
    return val ** (1.0 / 4.0)


def _grids(spec):
    fg_args, stg_args = spec
    return FrequencyGrid(*fg_args), SpacetimeGrid(*stg_args)


# ---------------------------------------------------------------------------
# operation bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed.  An exception (a
    NumericalRefusalError included) or a failed check is a failure."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def run(self, label: str, op) -> None:
        self.attempted += 1
        try:
            problems = op()
        except Exception:  # noqa: BLE001 - every error the program raises counts
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += 1
            self.messages.extend(f"{label}: {p}" for p in problems)


def _repeat_check(store: dict, key, value) -> list:
    """Rounds repeat identical inputs, so their outputs must be identical."""
    first = store.setdefault(key, value)
    return [] if first == value else [f"output differs from the first round ({value!r} vs {first!r})"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class _CertifyCase:
    f: FrequencyProfile
    stg: SpacetimeGrid
    full: float  # exact full-space norm
    truncated: float  # exact norm on the grid's window

    @property
    def d(self) -> int:
        return self.stg.d


class Certify:
    """quotient_single of a Gaussian on the FROZEN d=1 and d=2 grids,
    single-threaded.  The seed draws the phase velocity per axis in [-1, 1],
    a spatial translation that leaves the full-space constant unchanged.
    A round is one quotient per dimension."""

    threads = 1

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(seed)
        v1 = rng.uniform(-1.0, 1.0, 1)
        v2 = rng.uniform(-1.0, 1.0, 2)
        fg1, stg1 = _grids(FROZEN_D1)
        fg2, stg2 = _grids(FROZEN_D2)
        T1, X1, T2, X2 = stg1.t_half_width, stg1.x_half_width, stg2.t_half_width, stg2.x_half_width
        self.cases = [
            _CertifyCase(grids.gaussian_profile(fg1, phase_velocity=v1), stg1, GAUSS_L6_D1,
                         truncated_gauss_l6_d1(T1, X1, float(v1[0]))),
            _CertifyCase(grids.gaussian_profile(fg2, phase_velocity=v2), stg2, GAUSS_L4_D2,
                         truncated_gauss_l4_d2(T2, X2, tuple(v2))),
        ]
        self.describe = f"phase velocity d=1 {v1.tolist()}, d=2 {v2.tolist()}"
        self.ref_rel_err = 0.0
        self._first = {}

    def round(self, tally: Tally) -> int:
        for case in self.cases:
            tally.run(f"certify d={case.d}", lambda c=case: self._quotient(c))
        return 1

    def _quotient(self, c: _CertifyCase) -> list:
        res = norms.quotient_single(c.f, validate_exponents(c.d, 2.0), c.stg, threads=self.threads)
        num = res.numerator
        problems = []
        rel = (num.value - c.truncated) / c.truncated
        self.ref_rel_err = max(self.ref_rel_err, abs(rel))
        if not abs(rel) < 1e-4:
            problems.append(f"numerator off the truncated closed form by {rel:+.3e} (tol 1e-4)")
        if not num.value <= c.full <= num.certified_upper():
            problems.append(f"exact norm {c.full!r} outside [{num.value!r}, {num.certified_upper()!r}]")
        if c.d == 1 and not abs(res.quotient - A2_D1) / A2_D1 < 1e-3:
            problems.append(f"quotient {res.quotient!r} vs A2 {A2_D1!r} (tol 1e-3)")
        return problems + _repeat_check(self._first, c.d, res.quotient)

    def trace_check(self, fig: dict) -> list:
        return _expect(fig, {"extension.apply": 2, "extension.extend": 2, "norms.quotient_single": 2})

    def figures(self) -> dict:
        return {"norms.ref_rel_err": self.ref_rel_err}


class Sequence:
    """The CLI's ``sequence`` experiment, in-process, on the PAIR grid with
    the acceptance dilations and two threads.  The seed draws the shift from
    the four nonzero shifts of criterion 3.  A round is one experiment,
    report and CSV written into a fresh directory inside the checkout."""

    threads = 2

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(seed)
        tau0, xi0 = NONZERO_SHIFTS[int(rng.integers(len(NONZERO_SHIFTS)))]
        (l_xi, n), (t, x, m, n_x) = PAIR[0][1:], PAIR[1][1:]
        self.cfg = {
            "d": 1,
            "p": 2.0,
            "grid": {"l_xi": l_xi, "n": n, "t": t, "x": x, "m": m, "n_x": n_x},
            "profile": {"kind": "gaussian", "width": 1.0},
            "shift": {"tau0": tau0, "xi0": [xi0]},
            "lambdas": list(LAMBDAS),
        }
        self.out_root = os.path.join(root, ".bench_run")
        self.describe = f"shift (tau0, xi0) = ({tau0}, {xi0})"
        self.limit_gap = 0.0
        self.bytes_written = 0
        self._first = {}

    def round(self, tally: Tally) -> int:
        tally.run("sequence", self._experiment)
        return 1

    def _experiment(self) -> list:
        os.makedirs(self.out_root, exist_ok=True)
        out = tempfile.mkdtemp(dir=self.out_root)
        try:
            cli.run_experiment("sequence", self.cfg, out, threads=self.threads)
            self.bytes_written = sum(
                os.path.getsize(os.path.join(out, name)) for name in os.listdir(out)
            )
            with open(os.path.join(out, "report.json"), "rb") as fh:
                raw = fh.read()
        finally:
            shutil.rmtree(out)
        report = json.loads(raw)
        rows = report["tables"]["sequence"]["rows"]
        quotients = [float(r[1]) for r in rows]
        target = float(report["target"])
        self.limit_gap = abs(quotients[-1] - target) / target
        problems = []
        if not all(b > a for a, b in zip(quotients, quotients[1:])):
            problems.append(f"quotients do not rise as lambda falls: {quotients}")
        if not self.limit_gap < 0.03:
            problems.append(f"limit gap {self.limit_gap:.3%} (tol 3%)")
        return problems + _repeat_check(self._first, "report", raw)

    def trace_check(self, fig: dict) -> list:
        transforms = 1 + 4 * len(LAMBDAS)
        return _expect(fig, {
            "extension.apply": transforms,
            "extension.extend": transforms,
            "cli.run_experiment": 1,
            "sequences.convergence_study": 1,
            "sequences.weak_limit": len(LAMBDAS),
        })

    def figures(self) -> dict:
        return {"sequences.limit_gap": self.limit_gap, "cli.bytes_written": self.bytes_written}


class Search:
    """maximize_quotient_pair(f, f, shift) on the SEARCH grid with
    max_steps=400, once for each of the four nonzero shifts.  The first
    start is the width-1 Gaussian; the seed draws the other three Gaussians
    (width in [0.7, 1.5], center in [-0.5, 0.5], phase velocity in [-1, 1],
    chirp in [-0.5, 0.5]) and rotates the order of the shifts.  A round is
    the four ascents; its unit of work is one ascent iterate, because the
    number of iterates until the grid is exhausted depends on the start."""

    threads = 1

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(seed)
        fg, self.stg = _grids(SEARCH)
        k = int(rng.integers(len(NONZERO_SHIFTS)))
        shifts = NONZERO_SHIFTS[k:] + NONZERO_SHIFTS[:k]
        starts = [dict(width=1.0)]
        for _ in shifts[1:]:
            starts.append(dict(
                width=float(rng.uniform(0.7, 1.5)),
                center=float(rng.uniform(-0.5, 0.5)),
                phase_velocity=float(rng.uniform(-1.0, 1.0)),
                chirp=float(rng.uniform(-0.5, 0.5)),
            ))
        self.jobs = [
            (grids.gaussian_profile(fg, **kw), ParaboloidShift(tau0, (xi0,)))
            for kw, (tau0, xi0) in zip(starts, shifts)
        ]
        self.e = validate_exponents(1, 2.0)
        self.describe = "; ".join(
            f"shift ({tau0}, {xi0}) from {kw}" for kw, (tau0, xi0) in zip(starts, shifts)
        )
        self.iterates = []  # iterate count of each ascent in the last round
        self._first = {}

    def round(self, tally: Tally) -> int:
        self.iterates = []
        for i, (f, shift) in enumerate(self.jobs):
            tally.run(f"search {i}", lambda f=f, s=shift, i=i: self._ascend(i, f, s))
        return max(1, sum(self.iterates))

    def _ascend(self, i: int, f, shift: ParaboloidShift) -> list:
        traj = search.maximize_quotient_pair(
            f, f, shift, self.e, self.stg,
            opts=search.SearchOptions(max_steps=SEARCH_MAX_STEPS), threads=self.threads,
        )
        self.iterates.append(len(traj.iterates))
        qs = [it[1] for it in traj.iterates]
        problems = []
        if not all(b >= a for a, b in zip(qs, qs[1:])):
            problems.append("the quotient decreased along the trajectory")
        if traj.terminated_reason != "grid_exhausted":
            problems.append(f"ended in {traj.terminated_reason}, not grid_exhausted")
        return problems + _repeat_check(self._first, i, qs)

    def trace_check(self, fig: dict) -> list:
        # each ascent fits a symmetry per iterate and takes a gradient step
        # (two adjoints) between iterates; each field evaluation applies both
        # operators once
        iterates = sum(self.iterates)
        evals = fig["search.field_evals"]
        problems = _expect(fig, {
            "search.maximize": len(self.jobs),
            "search.fit_symmetry": iterates,
            "extension.adjoint": 2 * fig["search.steps"],
            "extension.apply": 2 * evals,
        })
        if evals < iterates:
            problems.append(f"{evals} field evaluations for {iterates} iterates")
        return problems

    def figures(self) -> dict:
        # every iterate after the first is an accepted gradient step
        return {"search.steps": sum(self.iterates) - len(self.iterates)}


def _expect(fig: dict, expected: dict) -> list:
    """Compare a traced round's span call counts with those its inputs imply."""
    return [
        f"{name}: {fig.get(name + '.calls', 0)} calls, expected {n}"
        for name, n in expected.items()
        if fig.get(name + ".calls", 0) != n
    ]


WORKLOADS = {"certify": Certify, "sequence": Sequence, "search": Search}
