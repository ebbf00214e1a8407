"""Configuration-driven experiment runner.

Usage: parext <kind> --config <path> [--out <dir>] [--threads <n>]

Kinds: quotient | sequence | search | verify-symmetry | separation |
shifted-limit, the keys of ``RUNNERS``.  Configs are strict YAML: each kind
accepts d, p, grid, profile, out and the keys its runner declares, each
profile kind only its constructor's keys; any other key, a missing key or a
malformed value (a non-finite number included) is a configuration error
(exit 2) naming the key.  Every run writes report.json plus one CSV per
result table, atomically; wall-clock time and the process's peak resident
memory go to a run_meta.json sidecar so that report and tables are
byte-identical across reruns and thread counts.  The report's ``warnings``
key lists the ParextWarning messages the run raised, sorted and once each.
--threads must be at least 1, and exactly 1 for separation, whose runner
refuses any other count; any other value is a configuration error too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import warnings

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalRefusalError, ParextWarning
from .exponents import validate_exponents
from .extension import ParaboloidShift
from .grids import FrequencyGrid, SpacetimeGrid, _as_dimension, _as_whole, bump_profile, gaussian_profile, superpose
from .norms import quotient_pair, quotient_single
from .search import SearchOptions, maximize_quotient_pair
from .sequences import (
    build_separating_testfn,
    convergence_study,
    default_test_functions,
    dilation_sequence,
    separation_report,
    shifted_limit_test,
    weak_limit_diagnostics,
)
from .symmetry import Symmetry, verify_intertwining

# ---------------------------------------------------------------------------
# config reading: each value is coerced where it is read
# ---------------------------------------------------------------------------

def _check_keys(cfg: dict, allowed: set, section: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")


def _read(cfg: dict, key: str, section: str, coerce, default=None):
    """``coerce(cfg[key])``, or ``default`` when the key is absent (a missing
    key without a default is an error); a value that ``coerce`` refuses is
    an error naming the key."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing key '{key}' in {section}")
        return default
    try:
        return coerce(cfg[key])
    except (TypeError, ValueError) as ex:
        raise ConfigError(f"{section}.{key}: {ex}") from ex


def _mapping(v) -> dict:
    if not isinstance(v, dict):
        raise ValueError(f"must be a mapping, got {v!r}")
    return v


def _finite(v) -> float:
    v = float(v)
    if not np.isfinite(v):
        raise ValueError(f"must be finite, got {v}")
    return v


def _positive(v) -> float:
    v = _finite(v)
    if not v > 0.0:
        raise ValueError(f"must be positive, got {v}")
    return v


def _whole(v) -> int:
    """A non-negative whole number as an int (``grids._as_whole``); a fraction, bool or string is refused."""
    n = _as_whole(v)
    if n is None or n < 0:
        raise ValueError(f"must be a non-negative whole number, got {v!r}")
    return n


def _positive_whole(v) -> int:
    v = _whole(v)
    if v == 0:
        raise ValueError("must be positive, got 0")
    return v


def _floats(v) -> np.ndarray:
    return np.vectorize(_finite, otypes=[float])(v)


def _list_of(coerce):
    """Coercion of a non-empty list whose items each pass ``coerce``."""
    def read(v) -> list:
        if not isinstance(v, list) or not v:
            raise ValueError(f"must be a non-empty list, got {v!r}")
        return [coerce(item) for item in v]
    return read


def _parse_shift(cfg: dict, d: int, section: str) -> ParaboloidShift:
    _check_keys(cfg, {"tau0", "xi0"}, section)
    tau0 = _read(cfg, "tau0", section, _finite)
    xi0 = _read(cfg, "xi0", section, _list_of(_finite), [0.0] * d)
    if len(xi0) != d:
        raise ConfigError(f"{section}.xi0 must have {d} components")
    return ParaboloidShift(tau0, tuple(xi0))


def _shift(cfg: dict, key: str, d: int) -> ParaboloidShift:
    return _parse_shift(_read(cfg, key, "config", _mapping), d, key)


# profile kind -> coercion of each key it accepts besides "kind"; a key the
# config leaves out takes the default of the constructor, which is called by
# name below rather than stored here, so that rebinding the name traces it
PROFILES = {
    "gaussian": {"center": _floats, "width": _finite, "phase_velocity": _floats, "chirp": _finite},
    "bump": {"center": _floats, "radius": _finite},
    "two_bump": {"separation": _finite, "radius": _finite},
}


def _parse_profile(cfg: dict, grid: FrequencyGrid, section: str):
    kind = _read(cfg, "kind", section, str)
    if kind not in PROFILES:
        raise ConfigError(f"{section}.kind must be gaussian, bump or two_bump (got '{kind}')")
    _check_keys(cfg, {"kind", *PROFILES[kind]}, section)
    kw = {key: _read(cfg, key, section, PROFILES[kind][key]) for key in cfg if key != "kind"}
    try:
        if kind == "gaussian":
            return gaussian_profile(grid, **kw)
        if kind == "bump":
            return bump_profile(grid, **kw)
        sep = kw.pop("separation", 4.0)
        return superpose(
            bump_profile(grid, center=-sep / 2.0, **kw), bump_profile(grid, center=sep / 2.0, **kw)
        )
    except ValueError as ex:
        raise ConfigError(f"{section}: {ex}") from ex


# grid key -> coercion: the frequency grid (l_xi, n), then the spacetime grid
GRID = {"l_xi": _finite, "n": _whole, "t": _finite, "x": _finite, "m": _whole, "n_x": _whole}


def _common(cfg: dict, keys: set):
    """Refuse every key of ``cfg`` but d, p, grid, profile, out and the kind's
    own ``keys``, then read the exponents, both grids and the profile f,
    which must have a nonzero sample on the frequency grid."""
    _check_keys(cfg, {"d", "p", "grid", "profile", "out"} | keys, "config")
    d = _read(cfg, "d", "config", _as_dimension, 1)
    try:
        e = validate_exponents(d, _read(cfg, "p", "config", _finite, 2.0))
    except ValueError as ex:  # d is whole and >= 1 here, so p is refused
        raise ConfigError(f"config.p: {ex}") from ex
    grid = _read(cfg, "grid", "config", _mapping)
    _check_keys(grid, set(GRID), "grid")
    l_xi, n, t, x, m, n_x = (_read(grid, key, "grid", coerce) for key, coerce in GRID.items())
    try:
        fgrid = FrequencyGrid(d, l_xi, n)
        stg = SpacetimeGrid(d, t, x, m, n_x)
    except ValueError as ex:
        raise ConfigError(f"grid: {ex}") from ex
    f = _parse_profile(_read(cfg, "profile", "config", _mapping), fgrid, "profile")
    if not f.samples.any():
        raise ConfigError("profile: every sample is zero on the frequency grid")
    return e, stg, f


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# experiment bodies: each declares its own config keys and returns
# (tables, extra_report_fields)
# ---------------------------------------------------------------------------

def _run_quotient(cfg: dict, threads: int):
    pair = "profile_g" in cfg
    e, stg, f = _common(cfg, {"profile_g", "shift"} if pair else set())
    if pair:
        g = _parse_profile(_read(cfg, "profile_g", "config", _mapping), f.grid, "profile_g")
        res = quotient_pair(f, g, _shift(cfg, "shift", e.d), e, stg, threads=threads)
    else:
        res = quotient_single(f, e, stg, threads=threads)
    num = res.numerator
    rows = [(res.quotient, num.value, res.denominator, num.tail_bound, num.quadrature_estimate,
             res.certified_error())]
    header = ["quotient", "numerator", "denominator", "tail_bound", "quadrature_estimate", "certified_error"]
    # only the single quotient estimates A_p; the pair's supremum is 2^{1/p'} A_p
    return {"quotient": (header, rows)}, {} if pair else {"a_p_estimate": res.quotient}


def _run_sequence(cfg: dict, threads: int):
    e, stg, f = _common(cfg, {"shift", "lambdas"})
    shift = _shift(cfg, "shift", e.d)
    lambdas = _read(cfg, "lambdas", "config", _list_of(_positive))
    study = convergence_study(f, shift, lambdas, e, stg, threads=threads)
    members = dilation_sequence(f, lambdas, e.p, stg)
    rows = []
    for (lam, q, err), (_, f_lam, stg_lam) in zip(study.rows, members):
        diag = weak_limit_diagnostics(
            f_lam, f_lam, shift, e, stg_lam, a_p_estimate=study.a_p_estimate, threads=threads,
        )
        pair_cols = [v for (_, pf, pg) in diag.weak_pairings for v in (pf, pg)]
        rows.append((lam, q, err, diag.ratio_first, diag.ratio_second,
                     diag.ratio_third, diag.norm_gap, diag.field_difference, *pair_cols))
    header = ["lambda", "quotient", "certified_error", "ratio_first", "ratio_second",
              "ratio_third", "norm_gap", "field_difference"]
    for t in default_test_functions(e.d):
        header += [f"pairing_f_{t.name}", f"pairing_g_{t.name}"]
    extra = {"a_p_estimate": study.a_p_estimate, "target": study.target}
    return {"sequence": (header, rows)}, extra


def _run_search(cfg: dict, threads: int):
    e, stg, f = _common(cfg, {"profile_g", "shift", "optimizer"})
    g = _parse_profile(_read(cfg, "profile_g", "config", _mapping, cfg["profile"]), f.grid, "profile_g")
    shift = _shift(cfg, "shift", e.d)
    optimizer = _read(cfg, "optimizer", "config", _mapping, {})
    _check_keys(optimizer, {"max_steps"}, "optimizer")
    opts = SearchOptions(_read(optimizer, "max_steps", "optimizer", _whole, SearchOptions.max_steps))
    traj = maximize_quotient_pair(f, g, shift, e, stg, opts=opts, threads=threads)
    rows = [(k, q, S.lam, *S.xi_tilde, S.t0, *S.x0, nf, ng) for k, q, S, nf, ng in traj.iterates]
    header = ["step", "quotient", "lambda_fit"] + [f"xi_tilde_{a}" for a in range(e.d)]
    header += ["t0_fit"] + [f"x0_fit_{a}" for a in range(e.d)] + ["norm_f", "norm_g"]
    extra = {"terminated_reason": traj.terminated_reason, "final_quotient": traj.final_quotient}
    return {"trajectory": (header, rows)}, extra


# the box verify-symmetry draws from, key -> (coercion, default): the scaling
# log-uniform in [lam_min, lam_max], each other parameter uniform in [-max, max]
BOX = {"lam_min": (_positive, 0.125), "lam_max": (_positive, 8.0),
       "xi_max": (_finite, 4.0), "t_max": (_finite, 4.0), "x_max": (_finite, 4.0)}


def _run_verify_symmetry(cfg: dict, threads: int):
    e, stg, f = _common(cfg, {"shift", "draws", "box", "seed"})
    shift = _shift(cfg, "shift", e.d)
    draws = _read(cfg, "draws", "config", _positive_whole, 100)
    box = _read(cfg, "box", "config", _mapping, {})
    _check_keys(box, set(BOX), "box")
    lam_min, lam_max, xi_max, t_max, x_max = (_read(box, k, "box", c, v) for k, (c, v) in BOX.items())
    seed = _read(cfg, "seed", "config", _whole, 0)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(draws):
        lam = float(np.exp(rng.uniform(np.log(lam_min), np.log(lam_max))))
        xt = tuple(float(v) for v in rng.uniform(-xi_max, xi_max, e.d))
        t0 = float(rng.uniform(-t_max, t_max))
        x0 = tuple(float(v) for v in rng.uniform(-x_max, x_max, e.d))
        S = Symmetry(lam, xt, t0, x0)
        disc = verify_intertwining(S, f, shift, e, stg, threads)
        # the Nyquist ratio of the sheared side's operator names a warned draw
        rows.append((i, lam, f.grid.nyquist_ratio(stg.x_half_width / lam), *xt, t0, *x0, disc))
    header = ["draw", "lambda", "nyquist_ratio"] + [f"xi_tilde_{a}" for a in range(e.d)]
    header += ["t0"] + [f"x0_{a}" for a in range(e.d)] + ["discrepancy"]
    worst = max(r[-1] for r in rows)
    return {"verify_symmetry": (header, rows)}, {"worst_discrepancy": worst, "seed": seed}


def _run_separation(cfg: dict, threads: int):
    if threads != 1:
        raise ConfigError(f"--threads must be 1 for separation, got {threads}")
    e, _, f = _common(cfg, {"shift", "shift_n", "s0", "r"})
    shift0 = _shift(cfg, "shift", e.d)
    shift_n = _shift(cfg, "shift_n", e.d)
    s0 = _read(cfg, "s0", "config", _positive, 0.5)
    R = _read(cfg, "r", "config", _positive, f.grid.half_width * 0.8)
    if shift0 == shift_n:
        # coinciding paraboloids: the degenerate report, and no test function
        rep, extra = separation_report(shift0, shift_n, s0, R, f.grid), {}
    else:
        # the test function halves s0 until its cutoff fits and reports the
        # separation at the s it ends with
        tf = build_separating_testfn(shift0, shift_n, f, s0, R)
        rep, extra = tf.report, {"m1": tf.m1, "m2": tf.m2}
    rows = [(rep.s, rep.R, rep.zero_set_offset, rep.c_estimate, float(rep.degenerate))]
    header = ["s", "r", "zero_set_offset", "c_estimate", "degenerate"]
    return {"separation": (header, rows)}, extra


def _run_shifted_limit(cfg: dict, threads: int):
    e, stg, f = _common(cfg, {"shift", "shifts"})
    shift0 = _shift(cfg, "shift", e.d)
    shift_cfgs = _read(cfg, "shifts", "config", _list_of(_mapping))
    shifts = [_parse_shift(sc, e.d, f"shifts[{i}]") for i, sc in enumerate(shift_cfgs)]
    residuals = shifted_limit_test(f, shift0, shifts, e, stg, threads=threads)
    rows = [
        (i, sh.tau0, *sh.xi0, r) for i, (sh, r) in enumerate(zip(shifts, residuals))
    ]
    header = ["n", "tau0"] + [f"xi0_{a}" for a in range(e.d)] + ["residual"]
    return {"shifted_limit": (header, rows)}, {}


RUNNERS = {
    "quotient": _run_quotient,
    "sequence": _run_sequence,
    "search": _run_search,
    "verify-symmetry": _run_verify_symmetry,
    "separation": _run_separation,
    "shifted-limit": _run_shifted_limit,
}
KINDS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_experiment(kind: str, cfg: dict, out_dir: str, threads: int = 1) -> dict:
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind '{kind}' (expected one of {KINDS})")
    if threads < 1:
        raise ConfigError(f"--threads must be a positive whole number for {kind}, got {threads}")

    start = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ParextWarning)
        tables, extra = RUNNERS[kind](cfg, threads)
    elapsed = time.monotonic() - start
    # the report takes the package's warnings; any other warning goes on as raised
    for w in caught:
        if not issubclass(w.category, ParextWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    os.makedirs(out_dir, exist_ok=True)
    report = {
        "kind": kind,
        "version": __version__,
        "config": cfg,
        "tables": {},
        "warnings": sorted({str(w.message) for w in caught if issubclass(w.category, ParextWarning)}),
        **extra,
    }
    for name, (header, rows) in tables.items():
        # one formatting of each cell feeds both the CSV and the report
        cells = [[f"{v:.11e}" if isinstance(v, float) else v for v in row] for row in rows]
        lines = [",".join(header)] + [",".join(str(v) for v in row) for row in cells]
        _atomic_write(os.path.join(out_dir, f"{name}.csv"), "\n".join(lines) + "\n")
        report["tables"][name] = {"file": f"{name}.csv", "columns": header, "rows": cells}
    _atomic_write(
        os.path.join(out_dir, "report.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    # ru_maxrss is the process's peak so far, in KiB on Linux
    meta = {"wall_clock_seconds": elapsed, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    _atomic_write(os.path.join(out_dir, "run_meta.json"), json.dumps(meta, indent=2) + "\n")
    return report


def main(argv=None) -> int:
    # imported on use: run_experiment takes parsed configs
    import yaml

    parser = argparse.ArgumentParser(prog="parext", description=__doc__)
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = yaml.safe_load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a YAML mapping")
        out_dir = args.out or _read(cfg, "out", "config", str, "parext_out")
        run_experiment(args.kind, cfg, out_dir, threads=args.threads)
        return 0
    except (ConfigError, yaml.YAMLError, OSError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except NumericalRefusalError as ex:
        print(f"numerical refusal: {ex}", file=sys.stderr)
        return 3
    except Exception as ex:  # noqa: BLE001
        print(f"internal error: {ex}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
