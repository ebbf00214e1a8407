"""Configuration-driven experiment runner.

Usage: parext <kind> --config <path> [--out <dir>] [--threads <n>] [--seed <n>]

Kinds: quotient | sequence | search | verify-symmetry | separation |
shifted-limit.  Configs are strict YAML (unknown keys rejected).  Every run
writes report.json plus one CSV per result table, atomically; wall-clock
time goes to a run_meta.json sidecar so that report and tables are
byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, NumericalRefusalError, ParextError
from .exponents import validate_exponents
from .extension import ParaboloidShift
from .grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeGrid,
    bump_profile,
    gaussian_profile,
    superpose,
)
from .norms import quotient_pair, quotient_single
from .search import SearchOptions, maximize_quotient_pair
from .sequences import (
    build_separating_testfn,
    convergence_study,
    default_test_functions,
    scaled_spacetime_grid,
    separation_report,
    shifted_limit_test,
    weak_limit_diagnostics,
)
from .symmetry import Symmetry, verify_intertwining
from .grids import dilate_profile

KINDS = ("quotient", "sequence", "search", "verify-symmetry", "separation", "shifted-limit")


def _fmt(v: float) -> str:
    return f"{v:.11e}"


def _require(cfg: dict, key: str, section: str):
    if key not in cfg:
        raise ConfigError(f"missing key '{key}' in {section}")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set, section: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{section} must be a mapping")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")


def _parse_shift(cfg: dict, d: int, section: str = "shift") -> ParaboloidShift:
    _check_keys(cfg, {"tau0", "xi0"}, section)
    tau0 = float(_require(cfg, "tau0", section))
    xi0 = cfg.get("xi0", [0.0] * d)
    xi0 = [float(v) for v in (xi0 if isinstance(xi0, list) else [xi0])]
    if len(xi0) != d:
        raise ConfigError(f"{section}.xi0 must have {d} components")
    return ParaboloidShift(tau0, tuple(xi0))


def _parse_fgrid(cfg: dict, d: int) -> FrequencyGrid:
    _check_keys(cfg, {"l_xi", "n", "t", "x", "m", "n_x"}, "grid")
    try:
        return FrequencyGrid(d, float(_require(cfg, "l_xi", "grid")), int(_require(cfg, "n", "grid")))
    except ValueError as ex:
        raise ConfigError(f"grid: {ex}") from ex


def _parse_stg(cfg: dict, d: int) -> SpacetimeGrid:
    try:
        return SpacetimeGrid(
            d,
            float(_require(cfg, "t", "grid")),
            float(_require(cfg, "x", "grid")),
            int(_require(cfg, "m", "grid")),
            int(_require(cfg, "n_x", "grid")),
        )
    except ValueError as ex:
        raise ConfigError(f"grid: {ex}") from ex


def _parse_profile(cfg: dict, grid: FrequencyGrid, section: str = "profile") -> FrequencyProfile:
    allowed = {"kind", "width", "center", "phase_velocity", "chirp", "radius", "separation"}
    _check_keys(cfg, allowed, section)
    kind = _require(cfg, "kind", section)
    try:
        if kind == "gaussian":
            return gaussian_profile(
                grid,
                center=cfg.get("center", 0.0),
                width=float(cfg.get("width", 1.0)),
                phase_velocity=cfg.get("phase_velocity", 0.0),
                chirp=float(cfg.get("chirp", 0.0)),
            )
        if kind == "bump":
            return bump_profile(grid, center=cfg.get("center", 0.0), radius=float(cfg.get("radius", 1.0)))
        if kind == "two_bump":
            sep = float(cfg.get("separation", 4.0))
            r = float(cfg.get("radius", 1.0))
            return superpose(
                bump_profile(grid, center=-sep / 2.0, radius=r),
                bump_profile(grid, center=sep / 2.0, radius=r),
            )
    except ValueError as ex:
        raise ConfigError(f"{section}: {ex}") from ex
    raise ConfigError(f"{section}.kind must be gaussian, bump or two_bump (got '{kind}')")


TOP_KEYS = {
    "d", "p", "shift", "grid", "profile", "profile_g", "lambdas", "out", "seed",
    "optimizer", "draws", "box", "shift_n", "shifts", "s0", "r",
}


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


def _write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _common(cfg: dict):
    d = int(cfg.get("d", 1))
    p = float(cfg.get("p", 2.0))
    try:
        e = validate_exponents(d, p)
    except ValueError as ex:
        raise ConfigError(str(ex)) from ex
    fgrid = _parse_fgrid(_require(cfg, "grid", "config"), d)
    stg = _parse_stg(cfg["grid"], d)
    return e, fgrid, stg


# ---------------------------------------------------------------------------
# experiment bodies: each returns (tables, extra_report_fields)
# ---------------------------------------------------------------------------

def _run_quotient(cfg: dict, threads: int):
    e, fgrid, stg = _common(cfg)
    f = _parse_profile(_require(cfg, "profile", "config"), fgrid)
    if "profile_g" in cfg:
        g = _parse_profile(cfg["profile_g"], fgrid, "profile_g")
        shift = _parse_shift(_require(cfg, "shift", "config"), e.d)
        res = quotient_pair(f, g, shift, e, stg, threads=threads)
    else:
        res = quotient_single(f, e, stg, threads=threads)
    rows = [(
        res.quotient,
        res.numerator.value,
        res.denominator,
        res.numerator.tail_bound,
        res.numerator.quadrature_estimate,
        res.certified_error(),
    )]
    header = ["quotient", "numerator", "denominator", "tail_bound", "quadrature_estimate", "certified_error"]
    return {"quotient": (header, rows)}, {"a_p_estimate": res.quotient}


def _run_sequence(cfg: dict, threads: int):
    e, fgrid, stg = _common(cfg)
    f = _parse_profile(_require(cfg, "profile", "config"), fgrid)
    shift = _parse_shift(_require(cfg, "shift", "config"), e.d)
    lambdas = [float(v) for v in _require(cfg, "lambdas", "config")]
    study = convergence_study(f, shift, lambdas, e, stg, threads=threads)
    rows = []
    for lam, q, err in study.rows:
        f_lam = dilate_profile(f, lam, e.p)
        diag = weak_limit_diagnostics(
            f_lam, f_lam, shift, e, scaled_spacetime_grid(stg, lam),
            a_p_estimate=study.a_p_estimate, threads=threads,
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
    e, fgrid, stg = _common(cfg)
    f = _parse_profile(_require(cfg, "profile", "config"), fgrid)
    g = _parse_profile(cfg.get("profile_g", cfg["profile"]), fgrid, "profile_g")
    shift = _parse_shift(_require(cfg, "shift", "config"), e.d)
    opt_cfg = cfg.get("optimizer", {})
    _check_keys(opt_cfg, {"max_steps", "step_tolerance", "boundary_mass_limit"}, "optimizer")
    opts = SearchOptions(
        max_steps=int(opt_cfg.get("max_steps", 200)),
        step_tolerance=float(opt_cfg.get("step_tolerance", 2e-6)),
        boundary_mass_limit=float(opt_cfg.get("boundary_mass_limit", 1e-3)),
    )
    traj = maximize_quotient_pair(f, g, shift, e, stg, opts=opts, threads=threads)
    rows = []
    for k, q, S, nf, ng in traj.iterates:
        rows.append((k, q, S.lam, *S.xi_tilde, S.t0, *S.x0, nf, ng))
    header = ["step", "quotient", "lambda_fit"]
    header += [f"xi_tilde_{a}" for a in range(e.d)]
    header += ["t0_fit"] + [f"x0_fit_{a}" for a in range(e.d)] + ["norm_f", "norm_g"]
    extra = {
        "terminated_reason": traj.terminated_reason,
        "final_quotient": traj.final_quotient,
    }
    return {"trajectory": (header, rows)}, extra


def _run_verify_symmetry(cfg: dict, seed: int):
    e, fgrid, stg = _common(cfg)
    f = _parse_profile(_require(cfg, "profile", "config"), fgrid)
    shift = _parse_shift(_require(cfg, "shift", "config"), e.d)
    draws = int(cfg.get("draws", 100))
    box = cfg.get("box", {})
    _check_keys(box, {"lam_min", "lam_max", "xi_max", "t_max", "x_max"}, "box")
    lam_min = float(box.get("lam_min", 0.125))
    lam_max = float(box.get("lam_max", 8.0))
    xi_max = float(box.get("xi_max", 4.0))
    t_max = float(box.get("t_max", 4.0))
    x_max = float(box.get("x_max", 4.0))
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(draws):
        lam = float(np.exp(rng.uniform(np.log(lam_min), np.log(lam_max))))
        xt = tuple(float(v) for v in rng.uniform(-xi_max, xi_max, e.d))
        t0 = float(rng.uniform(-t_max, t_max))
        x0 = tuple(float(v) for v in rng.uniform(-x_max, x_max, e.d))
        S = Symmetry(lam, xt, t0, x0)
        disc = verify_intertwining(S, f, shift, e, stg)
        rows.append((i, lam, *xt, t0, *x0, disc))
    header = ["draw", "lambda"] + [f"xi_tilde_{a}" for a in range(e.d)]
    header += ["t0"] + [f"x0_{a}" for a in range(e.d)] + ["discrepancy"]
    worst = max(r[-1] for r in rows) if rows else 0.0
    return {"verify_symmetry": (header, rows)}, {"worst_discrepancy": worst, "seed": seed}


def _run_separation(cfg: dict):
    e, fgrid, stg = _common(cfg)
    f = _parse_profile(_require(cfg, "profile", "config"), fgrid)
    shift0 = _parse_shift(_require(cfg, "shift", "config"), e.d)
    shift_n = _parse_shift(_require(cfg, "shift_n", "config"), e.d, "shift_n")
    s0 = float(cfg.get("s0", 0.5))
    R = float(cfg.get("r", fgrid.half_width * 0.8))
    rep = separation_report(shift0, shift_n, s0, R, fgrid)
    rows = [(rep.s, rep.R, rep.zero_set_offset, rep.c_estimate, float(rep.degenerate))]
    header = ["s", "r", "zero_set_offset", "c_estimate", "degenerate"]
    extra = {}
    if not rep.degenerate:
        tf = build_separating_testfn(shift0, shift_n, f, s0, R)
        extra = {"m1": tf.m1, "m2": tf.m2, "s0_final": tf.s0, "c_estimate": tf.c}
    return {"separation": (header, rows)}, extra


def _run_shifted_limit(cfg: dict, threads: int):
    e, fgrid, stg = _common(cfg)
    f = _parse_profile(_require(cfg, "profile", "config"), fgrid)
    shift0 = _parse_shift(_require(cfg, "shift", "config"), e.d)
    shift_cfgs = _require(cfg, "shifts", "config")
    shifts = [_parse_shift(sc, e.d, f"shifts[{i}]") for i, sc in enumerate(shift_cfgs)]
    residuals = shifted_limit_test(f, shift0, shifts, e, stg, threads=threads)
    rows = [
        (i, sh.tau0, *sh.xi0, r) for i, (sh, r) in enumerate(zip(shifts, residuals))
    ]
    header = ["n", "tau0"] + [f"xi0_{a}" for a in range(e.d)] + ["residual"]
    return {"shifted_limit": (header, rows)}, {}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_experiment(kind: str, cfg: dict, out_dir: str, threads: int = 1, seed: int = None) -> dict:
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind '{kind}' (expected one of {KINDS})")
    _check_keys(cfg, TOP_KEYS, "config")
    if seed is None:
        seed = int(cfg.get("seed", 0))

    start = time.monotonic()
    if kind == "quotient":
        tables, extra = _run_quotient(cfg, threads)
    elif kind == "sequence":
        tables, extra = _run_sequence(cfg, threads)
    elif kind == "search":
        tables, extra = _run_search(cfg, threads)
    elif kind == "verify-symmetry":
        tables, extra = _run_verify_symmetry(cfg, seed)
    elif kind == "separation":
        tables, extra = _run_separation(cfg)
    else:
        tables, extra = _run_shifted_limit(cfg, threads)
    elapsed = time.monotonic() - start

    os.makedirs(out_dir, exist_ok=True)
    report = {
        "kind": kind,
        "version": __version__,
        "config": cfg,
        "tables": {},
        **extra,
    }
    for name, (header, rows) in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        _write_csv(path, header, rows)
        report["tables"][name] = {
            "file": f"{name}.csv",
            "columns": header,
            "rows": [
                [(_fmt(v) if isinstance(v, float) else v) for v in row] for row in rows
            ],
        }
    _atomic_write(
        os.path.join(out_dir, "report.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(
        os.path.join(out_dir, "run_meta.json"),
        json.dumps({"wall_clock_seconds": elapsed}, indent=2) + "\n",
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="parext", description=__doc__)
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = yaml.safe_load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a YAML mapping")
        out_dir = args.out or cfg.get("out", "parext_out")
        run_experiment(args.kind, cfg, out_dir, threads=args.threads, seed=args.seed)
        return 0
    except (ConfigError, yaml.YAMLError, OSError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except NumericalRefusalError as ex:
        print(f"numerical refusal: {ex}", file=sys.stderr)
        return 3
    except (ParextError, Exception) as ex:  # noqa: BLE001
        print(f"internal error: {ex}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
