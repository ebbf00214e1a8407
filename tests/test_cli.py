import json
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
import yaml

from conftest import FROZEN_FGRID_D2, FROZEN_STG_D2
from parext import cli
from parext.cli import main, run_experiment
from parext.errors import ConfigError
from parext.extension import ParaboloidShift
from parext.grids import gaussian_profile
from parext.symmetry import Symmetry, verify_intertwining

BASE_GRID = "grid: {l_xi: 8.0, n: 256, t: 3.0, x: 10.0, m: 33, n_x: 65}"


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_quotient_kind_value(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "q.yaml",
        f"d: 1\np: 2.0\n{BASE_GRID}\nprofile: {{kind: gaussian, width: 1.0}}\n",
    )
    out = tmp_path / "out"
    assert main(["quotient", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["kind"] == "quotient"
    assert report["warnings"] == []

    from parext.exponents import validate_exponents
    from parext.grids import FrequencyGrid, SpacetimeGrid, gaussian_profile
    from parext.norms import quotient_single

    e = validate_exponents(1, 2.0)
    f = gaussian_profile(FrequencyGrid(1, 8.0, 256))
    res = quotient_single(f, e, SpacetimeGrid(1, 3.0, 10.0, 33, 65))
    assert report["a_p_estimate"] == pytest.approx(res.quotient, rel=1e-12)

    csv_lines = (out / "quotient.csv").read_text().strip().splitlines()
    assert csv_lines[0].split(",")[0] == "quotient"
    assert float(csv_lines[1].split(",")[0]) == pytest.approx(res.quotient, rel=1e-10)
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["wall_clock_seconds"] >= 0.0
    # the process has held the interpreter and numpy, so its peak is positive
    assert meta["peak_rss_mb"] > 0.0


def test_only_the_single_quotient_reports_a_p_estimate(tmp_path):
    # the pair quotient is bounded by 2^{1/p'} A_p, so it estimates no A_p
    single = f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian, width: 1.0}}\n"
    pair = single + "profile_g: {kind: gaussian, width: 0.8}\n" + SHIFT
    reports = {}
    for name, text in (("single", single), ("pair", pair)):
        cfg = write_cfg(tmp_path, f"{name}.yaml", text)
        assert main(["quotient", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        reports[name] = read_report(tmp_path / name)
    assert "a_p_estimate" not in reports["pair"]
    assert f"{reports['single']['a_p_estimate']:.11e}" == reports["single"]["tables"]["quotient"]["rows"][0][0]


@pytest.mark.parametrize("keys, half", [(", separation: 3.0", 1.5), ("", 2.0)], ids=["separation-3", "default"])
def test_two_bump_profile_is_two_superposed_bumps(tmp_path, keys, half):
    from parext.exponents import validate_exponents
    from parext.grids import FrequencyGrid, SpacetimeGrid, bump_profile, superpose
    from parext.norms import quotient_single

    cfg = write_cfg(tmp_path, "q.yaml", f"d: 1\n{BASE_GRID}\nprofile: {{kind: two_bump{keys}, radius: 1.0}}\n")
    assert main(["quotient", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    fg = FrequencyGrid(1, 8.0, 256)
    f = superpose(bump_profile(fg, center=-half, radius=1.0), bump_profile(fg, center=half, radius=1.0))
    res = quotient_single(f, validate_exponents(1, 2.0), SpacetimeGrid(1, 3.0, 10.0, 33, 65))
    assert read_report(tmp_path / "o")["a_p_estimate"] == res.quotient


def test_byte_identical_across_threads_and_reruns(tmp_path):
    profiles = "profile: {kind: gaussian, width: 1.0, chirp: 0.3}\n"
    # 257 t-rows of 2049 points: the L^q reduction runs in several blocks
    wide = (
        f"d: 1\np: 2.0\ngrid: {{l_xi: 8.0, n: 256, t: 3.0, x: 10.0, m: 257, n_x: 2049}}\n{profiles}"
        "shift: {tau0: 0.5, xi0: [1.0]}\n"
    )
    cases = {
        "quotient": f"d: 1\np: 2.0\n{BASE_GRID}\n"
        "profile: {kind: gaussian, width: 1.0}\n"
        "profile_g: {kind: gaussian, width: 0.8}\n"
        "shift: {tau0: 0.0, xi0: [1.0]}\n",
        "sequence": wide + "lambdas: [1.0, 0.5]\n",
        "shifted-limit": wide + "shifts:\n  - {tau0: 0.25, xi0: [0.5]}\n  - {tau0: 0.5, xi0: [1.0]}\n",
        "verify-symmetry": wide + "draws: 2\n",
    }
    for kind, text in cases.items():
        cfg = write_cfg(tmp_path, f"{kind}.yaml", text)
        outs = [tmp_path / f"{kind}{i}" for i in range(4)]
        for out, threads in zip(outs, ("1", "2", "4", "1")):
            assert main([kind, "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        # report.json and the CSV; run_meta.json holds timings
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "run_meta.json")
        assert len(names) == 2 and "report.json" in names
        for out in outs[1:]:
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), (kind, name)


def test_all_kinds_run(tmp_path):
    common = f"d: 1\np: 2.0\n{BASE_GRID}\nprofile: {{kind: gaussian, width: 1.0}}\n"
    cases = {
        "sequence": common + "shift: {tau0: 0.0, xi0: [1.0]}\nlambdas: [1.0, 0.5]\n",
        "search": common
        + "shift: {tau0: 0.0, xi0: [1.0]}\noptimizer: {max_steps: 3}\n",
        "verify-symmetry": common + "shift: {tau0: 1.0, xi0: [1.0]}\ndraws: 3\n",
        "separation": common
        + "shift: {tau0: 0.0, xi0: [1.0]}\nshift_n: {tau0: 0.0, xi0: [1.1]}\n"
        + "s0: 0.5\nr: 6.0\n",
        "shifted-limit": common
        + "shift: {tau0: 0.0, xi0: [0.0]}\n"
        + "shifts:\n  - {tau0: 0.5, xi0: [0.5]}\n  - {tau0: 0.25, xi0: [0.25]}\n",
    }
    for kind, text in cases.items():
        cfg = write_cfg(tmp_path, f"{kind}.yaml", text)
        out = tmp_path / f"out_{kind}"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 0, kind
        report = read_report(out)
        assert report["kind"] == kind
        assert report["tables"]
        assert report["warnings"] == [], kind
        for table in report["tables"].values():
            assert (out / table["file"]).exists()

    # spot checks on the kind-specific fields
    rep = read_report(tmp_path / "out_verify-symmetry")
    assert float(rep["worst_discrepancy"]) < 1e-4
    rep = read_report(tmp_path / "out_search")
    assert rep["terminated_reason"] in ("max_steps", "grid_exhausted", "step_tolerance")
    rep = read_report(tmp_path / "out_separation")
    assert float(rep["m1"]) > 0.5 and float(rep["m2"]) < 1e-6


def test_unknown_key_exits_2(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "bad.yaml",
        f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\nbogus_key: 1\n",
    )
    assert main(["quotient", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


SHIFT = "shift: {tau0: 0.0, xi0: [1.0]}\n"
SEQUENCE = SHIFT + "lambdas: [1.0, 0.5]\n"


@pytest.mark.parametrize(
    "kind, extra, key",
    [
        # keys the kind does not read: each used to be accepted and ignored
        pytest.param("quotient", SHIFT, "shift", id="quotient-shift-without-profile_g"),
        pytest.param("quotient", "lambdas: [1.0]\n", "lambdas", id="quotient-lambdas"),
        pytest.param("quotient", "draws: 3\n", "draws", id="quotient-draws"),
        pytest.param("sequence", SEQUENCE + "optimizer: {max_steps: 3}\n", "optimizer", id="sequence-optimizer"),
        pytest.param("sequence", SEQUENCE + "s0: 0.5\n", "s0", id="sequence-s0"),
        pytest.param(
            "quotient", "profile_g: {kind: gaussian, radius: 1.0}\n" + SHIFT, "radius", id="gaussian-radius"
        ),
        # malformed values
        pytest.param("sequence", SHIFT + "lambdas: []\n", "lambdas", id="lambdas-empty"),
        pytest.param("sequence", SHIFT + "lambdas: 0.5\n", "lambdas", id="lambdas-scalar"),
        pytest.param("sequence", SHIFT + "lambdas: [1.0, -0.5]\n", "lambdas", id="lambdas-negative"),
        pytest.param(
            "separation", SHIFT + "shift_n: {tau0: 0.0, xi0: [1.1]}\ns0: -1\n", "s0", id="s0-negative"
        ),
        pytest.param("search", SHIFT + "optimizer: {max_steps: many}\n", "max_steps", id="max_steps-word"),
        pytest.param("search", SHIFT + "optimizer: {max_steps: -1}\n", "max_steps", id="max_steps-negative"),
        # constants of the search now, no longer options
        pytest.param(
            "search", SHIFT + "optimizer: {boundary_mass_limit: 0.01}\n", "boundary_mass_limit",
            id="boundary_mass_limit",
        ),
        pytest.param(
            "search", SHIFT + "optimizer: {step_tolerance: 1e-3}\n", "step_tolerance", id="step_tolerance"
        ),
        pytest.param("verify-symmetry", SHIFT + "box: {lam_min: -1}\n", "lam_min", id="lam_min-negative"),
        pytest.param(
            "quotient", "profile_g: {kind: bump}\nshift: {tau0: 0.0, xi0: 1.0}\n", "xi0", id="xi0-scalar"
        ),
        # whole numbers that used to be truncated by int()
        pytest.param("quotient", "d: 1.5\n", "config.d", id="d-fraction"),
        pytest.param("quotient", BASE_GRID.replace("n: 256", "n: 256.9"), "grid.n", id="n-fraction"),
        pytest.param("quotient", BASE_GRID.replace("m: 33", "m: 33.5"), "grid.m", id="m-fraction"),
        pytest.param("quotient", BASE_GRID.replace("n_x: 65", "n_x: 65.5"), "grid.n_x", id="n_x-fraction"),
        pytest.param("verify-symmetry", SHIFT + "draws: 2.5\n", "config.draws", id="draws-fraction"),
        # no draws used to report a worst discrepancy of 0.0
        pytest.param("verify-symmetry", SHIFT + "draws: 0\n", "config.draws", id="draws-zero"),
        pytest.param("verify-symmetry", SHIFT + "seed: 1.5\n", "config.seed", id="seed-fraction"),
        pytest.param(
            "search", SHIFT + "optimizer: {max_steps: 2.5}\n", "optimizer.max_steps", id="max_steps-fraction"
        ),
        # non-finite floats that used to run to exit 0 and write NaN reports
        pytest.param("quotient", BASE_GRID.replace("t: 3.0", "t: .nan"), "grid.t", id="t-nan"),
        pytest.param("quotient", BASE_GRID.replace("t: 3.0", "t: .inf"), "grid.t", id="t-inf"),
        pytest.param("quotient", BASE_GRID.replace("x: 10.0", "x: .nan"), "grid.x", id="x-nan"),
        pytest.param("quotient", "p: .nan\n", "config.p", id="p-nan"),
        pytest.param("quotient", "p: .inf\n", "config.p", id="p-inf"),
        pytest.param("sequence", "shift: {tau0: .nan, xi0: [1.0]}\nlambdas: [1.0]\n", "shift.tau0", id="tau0-nan"),
        # a profile with no nonzero sample used to end every kind in an internal error (exit 4)
        pytest.param(
            "verify-symmetry", SHIFT + "profile: {kind: gaussian, center: 100.0}\n", "profile", id="profile-zero"
        ),
        # values each reader or constructor refuses
        pytest.param("quotient", "profile: 3\n", "config.profile: must be a mapping", id="profile-scalar"),
        pytest.param(
            "quotient", "profile_g: {kind: bump}\nshift: {tau0: 0.0, xi0: [1.0, 2.0]}\n",
            "shift.xi0 must have 1 components", id="xi0-length",
        ),
        pytest.param(
            "quotient", "profile: {kind: gaussian, width: -1.0}\n", "profile: width must be positive",
            id="width-negative",
        ),
        pytest.param("quotient", "p: 1.0\n", "config.p: p must exceed 1", id="p-one"),
        pytest.param("quotient", "d: 0\n", "config.d: dimension must be >= 1", id="d-zero"),
        pytest.param(
            "quotient", BASE_GRID.replace("n: 256", "n: 100"), "grid: points_per_axis must be a power of two",
            id="n-not-power-of-two",
        ),
    ],
)
def test_stray_key_or_malformed_value_exits_2(tmp_path, capsys, kind, extra, key):
    # a top-level key of ``extra`` replaces the base config's key of that name
    base = f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\n"
    cfg = write_cfg(tmp_path, "cfg.yaml", yaml.safe_dump({**yaml.safe_load(base), **yaml.safe_load(extra)}))
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "kind, extra, threads",
    [
        pytest.param("quotient", "", "0", id="quotient-zero"),
        pytest.param("quotient", "", "-3", id="quotient-negative"),
        pytest.param("separation", SHIFT + "shift_n: {tau0: 0.0, xi0: [1.1]}\n", "2", id="separation-two"),
    ],
)
def test_unread_or_nonpositive_threads_exit_2(tmp_path, capsys, kind, extra, threads):
    # each of these used to run, ignoring the flag or falling back to one thread
    cfg = write_cfg(tmp_path, "cfg.yaml", f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\n{extra}")
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("d: 1\nprofile: {kind: gaussian}\n", "missing key 'grid' in config", id="grid-missing"),
        pytest.param("- d: 1\n- profile: {kind: gaussian}\n", "config must be a YAML mapping", id="list"),
    ],
)
def test_malformed_whole_config_exits_2(tmp_path, capsys, text, message):
    cfg = write_cfg(tmp_path, "cfg.yaml", text)
    assert main(["quotient", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_whole_float_grid_size_reads_as_its_integer(tmp_path):
    # n: 256.0 reads as 256, so the table is the same byte for byte
    tables = []
    for i, grid in enumerate((BASE_GRID, BASE_GRID.replace("n: 256", "n: 256.0"))):
        cfg = write_cfg(tmp_path, f"q{i}.yaml", f"d: 1\n{grid}\nprofile: {{kind: gaussian}}\n")
        assert main(["quotient", "--config", cfg, "--out", str(tmp_path / f"o{i}")]) == 0
        tables.append((tmp_path / f"o{i}" / "quotient.csv").read_bytes())
    assert tables[0] == tables[1]


def test_runner_exception_exits_4(tmp_path, capsys, monkeypatch):
    def broken(cfg, threads):
        raise RuntimeError("runner broke")

    monkeypatch.setitem(cli.RUNNERS, "quotient", broken)
    cfg = write_cfg(tmp_path, "q.yaml", f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\n")
    assert main(["quotient", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "internal error: runner broke" in capsys.readouterr().err


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    # a full disk at the rename of the first output file
    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", full_disk)
    text = f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\n"
    out = tmp_path / "o"
    with pytest.raises(OSError, match="No space left on device"):
        run_experiment("quotient", yaml.safe_load(text), str(out))
    assert list(out.iterdir()) == []
    assert main(["quotient", "--config", write_cfg(tmp_path, "q.yaml", text), "--out", str(out)]) == 2
    assert "config error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_removed_pad_key_exits_2(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "pad.yaml",
        f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\npad: 8\n",
    )
    assert main(["quotient", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_profile_kind_exits_2(tmp_path):
    cfg = write_cfg(
        tmp_path, "bad2.yaml", f"d: 1\n{BASE_GRID}\nprofile: {{kind: sinc}}\n"
    )
    assert main(["quotient", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["quotient", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_invalid_yaml_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "broken.yaml", "a: [unclosed\n")
    assert main(["quotient", "--config", cfg]) == 2


def test_nyquist_refusal_exits_3(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "nyq.yaml",
        "d: 1\ngrid: {l_xi: 10.0, n: 8, t: 1.0, x: 10.0, m: 5, n_x: 9}\n"
        "profile: {kind: gaussian}\n",
    )
    assert main(["quotient", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_symmetry_check_runs_the_frozen_d2_grid(tmp_path, exponents_d2):
    # both sides of the intertwining check are extensions on 129 x 97^2
    # grids, so the FROZEN d = 2 check runs in seconds and holds a few fields
    cfg = write_cfg(
        tmp_path,
        "frozen.yaml",
        "d: 2\np: 2.0\ngrid: {l_xi: 7.0, n: 128, t: 10.0, x: 16.0, m: 129, n_x: 97}\n"
        "profile: {kind: gaussian}\nshift: {tau0: 1.0, xi0: [1.0, 0.0]}\ndraws: 3\n",
    )
    out = tmp_path / "o"
    start = time.monotonic()
    assert main(["verify-symmetry", "--config", cfg, "--out", str(out)]) == 0
    assert time.monotonic() - start < 10.0
    assert float(read_report(out)["worst_discrepancy"]) < 1e-4

    f = gaussian_profile(FROZEN_FGRID_D2)
    S = Symmetry(1.3, (0.5, -0.7), 0.4, (1.0, -2.0))
    tracemalloc.start()
    try:
        verify_intertwining(S, f, ParaboloidShift(1.0, (1.0, 0.0)), exponents_d2, FROZEN_STG_D2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_symmetry_check_follows_the_nyquist_rule(tmp_path, capsys):
    # on BASE_GRID both sides have the Nyquist ratio 0.199 / lambda: above 1
    # the report carries the warning, above NYQUIST_HARD_FACTOR = 4 the run
    # is refused
    def run(lam):
        cfg = write_cfg(
            tmp_path,
            f"nyq{lam}.yaml",
            f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\n{SHIFT}draws: 1\n"
            f"box: {{lam_min: {lam}, lam_max: {lam}}}\n",
        )
        return main(["verify-symmetry", "--config", cfg, "--out", str(tmp_path / f"o{lam}")])

    assert run(0.1) == 0
    message = "Nyquist condition violated (ratio 1.99); aliased copies of the field may leak into the grid"
    assert read_report(tmp_path / "o0.1")["warnings"] == [message]
    assert run(0.04) == 3
    assert "ratio 4.97 exceeds the hard factor 4.0" in capsys.readouterr().err
    assert not (tmp_path / "o0.04").exists()


def test_symmetry_rows_name_their_nyquist_ratio(tmp_path):
    # each row carries its draw's Nyquist ratio, 0.199 / lambda on BASE_GRID,
    # and the report's Nyquist warnings, which carry only the ratio and are
    # listed once per message, are those of the rows above 1
    cfg = write_cfg(
        tmp_path,
        "nyq.yaml",
        f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\n{SHIFT}draws: 8\n"
        "box: {lam_min: 0.125, lam_max: 0.4}\n",
    )
    assert main(["verify-symmetry", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = read_report(tmp_path / "o")
    table = report["tables"]["verify_symmetry"]
    assert table["columns"][:3] == ["draw", "lambda", "nyquist_ratio"]
    ratios = [float(row[2]) for row in table["rows"]]
    assert ratios == pytest.approx([0.0625 * 10.0 / math.pi / float(row[1]) for row in table["rows"]], rel=1e-10)
    warned = {f"{r:.3g}" for r in ratios if r > 1.0}
    nyquist = [w for w in report["warnings"] if w.startswith("Nyquist condition violated")]
    assert 0 < len(warned) < len(ratios)
    assert warned == {w.split("(ratio ")[1].split(")")[0] for w in nyquist}


def test_separation_refusal_exits_3(tmp_path, capsys):
    # the R-ball |xi| < 0.2 holds almost none of a gaussian centred at 3, so
    # no pairing profile can capture 3/4 of it
    cfg = write_cfg(
        tmp_path,
        "sep.yaml",
        f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian, center: 3.0}}\n"
        "shift: {tau0: 0.0, xi0: [1.0]}\nshift_n: {tau0: 0.0, xi0: [1.1]}\nr: 0.2\n",
    )
    assert main(["separation", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "pairing profile captures only" in capsys.readouterr().err


def test_separation_row_is_the_final_separation(tmp_path):
    # the cutoff around the hyperplane fits only after s0 = 4 is halved eight
    # times; the row reports that s and the separation c there
    cfg = write_cfg(
        tmp_path,
        "sep.yaml",
        "d: 1\ngrid: {l_xi: 10.0, n: 1024, t: 3.0, x: 10.0, m: 33, n_x: 65}\n"
        "profile: {kind: gaussian, center: 1.0}\n"
        "shift: {tau0: 0.0, xi0: [1.0]}\nshift_n: {tau0: 0.0, xi0: [1.1]}\ns0: 4.0\nr: 6.0\n",
    )
    out = tmp_path / "o"
    assert main(["separation", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    s, r, _, c, degenerate = map(float, rep["tables"]["separation"]["rows"][0])
    assert (s, r, degenerate) == (4.0 / 2**8, 6.0, 0.0)
    assert c == pytest.approx(0.00484375, rel=1e-10)
    assert "s0_final" not in rep and "c_estimate" not in rep


def test_coinciding_separation_shifts_report_degenerate(tmp_path):
    # coinciding paraboloids: one row at s0, degenerate, no separation and
    # no test function margins
    cfg = write_cfg(
        tmp_path,
        "sep.yaml",
        f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\n"
        "shift: {tau0: 0.0, xi0: [1.0]}\nshift_n: {tau0: 0.0, xi0: [1.0]}\n",
    )
    out = tmp_path / "o"
    assert main(["separation", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    (row,) = rep["tables"]["separation"]["rows"]
    s, _, _, c, degenerate = map(float, row)
    assert (s, c, degenerate) == (0.5, 0.0, 1.0)
    assert "m1" not in rep and "m2" not in rep


def test_separation_evaluates_the_separation_field_twice(tmp_path, monkeypatch):
    # a non-degenerate run builds the test function alone: its halving loop
    # and its report each evaluate the separation field once
    from parext import sequences

    calls = []

    def counted(*args):
        calls.append(args)
        return separation_height(*args)

    separation_height = sequences.separation_height
    monkeypatch.setattr(sequences, "separation_height", counted)
    cfg = {"d": 1, **yaml.safe_load(BASE_GRID), "profile": {"kind": "gaussian"},
           "shift": {"tau0": 0.0, "xi0": [1.0]}, "shift_n": {"tau0": 0.0, "xi0": [1.1]}, "s0": 0.5, "r": 6.0}
    report = run_experiment("separation", cfg, str(tmp_path / "o"))
    assert len(calls) == 2
    assert float(report["tables"]["separation"]["rows"][0][-1]) == 0.0  # not degenerate


def test_separation_runs_in_two_dimensions(tmp_path):
    # the hyperplane cutoff fits after s0 = 1 is halved six times
    cfg = write_cfg(
        tmp_path,
        "sep2.yaml",
        "d: 2\ngrid: {l_xi: 7, n: 64, t: 3, x: 10, m: 9, n_x: 17}\n"
        "profile: {kind: gaussian, width: 1.3, phase_velocity: [0.5, -0.2]}\n"
        "shift: {tau0: 0.2, xi0: [1.0, 0.5]}\nshift_n: {tau0: -0.1, xi0: [1.2, 0.3]}\ns0: 1.0\n",
    )
    out = tmp_path / "o"
    assert main(["separation", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    s, _, _, c, degenerate = map(float, rep["tables"]["separation"]["rows"][0])
    assert (s, degenerate) == (1.0 / 64, 0.0)
    assert c == pytest.approx(0.02, rel=1e-10)
    assert rep["m1"] > 0.5 and rep["m2"] == 0.0


def _readme_table_names(header: str) -> set:
    """The backticked names in the first column of the README table under ``header``."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = lines.index(header) + 2  # past the header and its rule
    names = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names.add(line.split("|")[1].strip().strip("`"))
    return names


def test_readme_tables_name_the_runners_and_profiles():
    assert _readme_table_names("| kind | further keys |") == set(cli.RUNNERS)
    assert _readme_table_names("| profile `kind` | keys |") == set(cli.PROFILES)


def test_warnings_reach_the_report(tmp_path):
    # Nyquist ratio 2.5 * 2 / pi = 1.59: both operators of the pair warn with
    # the same message, which the report lists once
    past_nyquist = "grid: {l_xi: 10.0, n: 8, t: 1.0, x: 2.0, m: 5, n_x: 9}\n"
    cfg = write_cfg(
        tmp_path,
        "nyq.yaml",
        f"d: 1\n{past_nyquist}profile: {{kind: gaussian}}\nprofile_g: {{kind: gaussian, width: 0.8}}\n"
        "shift: {tau0: 0.0, xi0: [1.0]}\n",
    )
    outs = [tmp_path / "out1", tmp_path / "out2"]
    for out, threads in zip(outs, ("1", "2")):
        assert main(["quotient", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
    message = "Nyquist condition violated (ratio 1.59); aliased copies of the field may leak into the grid"
    assert read_report(outs[0])["warnings"] == [message]
    assert (outs[1] / "report.json").read_bytes() == (outs[0] / "report.json").read_bytes()


def test_other_warnings_pass_through(tmp_path, monkeypatch):
    # the report takes only ParextWarnings; any other warning reaches the caller
    def noisy(*args, **kwargs):
        warnings.warn("raised elsewhere", RuntimeWarning)
        return [0.0]

    monkeypatch.setattr(cli, "shifted_limit_test", noisy)
    cfg = {"d": 1, **yaml.safe_load(BASE_GRID), "profile": {"kind": "gaussian"},
           "shift": {"tau0": 0.0}, "shifts": [{"tau0": 0.5}]}
    with pytest.warns(RuntimeWarning, match="raised elsewhere"):
        report = run_experiment("shifted-limit", cfg, str(tmp_path / "o"))
    assert report["warnings"] == []


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment("frobnicate", {}, str(tmp_path))
