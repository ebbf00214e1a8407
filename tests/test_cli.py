import json
import math

import pytest

from parext.cli import main, run_experiment
from parext.errors import ConfigError

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
    assert (out / "run_meta.json").exists()


def test_byte_identical_across_threads_and_reruns(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "q.yaml",
        f"d: 1\np: 2.0\n{BASE_GRID}\n"
        "profile: {kind: gaussian, width: 1.0}\n"
        "profile_g: {kind: gaussian, width: 0.8}\n"
        "shift: {tau0: 0.0, xi0: [1.0]}\n",
    )
    outs = [tmp_path / f"out{i}" for i in range(3)]
    for out, threads in zip(outs, ("1", "4", "1")):
        assert main(["quotient", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
    ref_report = (outs[0] / "report.json").read_bytes()
    ref_csv = (outs[0] / "quotient.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "report.json").read_bytes() == ref_report
        assert (out / "quotient.csv").read_bytes() == ref_csv


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
        pytest.param("verify-symmetry", SHIFT + "box: {lam_min: -1}\n", "lam_min", id="lam_min-negative"),
        pytest.param(
            "quotient", "profile_g: {kind: bump}\nshift: {tau0: 0.0, xi0: 1.0}\n", "xi0", id="xi0-scalar"
        ),
    ],
)
def test_stray_key_or_malformed_value_exits_2(tmp_path, capsys, kind, extra, key):
    cfg = write_cfg(
        tmp_path, "cfg.yaml", f"d: 1\n{BASE_GRID}\nprofile: {{kind: gaussian}}\n{extra}"
    )
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment("frobnicate", {}, str(tmp_path))
