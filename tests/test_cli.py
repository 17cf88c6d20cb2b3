"""Command-line interface: argument wiring, output shape, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractalwave import cli
from fractalwave import sets as sets_module
from fractalwave.cli import main
from fractalwave.experiments import ScalingRun
from fractalwave.sets import build_cantor


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- sets --------------------------------------------------------------------


def test_sets_basic(capsys):
    code, out, _ = run_cli(capsys, "sets", "--alpha", "1", "--j", "4")
    assert code == 0
    assert "cardinality: 4" in out
    assert "min gap: 0.25" in out
    assert "delta, covering_number" in out
    assert "assouad(delta=0.0625)" in out


def test_sets_requires_alpha_and_j(capsys):
    code, _, err = run_cli(capsys, "sets", "--j", "4")
    assert code == 2
    assert "need --alpha and --j" in err


def test_sets_invalid_alpha_exits_2(capsys):
    code, _, err = run_cli(capsys, "sets", "--alpha", "3", "--j", "4")
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("j", ["0", "-1"])
def test_sets_refuses_j_below_1_before_printing(capsys, j):
    # delta = 2^-j >= 1 leaves the Assouad sweep no scale; nothing may be printed first
    code, out, err = run_cli(capsys, "sets", "--alpha", "1/2", "--j", j)
    assert code == 2
    assert out == ""
    assert "--j" in err


@pytest.mark.parametrize("delta", ["1", "0", "-0.5"])
def test_sets_refuses_delta_outside_unit_interval_before_printing(capsys, delta):
    # delta >= 1 leaves the Assouad sweep no scale, and delta <= 0 is no scale at all
    code, out, err = run_cli(capsys, "sets", "--alpha", "1/2", "--j", "3", "--delta", delta)
    assert code == 2
    assert out == ""
    assert "--delta" in err


@pytest.mark.parametrize("L", ["inf", "nan"])
def test_sets_refuses_a_non_finite_L(capsys, L):
    code, out, err = run_cli(capsys, "sets", "--alpha", "1", "--j", "8", "--L", L)
    assert code == 2
    assert out == ""
    assert "L must be finite" in err


def test_sets_refuses_a_cantor_set_beyond_physical_memory(capsys, monkeypatch):
    # j = 40 gives k = 38, 2^38 points; the builder is gone, so only the guard can answer
    monkeypatch.setattr(sets_module, "_cantor_offsets", None)
    code, out, err = run_cli(capsys, "sets", "--alpha", "1", "--j", "40")
    assert code == 2
    assert out == ""
    assert "2^38 points" in err and "physical memory" in err


def test_sets_refuses_a_cantor_set_whose_gaps_fall_under_the_tolerance(capsys):
    # k = 19 stages of mu = 1/4: 2^19 increasing points, the closest 1.09e-11 apart
    code, out, err = run_cli(capsys, "sets", "--alpha", "1/2", "--j", "40", "--L", "4")
    assert code == 2
    assert out == ""
    assert "minimal gap" in err and "1.09e-11" in err and "tolerance 1e-09" in err


def test_sets_save_and_load(tmp_path, capsys):
    path = tmp_path / "set.json"
    code, out, _ = run_cli(capsys, "sets", "--alpha", "1/2", "--j", "6", "--out", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    want = build_cantor(0.5, 6, L=4.0).points
    assert json.loads(path.read_text()) == list(want)  # the points come back exactly
    code, out, _ = run_cli(capsys, "sets", "--load", str(path), "--delta", "0.3")
    assert code == 0
    assert f"loaded from {path}" in out
    assert "0.3," in out
    assert f"cardinality: {len(want)}\n" in out


@pytest.mark.parametrize(
    "content, where",
    [
        (b"[1.25, ]", ":1:8:"),
        (b"\xff[1.25]", ": 'utf-8' codec"),
        (b'{"a": 1}', ": a time set is a nonempty JSON list of numbers"),
        (b"[true, 1.5]", ": a time set is a nonempty JSON list of numbers"),  # a bool is no time
        (b'[1.25, "1.5"]', ": a time set is a nonempty JSON list of numbers"),
        (b"1.25", ": a time set is a nonempty JSON list of numbers"),
        (b"[]", ": a time set is a nonempty JSON list of numbers"),
        (b"[NaN]", ": time set points must be finite, got nan"),  # Python's json reads NaN
        (b"[1.0, NaN, 1.5]", ": time set points must be finite, got nan"),
        (b"[Infinity]", ": time set points must be finite, got inf"),
    ],
)
def test_sets_load_names_a_broken_file(tmp_path, capsys, content, where):
    path = tmp_path / "set.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "sets", "--load", str(path))
    assert code == 2
    assert f"{path}{where}" in err and out == ""


def test_sets_builds_the_stage_0_set_when_mu_underflows(capsys):
    # mu = 2^-100000 is 0.0 and k = 0: the set is {2}, which has no gap to compute
    code, out, err = run_cli(capsys, "sets", "--alpha", "1e-5", "--j", "4")
    assert code == 0 and err == ""
    assert "(k=0)" in out and "cardinality: 1\n" in out and "min gap: inf" in out


def test_sets_refuses_a_stage_count_too_large_for_a_float(capsys):
    # 2^499999 points: the byte count overflows a float, and is still named
    code, out, err = run_cli(capsys, "sets", "--alpha", "1/2", "--j", "1000000")
    assert code == 2 and out == ""
    assert err.startswith("fractalwave sets: a Cantor set of 2^499999 points needs about 4.45e+150507 GiB, ")
    assert err.count("\n") == 1 and "physical memory" in err


# --- thresholds / regions ----------------------------------------------------


def test_thresholds_stdout_csv(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--alpha", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "," in lines[0]
    assert "10/3" in out and "14/3" in out


def test_thresholds_json_out(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "thresholds", "--alpha", "1", "--out", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    json.loads(path.read_text())


@pytest.mark.parametrize("argv, r0", [
    (("thresholds", "--alpha", "1", "--r", "8/3"), "8/3"),  # the denominator vanishes
    (("thresholds", "--alpha", "1", "--r", "5/2"), "8/3"),  # ... and is negative below
    (("regions", "--alpha", "1/2", "--fig", "3", "--r", "5/2"), "5/2"),
])
def test_r_at_or_below_r0_is_refused(capsys, argv, r0):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"r must exceed r0 = 2(3 alpha + d - 1)/(2 alpha + d - 1) = {r0}" in err


def test_sets_with_a_delta_below_an_ulp_of_the_points_returns():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "fractalwave", "sets", "--alpha", "1", "--j", "4", "--delta", "1e-17"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert "1e-17, 4" in proc.stdout.splitlines()


def test_thresholds_json_bytes(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, _, _ = run_cli(capsys, "thresholds", "--alpha", "5/6", "--r", "4", "--out", str(path))
    assert code == 0
    doc = {
        "d": 2, "alpha": [5, 6], "q_circ": [10, 3], "q_star": [13, 3], "p_star": [13, 5],
        "q_tilde_circ": [13, 4], "q_tilde_star": [103, 24], "q_alpha": [14, 3],
        "p_alpha": [7, 3], "q_star_r": [42, 11], "r": [4, 1],
    }
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    code, out, _ = run_cli(capsys, "thresholds", "--alpha", "5/6", "--r", "4")
    assert out.splitlines()[-2:] == ["q_star_r,42/11,3.81818181818", "r,4,4"]


def test_regions_json_bytes(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, out, _ = run_cli(capsys, "regions", "--fig", "3", "--alpha", "1/2", "--out", str(path))
    assert code == 0
    assert out == f"wrote {path}\n"
    elements = [
        ("p_equals_q", "polyline", [[[0, 1], [0, 1]], [[1, 2], [1, 2]]]),
        ("critical_line", "polyline", [[[1, 3], [1, 3]], [[1, 1], [0, 1]]]),
        ("s2_s3_boundary", "polyline", [[[1, 2], [1, 2]], [[1, 1], [0, 1]]]),
        ("p_equals_1", "polyline", [[[1, 1], [0, 1]], [[1, 1], [1, 1]]]),
        ("corner", "point", [[[1, 3], [1, 3]]]),
        ("interpolation_segment", "polyline", [[[1, 4], [1, 4]], [[1, 2], [1, 3]]]),
        ("q_tilde_circ_mark", "point", [[[1, 2], [1, 3]]]),
        ("one_over_r", "tick", [[[0, 1], [1, 4]]]),
        ("q_star_r_mark", "tick", [[[0, 1], [3, 10]]]),
    ]
    doc = [{"label": label, "kind": kind, "points": points} for label, kind, points in elements]
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_regions_point_membership(capsys):
    code, out, _ = run_cli(
        capsys, "regions", "--alpha", "1", "--mu", "1", "--point", "2/5", "1/5"
    )
    assert code == 0
    assert "boundary_Q" in out


@pytest.mark.parametrize("argv, message", [
    ((), "fractalwave regions: need --alpha"),
    (("--mu", "1"), "fractalwave regions: need --alpha"),
    (("--point", "1/2", "1/2"), "fractalwave regions: need --mu and --alpha with --point"),
    (("--alpha", "1", "--point", "1/2", "1/2"), "fractalwave regions: need --mu with --point"),
    (("--mu", "1", "--point", "1/2", "1/2"), "fractalwave regions: need --alpha with --point"),
], ids=["plot", "plot-mu", "point", "point-alpha", "point-mu"])
def test_regions_names_the_missing_option(capsys, argv, message):
    """Plot data needs --alpha and a point needs --mu and --alpha: without them regions
    exits 2 naming the options, before any spec is made."""
    code, out, err = run_cli(capsys, "regions", *argv)
    assert code == 2 and out == ""
    assert err.strip() == message


def test_regions_plot_data(capsys):
    code, out, _ = run_cli(capsys, "regions", "--alpha", "1", "--mu", "1", "--fig", "1")
    assert code == 0
    assert len(out.strip().splitlines()) > 3


# --- operators ---------------------------------------------------------------


def test_operator_battery_passes(capsys):
    code, out, _ = run_cli(capsys, "operators", "--n", "256")
    assert code == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [["--t", "1.13"], ["--j", "2", "--t", "1.3"]])
def test_operator_battery_checks_dominance_at_the_times_the_maximal_function_keeps(capsys, argv):
    # thinning {1.1, t, 1.9} to a 2^-j-net drops t here, so the maximal
    # function does not dominate the average at t, and is not checked there
    code, out, _ = run_cli(capsys, "operators", *argv)
    assert code == 0
    assert "PASS  maximal function dominates averages" in out and "FAIL" not in out


@pytest.mark.parametrize("n", [256, 512])
def test_operator_battery_peak_stays_under_the_preflight_estimate(capsys, traced_peak, n):
    m = 256
    code, peak = traced_peak(main, ["operators", "--n", str(n), "--m", str(m)])
    assert code == 0
    assert peak < 16 * n * (cli._BATTERY_FIELDS * n + 3 * m)


def test_operators_refuses_a_grid_beyond_physical_memory(capsys, monkeypatch):
    # n = 2^20: one field is 16 TiB; the builder is gone, so only the guard can answer
    monkeypatch.setattr(cli, "random_field", None)
    code, out, err = run_cli(capsys, "operators", "--n", str(2**20))
    assert code == 2
    assert out == ""
    assert "n=1048576" in err and "physical memory" in err


@pytest.mark.parametrize("argv, message", [
    (("--m", "10"), "quadrature needs m >= 64 points"),
    (("--t", "0"), "outside (0, period/4]"),
    (("--t", "3"), "outside (0, period/4]"),
    (("--t", "0.5"), "time set must lie in [1, 2]"),
    (("--j", "6"), "alias guard"),
    # 2 * 2^-2 = 0.5 is below the first lattice frequency 2 pi / 8: the projected field would be zero
    (("--j", "-2"), "empty band: 2 * 2^-2 is at or below the lowest lattice frequency 2 pi / period = 0.785398; "
                    "min admissible j is -1"),
])
def test_operators_refuses_bad_arguments_before_drawing_the_field(capsys, monkeypatch, argv, message):
    # the builder is gone: a missed guard fails on None, not on the argument
    monkeypatch.setattr(cli, "random_field", None)
    code, out, err = run_cli(capsys, "operators", "--n", "256", *argv)
    assert code == 2
    assert out == ""
    assert message in err


# --- scaling / report --------------------------------------------------------


@pytest.fixture
def quick_config(tmp_path):
    cfg = {
        "family": "radial_focusing", "p": "2", "q": "2", "alpha": "1",
        "set_kind": "single_time", "j_min": 4, "j_max": 6, "label": "cli_demo",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_scaling_run_and_report(tmp_path, capsys, quick_config):
    out_dir = tmp_path / "runs"
    code, out, _ = run_cli(capsys, "scaling", "--config", str(quick_config), "--out", str(out_dir))
    assert code == 0
    assert "verdict: consistent" in out
    assert "seed" not in out
    assert (out_dir / "cli_demo.json").exists()
    assert (out_dir / "cli_demo.csv").exists()

    code, out, _ = run_cli(capsys, "report", "--dir", str(out_dir))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,family,p,q,alpha,slope,predicted,residual,verdict"
    assert lines[1].startswith("cli_demo,radial_focusing,2,2,1,")


def test_scaling_missing_config(tmp_path, capsys):
    path = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "scaling", "--config", str(path))
    assert code == 2
    assert str(path) in err


def test_scaling_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "scaling", "--config", str(bad))
    assert code == 2


def test_scaling_rejects_cantor_time_L_below_one(tmp_path, capsys):
    cfg = {"family": "knapp", "p": "5/2", "q": "5", "set_kind": "cantor", "time_L": 0.5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "scaling", "--config", str(path))
    assert code == 2
    assert f"{path}: cantor time sets need time_L >= 1" in err
    assert out == ""


def test_scaling_rejects_bad_alpha_before_running(tmp_path, capsys):
    cfg = {"family": "knapp", "p": "5/2", "q": "5", "alpha": "3/2", "set_kind": "cantor"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "scaling", "--config", str(path))
    assert code == 2
    assert f"{path}: cantor time sets need alpha in (0, 1]" in err
    assert out == ""


def test_scaling_out_is_checked_before_the_first_level(tmp_path, capsys):
    cfg = {"family": "knapp", "p": "5/2", "q": "5", "j_min": 2, "j_max": 4, "time_L": 2.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run_cli(capsys, "scaling", "--config", str(path), "--out", str(taken))
    assert code == 2
    assert "j=" not in out
    assert str(taken) in err


def test_scaling_rejects_grid_beyond_physical_memory(tmp_path, capsys):
    cfg = {"family": "knapp", "p": "5/2", "q": "5", "j_max": 16}  # n = 2^20: one field is 16 TiB
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "scaling", "--config", str(path))
    assert code == 2
    assert f"{path}: j=16 needs n > 8192" in err and "physical memory" in err
    assert out == ""


def test_scaling_rejects_a_zero_denominator(tmp_path, capsys):
    (path,) = _configs(tmp_path, {"family": "knapp", "p": "1/0", "q": "5"})
    code, out, err = run_cli(capsys, "scaling", "--config", path)
    assert code == 2
    assert f"{path}: zero denominator" in err
    assert out == ""


@pytest.mark.parametrize("key, value", [("n", 4096), ("period", 6.0), ("tolerance", 0.2)])
def test_scaling_rejects_a_legacy_key_the_run_would_not_honour(tmp_path, capsys, key, value):
    cfg = {"family": "knapp", "p": "5/2", "q": "5", "j_min": 2, "j_max": 4, "time_L": 2.0, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "scaling", "--config", str(path))
    assert code == 2
    assert f"{path}: {key!r} is {value!r}" in err
    assert out == ""  # no level ran


TINY = {"family": "knapp", "p": "5/2", "q": "5", "j_min": 2, "j_max": 4, "time_L": 2.0}


def _configs(tmp_path, *docs):
    """Write each doc (a dict, raw text, or None for no file) to cfg<i>.json."""
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"cfg{i}.json"
        if doc is not None:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        paths.append(str(path))
    return paths


def test_scaling_runs_several_configs_and_report_lists_them(tmp_path, capsys, quick_config):
    out_dir = tmp_path / "runs"
    paths = [str(quick_config), *_configs(tmp_path, dict(TINY, label="tiny"))]
    code, out, _ = run_cli(capsys, "scaling", "--config", *paths, "--out", str(out_dir))
    assert code == 0
    assert out.count("verdict: consistent") == 2
    assert out.index("family=radial_focusing") < out.index("family=knapp")
    for stem in ("cli_demo", "tiny"):
        assert (out_dir / f"{stem}.json").exists() and (out_dir / f"{stem}.csv").exists()

    code, out, _ = run_cli(capsys, "report", "--dir", str(out_dir))
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["cli_demo", "tiny"]


def test_scaling_exits_1_when_any_verdict_is_not_consistent(tmp_path, capsys, monkeypatch):
    real = cli.run_scaling

    def run_scaling(config):
        run = real(config)
        if config.label != "b":
            return run
        return ScalingRun(config, tuple((j, size, 3.0 * j) for j, size, _ in run.levels))  # too steep

    monkeypatch.setattr(cli, "run_scaling", run_scaling)
    paths = _configs(tmp_path, dict(TINY, label="a"), dict(TINY, label="b"), dict(TINY, label="c"))
    code, out, _ = run_cli(capsys, "scaling", "--config", *paths)
    assert code == 1
    assert out.count("verdict: consistent") == 2 and "verdict: inconclusive" in out


@pytest.mark.parametrize(
    "second, message",
    [
        # each id keeps the name the case had while the reason followed "bad config: "
        pytest.param(dict(TINY, alpha="3/2"), "{path}: cantor time sets need alpha in (0, 1]", id="second0-bad config"),
        pytest.param(dict(TINY, p="1/2"), "{path}: p and q must be >= 1",
                     id="second1-bad config: {path}: p and q must be >= 1"),
        pytest.param(dict(TINY, q="0"), "{path}: p and q must be >= 1",
                     id="second2-bad config: {path}: p and q must be >= 1"),
        pytest.param(dict(TINY, j_min=2.0), "{path}: j_min must be an integer",
                     id="second3-bad config: {path}: j_min must be an integer"),
        pytest.param(dict(TINY, time_L=float("inf")), "{path}: time_L must be finite",
                     id="second4-bad config: {path}: time_L must be finite"),
        pytest.param(dict(TINY, time_L=float("nan")), "{path}: time_L must be finite",
                     id="second5-bad config: {path}: time_L must be finite"),
        pytest.param(dict(TINY, label="sub/run"), "{path}: label must be a file name",
                     id="second6-bad config: {path}: label must be a file name"),
        pytest.param(dict(TINY, label=".."), "{path}: label must be a file name",
                     id="second7-bad config: {path}: label must be a file name"),
        # a JSON true is an int to Python, but no number of a config
        (dict(TINY, q=True), "{path}: exact rational expected, got bool True"),
        (dict(TINY, alpha=True), "{path}: exact rational expected, got bool True"),
        (dict(TINY, time_L=True), "{path}: time_L must be a number, got True"),
        ("{not json", ":1:2:"),
        ("[]", "JSON object"),
        (None, "No such file"),
        # 2 * 2^j_min at or below 2 pi / 8: the projected field would be zero
        pytest.param(dict(TINY, j_min=-3), "{path}: empty band: 2 * 2^-3",
                     id="second11-bad config: {path}: empty band: 2 * 2^-3"),
        pytest.param(dict(TINY, j_min=-2), "{path}: empty band: 2 * 2^-2 is at or below the lowest lattice frequency "
                                           "2 pi / period = 0.785398; min admissible j is -1",
                     id="second12-bad config: {path}: empty band: 2 * 2^-2 is at or below the lowest lattice "
                        "frequency 2 pi / period = 0.785398; min admissible j is -1"),
    ],
)
def test_scaling_checks_every_config_before_the_first_level(tmp_path, capsys, second, message):
    paths = _configs(tmp_path, TINY, second)
    code, out, err = run_cli(capsys, "scaling", "--config", *paths)
    assert code == 2
    assert message.format(path=paths[1]) in err and paths[1] in err
    assert out == ""  # no level ran


def test_scaling_runs_from_the_lowest_admissible_j_min(tmp_path, capsys):
    (path,) = _configs(tmp_path, dict(TINY, j_min=-1, j_max=1))
    code, out, _ = run_cli(capsys, "scaling", "--config", path)
    assert code in (0, 1)  # a verdict, not a refusal
    assert "j=-1: log2 ratio" in out and "j=1: log2 ratio" in out


@pytest.mark.parametrize(
    "first, second, stem",
    [
        (dict(TINY, label="same"), dict(TINY, label="same", j_max=5), "same"),
        (TINY, dict(TINY, j_min=3, j_max=5), "knapp_5over2_5"),
    ],
)
def test_scaling_refuses_two_configs_with_one_output_stem(tmp_path, capsys, first, second, stem):
    paths = _configs(tmp_path, first, second)
    code, out, err = run_cli(capsys, "scaling", "--config", *paths, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert repr(stem) in err
    assert out == "" and not (tmp_path / "runs").exists()


def test_report_empty_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--dir", str(tmp_path))
    assert code == 2


def test_report_names_a_broken_run_file(tmp_path, capsys):
    (tmp_path / "broken.json").write_text('{"config": }')
    code, out, err = run_cli(capsys, "report", "--dir", str(tmp_path))
    assert code == 2
    assert "broken.json:1:12:" in err and out == ""


@pytest.fixture
def tiny_run_dir(tmp_path, capsys):
    """A directory holding one persisted run of the tiny Knapp config."""
    out_dir = tmp_path / "runs"
    (cfg,) = _configs(tmp_path, dict(TINY, label="tiny"))
    assert run_cli(capsys, "scaling", "--config", cfg, "--out", str(out_dir))[0] == 0
    return out_dir


def test_report_derives_the_fit_from_the_stored_levels(tiny_run_dir, capsys):
    path = tiny_run_dir / "tiny.json"
    doc = json.loads(path.read_text())
    doc["measured"] = [[j, 3.0 * j] for j, _ in doc["measured"]]  # rises with slope 3; stored fit untouched
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "report", "--dir", str(tiny_run_dir))
    assert code == 0
    assert out.splitlines()[1] == "tiny,knapp,5/2,5,1,3.000000,1/2,0.000000,inconclusive"


def test_report_names_a_run_with_a_zero_denominator(tiny_run_dir, capsys):
    path = tiny_run_dir / "tiny.json"
    doc = json.loads(path.read_text())
    doc["config"]["q"] = "16/0"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "report", "--dir", str(tiny_run_dir))
    assert code == 2
    assert f"{path}: zero denominator" in err and out == ""


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_report_calls_a_non_finite_level_inconclusive(tiny_run_dir, capsys, bad):
    path = tiny_run_dir / "tiny.json"
    doc = json.loads(path.read_text())
    doc["measured"][1][1] = float(bad)
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
    code, out, _ = run_cli(capsys, "report", "--dir", str(tiny_run_dir))
    assert code == 0
    assert out.splitlines()[1] == "tiny,knapp,5/2,5,1,nan,1/2,nan,inconclusive"


def test_report_refuses_a_run_whose_levels_do_not_match(tiny_run_dir, capsys):
    path = tiny_run_dir / "tiny.json"
    doc = json.loads(path.read_text())
    del doc["time_sets"][1]
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "report", "--dir", str(tiny_run_dir))
    assert code == 2
    assert f"{path}: time_sets lists the levels" in err and out == ""


@pytest.mark.parametrize(
    "key, rows",
    [
        ("time_sets", [[2.9, 1.5], [3, 4], [4, 8]]),
        ("measured", [[2.9, 0.1], [3, 0.5], [4, 1.0]]),
        ("measured", [[2, 0.1], [3, "0.2"], [4, 1.0]]),
        ("measured", [[7, 0.1], [8, 0.2], [9, 0.3]]),
        ("time_sets", [[2, -3], [3, 0], [4, 8]]),  # the config's E_j hold 2, 4 and 8 points
    ],
    ids=["a fractional level", "a fractional j", "a string", "levels beyond the config",
         "set sizes the config cannot produce"],
)
def test_report_refuses_rows_it_would_have_to_coerce(tiny_run_dir, capsys, key, rows):
    path = tiny_run_dir / "tiny.json"
    doc = json.loads(path.read_text())
    doc[key] = rows
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "report", "--dir", str(tiny_run_dir))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"fractalwave report: {path}: {key} ")


# --- verify ------------------------------------------------------------------


def test_verify_marginal(capsys):
    code, out, _ = run_cli(capsys, "verify", "marginal", "--alpha", "1", "--kmax", "8")
    assert code == 0
    assert "certified" in out


@pytest.mark.parametrize("alpha", ["0", "-1/2", "3/2"])
def test_verify_marginal_refuses_alpha_outside_the_unit_interval(capsys, alpha):
    code, out, err = run_cli(capsys, "verify", "marginal", f"--alpha={alpha}")
    assert code == 2
    assert "alpha must be in (0, 1]" in err and out == ""


@pytest.mark.parametrize("alpha, kmax, k", [("1/1000", "2", 2), ("1/70", "16", 16)])
def test_verify_marginal_refuses_a_stage_whose_first_term_underflows(capsys, alpha, kmax, k):
    code, out, err = run_cli(capsys, "verify", "marginal", "--alpha", alpha, "--kmax", kmax)
    assert code == 2 and out == ""
    assert err == f"fractalwave verify: mu^k = 2^(-k/alpha) underflows to 0.0 at alpha = {alpha}, k = {k}\n"


def test_verify_locally_constant(capsys):
    code, out, _ = run_cli(capsys, "verify", "locally-constant", "--order", "4")
    assert code == 0
    assert "order M=4  u = 2^j dt in {0, 1/2, 1}, every j" in out and "certified" in out


def test_verify_locally_constant_ignores_the_retired_level_options(capsys):
    # C_M is the same at every j, so --jmin and --jmax change nothing, even
    # as an empty range; they stay accepted and out of --help
    want = run_cli(capsys, "verify", "locally-constant", "--order", "4")
    got = run_cli(capsys, "verify", "locally-constant", "--order", "4", "--jmin", "9", "--jmax", "8")
    assert got == want
    with pytest.raises(SystemExit) as exc:
        main(["verify", "locally-constant", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--order" in out and "--jmin" not in out and "--jmax" not in out


def test_verify_whitney(capsys):
    code, out, _ = run_cli(capsys, "verify", "whitney", "--numax", "4")
    assert code == 0


def test_verify_necessity(capsys):
    code, out, _ = run_cli(capsys, "verify", "necessity", "--alpha", "1/2")
    assert code == 0


def test_verify_whitney_refuses_a_decomposition_with_no_separated_pair(capsys):
    code, out, err = run_cli(capsys, "verify", "whitney", "--numax", "1")
    assert code == 2 and out == ""
    assert err == "fractalwave verify: decomposition has no separated pairs\n"


def test_verify_necessity_certifies_a_stage_0_time_set(capsys):
    # mu = 2^-1000000 is 0.0, so every delta's Cantor set is its stage-0 point
    code, out, err = run_cli(capsys, "verify", "necessity", "--alpha", "1/1000000")
    assert code == 0 and err == ""
    assert "necessity suite: certified" in out


# --- argparse plumbing -------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("thresholds", "--alpha", "1", "--out"),
        ("sets", "--load"),
        ("scaling", "--config"),
    ],
)
def test_os_errors_exit_2(tmp_path, capsys, argv):
    code, _, err = run_cli(capsys, *argv, str(tmp_path))  # a directory where a file belongs
    assert code == 2
    assert "Is a directory" in err


def test_main_is_the_only_code_that_reports_a_refusal():
    """A handler refuses by raising; only main writes to stderr and chooses exit 2,
    so every refusal is one line, ``fractalwave <command>: <reason>``."""
    offenders = []
    for fn in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "stderr" and getattr(node.value, "id", None) == "sys":
                offenders.append(f"{fn.name} writes to sys.stderr at line {node.lineno}")
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 2:
                offenders.append(f"{fn.name} returns 2 at line {node.lineno}")
    assert offenders == []


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sets", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (("verify", "marginal", "--alpha", "-1/2"), "alpha must be in (0, 1], got -1/2"),
    (("thresholds", "--alpha", "1", "--r", "-3/2"), "r must exceed r0 = 2(3 alpha + d - 1)/(2 alpha + d - 1) = 8/3"),
    (("regions", "--alpha", "1", "--mu", "1", "--point", "-1/2", "1/4"), "(1/p, 1/q) must lie in [0,1]^2"),
], ids=["verify-alpha", "thresholds-r", "regions-point"])
def test_a_negative_rational_after_an_option_reaches_its_range_check(capsys, argv, message):
    """A negative rational is an option's value, not a flag: it reaches the option's own
    range check, which exits 2 with its message."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "expected" not in err


def test_a_rational_with_a_zero_denominator_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--alpha", "1/0"])
    assert exc.value.code == 2
    assert "not a rational number: '1/0'" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["dance"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_console_script_installed():
    proc = subprocess.run(
        ["fractalwave", "thresholds", "--alpha", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "10/3" in proc.stdout


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "fractalwave", "thresholds", "--alpha", "1"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert "10/3" in proc.stdout
