"""End-to-end command-line coverage, run in process."""

import argparse
import gc
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import netcov
from netcov import checks, cli, nets
from netcov.digits import ConfigurationError
from netcov.estimators import MAX_POINTS
from netcov.nets import (
    MAX_POINT_DIGITS,
    MAX_PROFILE_WORK,
    MAX_VERIFY_WORK,
    PROFILE_SHAPE_COST,
    PointSet,
    check_point_digits,
    load_point_set,
    save_point_set,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_net_file(tmp_path, capsys, b=2, m=2, s=2, name="net.txt"):
    path = tmp_path / name
    code, _, _ = run(capsys, "net", "gen", "--base", str(b), "--m", str(m),
                     "--s", str(s), "--out", str(path))
    assert code == 0
    return path


def test_net_gen_writes_a_loadable_file(tmp_path, capsys):
    path = gen_net_file(tmp_path, capsys)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "2 2 2 0 2"
    with open(path, encoding="utf-8") as fh:
        ps = load_point_set(fh)
    assert ps.n == 4 and ps.s == 2


def test_net_gen_rejects_composite_base(tmp_path, capsys):
    code, _, err = run(capsys, "net", "gen", "--base", "4", "--m", "1",
                       "--s", "1", "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_net_gen_rejects_bases_past_the_text_digits(tmp_path, capsys):
    code, _, err = run(capsys, "net", "gen", "--base", "67", "--m", "1",
                       "--s", "1", "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert err.startswith("error:")
    # the writer also refuses P = 0, which the reader refuses, and writes nothing
    code, _, err = run(capsys, "net", "gen", "--base", "2", "--m", "0", "--s", "1",
                       "--precision", "0", "--out", str(tmp_path / "p0.txt"))
    assert (code, err) == (2, "error: need P >= 1 to write a point file, got P=0\n")
    # the one-point net m = 0 defaults to one digit
    one_point = tmp_path / "m0.txt"
    assert run(capsys, "net", "gen", "--base", "2", "--m", "0", "--s", "1",
               "--out", str(one_point))[0] == 0
    assert one_point.read_text(encoding="utf-8") == "2 0 1 0 1\n0\n"
    code, out, err = run(capsys, "scramble", "--precision", "0", "--out-prefix",
                         str(tmp_path / "rep"), str(one_point))
    assert (code, out) == (2, "") and "P >= 1" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m0.txt"]


def test_net_verify_passes_a_real_net(tmp_path, capsys):
    path = gen_net_file(tmp_path, capsys)
    code, out, _ = run(capsys, "net", "verify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["t"] == 0
    assert "failure" not in doc


def test_net_verify_flags_a_broken_set(tmp_path, capsys):
    path = gen_net_file(tmp_path, capsys)
    with open(path, encoding="utf-8") as fh:
        ps = load_point_set(fh)
    digits = np.array(ps.digits)
    digits[1] = digits[0]  # duplicate a point; counts stay loadable
    broken = PointSet(b=ps.b, m=ps.m, s=ps.s, t=ps.t, digits=digits)
    with open(path, "w", encoding="utf-8") as fh:
        save_point_set(broken, fh)
    code, out, _ = run(capsys, "net", "verify", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert "failure" in doc


def test_net_verify_relaxed_quality(tmp_path, capsys):
    path = gen_net_file(tmp_path, capsys)
    code, out, _ = run(capsys, "net", "verify", "--t", "1", str(path))
    assert code == 0
    assert json.loads(out)["t"] == 1


@pytest.mark.parametrize("t", ["-1", "7"])
def test_net_verify_refuses_t_outside_0_to_m(tmp_path, capsys, t):
    path = tmp_path / "net.txt"
    run(capsys, "net", "gen", "--base", "2", "--m", "3", "--s", "2",
        "--precision", "6", "--out", str(path))
    code, out, err = run(capsys, "net", "verify", "--t", t, str(path))
    assert (code, out) == (2, "")
    assert f"t={t} must lie in 0..m=3" in err


def test_net_verify_takes_a_net_in_a_thousand_dimensions(tmp_path, capsys):
    # two points, all 0 digits and all 1 digits: a (0,1,1000)-net in base 2
    path = tmp_path / "wide.txt"
    path.write_text("2 1 1000 0 1\n" + " ".join("0" * 1000) + "\n"
                    + " ".join("1" * 1000) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "net", "verify", str(path))
    assert code == 0
    assert json.loads(out)["shapes_checked"] == 1001


def test_net_verify_refuses_a_wide_walk_at_once(tmp_path, capsys):
    # 256 random points in 40 dimensions: C(48, 8) shapes of 1,280 units
    # each, refused before the walk
    rng = np.random.default_rng(0)
    path = tmp_path / "wide.txt"
    path.write_text("2 8 40 0 8\n" + "".join(
        " ".join("".join(map(str, c)) for c in point) + "\n"
        for point in rng.integers(0, 2, (256, 40, 8))), encoding="utf-8")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "net", "verify", str(path))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert f"verifying 377348994 shapes of 256 points needs more than {MAX_VERIFY_WORK}" in err


def test_net_verify_reports_corrupt_files(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("bogus header\n", encoding="utf-8")
    code, _, err = run(capsys, "net", "verify", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_scramble_replications_and_determinism(tmp_path, capsys):
    net = gen_net_file(tmp_path, capsys)
    prefix_a = str(tmp_path / "a_rep")
    prefix_b = str(tmp_path / "b_rep")
    code, _, _ = run(capsys, "scramble", "--seed", "5", "--reps", "2",
                     "--out-prefix", prefix_a, str(net))
    assert code == 0
    # global --seed spells the same scramble as the subcommand flag
    code, _, _ = run(capsys, "--seed", "5", "scramble", "--reps", "2",
                     "--out-prefix", prefix_b, str(net))
    assert code == 0
    rep0 = (tmp_path / "a_rep000.txt").read_text(encoding="utf-8")
    rep1 = (tmp_path / "a_rep001.txt").read_text(encoding="utf-8")
    assert rep0 != rep1
    assert rep0 == (tmp_path / "b_rep000.txt").read_text(encoding="utf-8")
    assert rep1 == (tmp_path / "b_rep001.txt").read_text(encoding="utf-8")


def test_scramble_stdout_and_seed_sensitivity(tmp_path, capsys):
    net = gen_net_file(tmp_path, capsys)
    _, out_a, _ = run(capsys, "scramble", "--seed", "1", str(net))
    _, out_b, _ = run(capsys, "scramble", "--seed", "2", str(net))
    assert out_a != out_b
    assert out_a.splitlines()[0].startswith("2 2 2 0 ")


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_scramble_needs_a_replication(tmp_path, capsys, reps):
    net = gen_net_file(tmp_path, capsys)
    code, out, err = run(capsys, "scramble", "--reps", reps,
                         "--out-prefix", str(tmp_path / "rep"), str(net))
    assert code == 2
    assert "replication count must be >= 1" in err
    assert out == ""
    assert not list(tmp_path.glob("rep*"))


def test_psi_profile_counts(tmp_path, capsys):
    net = gen_net_file(tmp_path, capsys)
    code, out, _ = run(capsys, "psi", "profile", str(net))
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"0,0": 4, "0,1": 4, "1,0": 4}
    assert doc["total_pairs"] == 12


def test_psi_eval_density_at_a_pair(tmp_path, capsys):
    net = gen_net_file(tmp_path, capsys, b=2, m=3, s=2, name="net32.txt")
    code, out, _ = run(capsys, "psi", "eval", "--x", "0,0",
                       "--y", "1/2,1/2", str(net))
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == [0, 0]
    assert doc["gamma_total"] == 0
    assert doc["pdf"] == "8/7"
    assert doc["pdf_float"] == pytest.approx(8 / 7)


def test_psi_eval_coincident_points(tmp_path, capsys):
    net = gen_net_file(tmp_path, capsys)
    code, out, _ = run(capsys, "psi", "eval", "--x", "0,0", "--y", "0,0",
                       str(net))
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == ["AT_LEAST_P", "AT_LEAST_P"]
    assert doc["gamma_total"] == "AT_LEAST_P"
    assert doc["pdf"] == "0"


@pytest.mark.parametrize("coords", ["abc", "", "1/0"])
def test_psi_eval_refuses_a_coordinate_that_is_not_rational(tmp_path, capsys,
                                                             coords):
    net = gen_net_file(tmp_path, capsys)
    code, out, err = run(capsys, "psi", "eval", "--x", coords, "--y", "0,0",
                         str(net))
    assert (code, out) == (2, "")
    assert err == f"error: not a rational number: {coords!r}\n"


@pytest.mark.parametrize("x,y,message", [
    ("0,2", "0,0", "coordinate 2 outside [0,1)"),
    ("0,0", "1/2,1/2,1/2", "dimension mismatch: 2 vs 3"),
    ("0", "1/2", "dimension mismatch: 1 vs 2"),
], ids=["range", "x-against-y", "against-the-file"])
def test_psi_eval_refuses_a_bad_pair_before_the_profile(tmp_path, capsys,
                                                        monkeypatch, x, y, message):
    net = gen_net_file(tmp_path, capsys)

    def fail(ps):
        raise AssertionError("the profile was built")

    monkeypatch.setattr(cli, "pair_profile", fail)
    code, out, err = run(capsys, "psi", "eval", "--x", x, "--y", y, str(net))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_covpoly_json_document(capsys):
    code, out, _ = run(capsys, "covpoly", "--base", "2", "--m", "1",
                       "--s", "2", "--a", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"1": "-1", "2": "1/4"}
    assert doc["a"] == "1/2"
    assert doc["basis"] == "bx"


def test_covpoly_scan_matches_witness_scan_bytewise(capsys):
    # at the critical weight the unscaled polynomial scan and the beta-form
    # scan must print identical bytes; m=2 keeps the check non-degenerate
    _, cov_out, _ = run(capsys, "covpoly", "--base", "2", "--m", "2",
                        "--s", "2", "--a", "1/2", "--x-grid", "0:1:1/8")
    _, q_out, _ = run(capsys, "qscan", "--base", "2", "--m", "2", "--s", "2",
                      "--x-grid", "0:1:1/8")
    assert cov_out == q_out


def test_covpoly_scale_divides_by_pair_count(capsys):
    _, raw, _ = run(capsys, "covpoly", "--base", "2", "--m", "2", "--s", "2",
                    "--a", "1/2", "--x-grid", "0:1:1/8")
    _, scaled, _ = run(capsys, "covpoly", "--base", "2", "--m", "2", "--s", "2",
                       "--a", "1/2", "--x-grid", "0:1:1/8",
                       "--scale", "inv-nm1")
    for line_r, line_s in zip(raw.splitlines()[1:], scaled.splitlines()[1:]):
        v_r = float(line_r.split(",")[1])
        v_s = float(line_s.split(",")[1])
        assert v_s == pytest.approx(v_r / 3, rel=1e-12, abs=1e-300)


def test_qscan_pinned_values(capsys):
    code, out, _ = run(capsys, "qscan", "--base", "2", "--m", "1", "--s", "2",
                       "--x-grid", "0:1:1/4")
    assert code == 0
    assert out.splitlines() == [
        "x,value",
        "0.0,0.0",
        "0.25,-0.4375",
        "0.5,-0.75",
        "0.75,-0.9375",
        "1.0,-1.0",
    ]


def test_qscan_refuses_x_outside_the_unit_interval(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code, stdout, err = run(capsys, "qscan", "--base", "2", "--m", "1",
                            "--s", "1", "--x-grid", "0:2:1/2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: x must lie in [0,1], got 3/2\n"
    assert not out.exists()


def test_qscan_names_a_first_bad_x_below_zero(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code, stdout, err = run(capsys, "qscan", "--base", "2", "--m", "1",
                            "--s", "1", "--x-grid=-1/2:1:1/2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: x must lie in [0,1], got -1/2\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0:1:0", "1:0:1/2"])
def test_grid_bounds_are_checked(capsys, grid):
    # a zero step or hi below lo is refused while the arguments are parsed
    with pytest.raises(SystemExit) as exc:
        cli.main(["qscan", "--base", "2", "--m", "1", "--s", "1", "--x-grid", grid])
    assert exc.value.code == 2
    assert f"bad grid bounds in {grid!r}" in capsys.readouterr().err


def test_a_grid_from_a_negative_lo_is_passed_with_an_equals_sign(capsys):
    # argparse reads "-1:1:1/64" after a space as an option, not a value
    argv = ["covpoly", "--base", "3", "--m", "2", "--s", "3", "--a", "2/3"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--x-grid", "-1:1:1/64"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, *argv, "--x-grid=-1:1:1/64")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,value" and len(lines) == 1 + 129
    assert [float(line.split(",")[0]) for line in lines[1:]] == \
        [i / 64 for i in range(-64, 65)]


def test_figure_scan_single_preset(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, _, _ = run(capsys, "figure-scan", "--preset", "3a",
                     "--out-dir", str(out_dir))
    assert code == 0
    text = (out_dir / "fig3a.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 2 + 16 * 101
    assert lines[1] == "base,x,value"
    for line in lines[2:]:
        assert float(line.split(",")[2]) <= 0
    # byte stability
    code, _, _ = run(capsys, "figure-scan", "--preset", "3a",
                     "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "fig3a.csv").read_text(encoding="utf-8") == text


def test_figure_scan_emits_all_presets(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, _, _ = run(capsys, "figure-scan", "--x-grid", "0:1:1/4",
                     "--out-dir", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["fig3a.csv", "fig3b.csv", "fig3c.csv", "fig4.csv",
                     "fig5a.csv", "fig5b.csv", "fig5c.csv"]


def test_figure_scan_without_out_dir_writes_every_file_to_stdout(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, _, _ = run(capsys, "figure-scan", "--x-grid", "0:1:1/4",
                     "--out-dir", str(out_dir))
    assert code == 0
    code, out, _ = run(capsys, "figure-scan", "--x-grid", "0:1:1/4")
    assert code == 0
    assert out == "".join(p.read_text(encoding="utf-8")
                          for p in sorted(out_dir.iterdir()))


def test_figure_scans_do_not_fill_the_tuple_free_lists():
    # a scan makes few GC-tracked objects, so no full collection runs to
    # empty CPython's per-size tuple free lists: tuple(generator), once per
    # swept value, grew them by 4,688 blocks over these 300 sweeps; without
    # it about 190 blocks stay, however many sweeps run
    grid = cli._parse_grid("0:1:1/100")
    cli.figure_scan("3b", grid)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(300):
        cli.figure_scan("3b", grid)
    assert sys.getallocatedblocks() - before < 1000


def test_simulate_report_and_trace(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "b": 2, "m": 2, "s": 2, "R": 20,
        "function": {"kind": "wal", "l": [1, 1]},
    }), encoding="utf-8")
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "simulate", "--config", str(config),
                       "--trace", str(trace))
    assert code == 0
    doc = json.loads(out)
    assert doc["cov_analytic"] == "-1/3"
    assert doc["cov_emp"] == pytest.approx(-1 / 3, abs=1e-15)
    assert doc["R"] == 20
    rows = trace.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "r,est_re,est_im,pair_term"
    assert len(rows) == 21


def test_simulate_seed_flag_changes_the_run(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "b": 2, "m": 2, "s": 1, "R": 4,
        "function": {"kind": "decay", "decay": "per-index", "x": "1/4",
                     "alpha": "1", "k_max": 3, "seed": 0},
    }), encoding="utf-8")
    _, out_a, _ = run(capsys, "simulate", "--seed", "1", "--config", str(config))
    _, out_b, _ = run(capsys, "simulate", "--seed", "2", "--config", str(config))
    assert json.loads(out_a)["seed"] == 1
    assert json.loads(out_a)["est_var"] != json.loads(out_b)["est_var"]


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert len(lines) - 1 == len(checks.CHECKS)


def test_verify_suite_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(checks.CHECKS)


def test_verify_suite_catches_a_kernel_mutation(capsys, monkeypatch):
    # flip the sign of the shell coefficient; the dual-route identities must
    # name the lie instead of agreeing with it
    import netcov.covkernel as covkernel
    original = covkernel.Psi
    monkeypatch.setattr("netcov.covkernel.Psi",
                        lambda b, r, c: -original(b, r, c))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL psi-hat-two-routes" in out
    assert out.splitlines()[-1].startswith("FAILED: ")


def test_bad_grid_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["qscan", "--base", "2", "--m", "1", "--s", "1",
                  "--x-grid", "nonsense"])
    assert exc.value.code == 2


def test_grid_size_is_capped_before_it_is_built(capsys):
    # a billion points: refused from the point count alone
    with pytest.raises(SystemExit) as exc:
        cli.main(["qscan", "--base", "2", "--m", "1", "--s", "1",
                  "--x-grid", "0:1:1/1000000000"])
    assert exc.value.code == 2
    assert "more than 100000" in capsys.readouterr().err
    numerators, _ = cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")
    assert len(numerators) == cli.MAX_GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_grid(f"0:{cli.MAX_GRID_POINTS}:1")


@pytest.mark.parametrize("argv", [
    ["covpoly", "--base", "2", "--m", "255", "--s", "256", "--a", "1/2"],
    ["qscan", "--base", "2", "--m", "255", "--s", "256"],
    ["figure-scan", "--preset", "3b"],
], ids=["covpoly", "qscan", "figure-scan"])
def test_a_scan_past_the_work_cap_is_refused_at_once(tmp_path, capsys, argv):
    # two points over q = 10^4000: at m + s = 511 this ran past two minutes
    out = tmp_path / "out"
    flag = "--out-dir" if argv[0] == "figure-scan" else "--out"
    t0 = time.perf_counter()
    code, stdout, err = run(capsys, *argv, "--x-grid", "0:1e-4000:1e-4000",
                            flag, str(out))
    assert time.perf_counter() - t0 < 1
    assert (code, stdout) == (2, "")
    assert err.startswith("error: a scan of 2 points of 13288 bits takes ")
    assert err.endswith(f"units of work, more than {cli.MAX_SCAN_WORK}\n")
    assert not out.exists()


def test_format_csv_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--format", "csv", "verify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["psi", "profile"],
                                     ["psi", "eval", "--x", "0,0", "--y", "0,0"]])
def test_psi_refuses_profiles_past_the_memory_cap(tmp_path, capsys, command):
    # 2048 points in 2 dimensions count in 66 shapes, well inside the cap
    code, out, _ = run(capsys, *command, str(gen_net_file(tmp_path, capsys, m=11)))
    assert code == 0
    if command[1] == "profile":
        assert sum(json.loads(out)["counts"].values()) == 2048 * 2047
    # 1024 identical points share every cell: 41^3 shapes at 40 digits, so
    # the work passes the cap and the command stops there
    same = tmp_path / "same.txt"
    same.write_text("2 10 3 0 40\n" + f"{'0' * 40} {'0' * 40} {'0' * 40}\n" * 1024,
                    encoding="utf-8")
    # a pair in the file's three dimensions, since a bad pair is refused first
    command = [{"0,0": "0,0,0"}.get(arg, arg) for arg in command]
    code, _, err = run(capsys, *command, str(same))
    assert code == 2 and f"more than {MAX_PROFILE_WORK}" in err


@pytest.mark.parametrize("text,shapes,counted", [
    # identical points: every shape the walk counts has a repeated cell
    ("2 2 2 0 3\n" + "000 000\n" * 4, 5, 6),
    # distinct points: shapes without a repeated cell are counted but not
    # descended, and the tally covers the shapes counted when the cap is hit,
    # in the order the walk counts them
    ("2 2 2 0 3\n000 000\n001 011\n100 101\n110 111\n", 6, 5),
    ("2 2 2 0 3\n000 000\n001 011\n100 101\n110 111\n", 7, 5),
], ids=["identical", "distinct-6", "distinct-7"])
def test_psi_profile_refusal_names_the_shapes_counted(tmp_path, capsys, monkeypatch,
                                                      text, shapes, counted):
    points = tmp_path / "points.txt"
    points.write_text(text, encoding="utf-8")
    cap = shapes * (4 + PROFILE_SHAPE_COST)
    monkeypatch.setattr(nets, "MAX_PROFILE_WORK", cap)
    code, out, err = run(capsys, "psi", "profile", str(points))
    assert (code, out) == (2, "")
    assert err == (f"error: profile of 4 points in 2 dimensions needs more than {cap} "
                   f"units of work ({counted} shapes counted so far)\n")


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_analysis_errors_exit_cleanly(capsys):
    code, _, err = run(capsys, "covpoly", "--base", "4", "--m", "1",
                       "--s", "1", "--a", "1/2")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["covpoly", "--base", "2", "--m", "1", "--s", "1", "--a", "1/2",
     "--x-grid", "1e400:1e400:1"],
    ["covpoly", "--base", "2", "--m", "3", "--s", "3", "--a", "1/2",
     "--x-grid", "1e100:1e100:1"],
    ["figure-scan", "--preset", "3b", "--x-grid", "1e60:1e60:1"],
    # the presets before the failing one are built but not written
    ["figure-scan", "--x-grid", "1e60:1e60:1"],
], ids=["x-past-float-range", "value-past-float-range", "figure-value",
        "figure-all-presets"])
def test_a_scan_past_float_range_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    flag = "--out-dir" if argv[0] == "figure-scan" else "--out"
    code, stdout, err = run(capsys, *argv, flag, str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: integer division result too large for a float\n"
    assert not out.exists()


def test_a_prime_base_past_2_to_the_32_exits_at_once(capsys):
    # 2^61 - 1 is prime: trial division would not finish
    code, _, err = run(capsys, "covpoly", "--base", str(2 ** 61 - 1), "--m", "1",
                       "--s", "1", "--a", "1/2")
    assert code == 2
    assert "below 2^32" in err


DECAY_SPEC = {"kind": "decay", "decay": "per-shell", "a": "1/2", "x": "3/20",
              "alpha": "1", "k_max": 3, "seed": 0}


@pytest.mark.parametrize("doc,message", [
    ({"b": 2, "m": 2, "s": 2, "function": DECAY_SPEC},
     "config is missing the key 'R'"),
    ({"b": 2, "m": 2, "s": 2, "R": 4},
     "config is missing the key 'function'"),
    ({"b": 2, "m": 2, "s": 2, "R": 4,
      "function": {k: v for k, v in DECAY_SPEC.items() if k != "x"}},
     "function is missing the key 'x'"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "function": {"kind": "wal"}},
     "function is missing the key 'l'"),
])
def test_simulate_config_missing_a_key_is_a_usage_error(tmp_path, capsys, doc, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "config must be a JSON object, got list"),
    ("R", "config must be a JSON object, got str"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "function": 5},
     "function must be a JSON object, got int"),
    ({"b": 2, "m": 2, "s": 2, "R": None, "function": DECAY_SPEC},
     "config key 'R' has a bad value"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "function": {"kind": "wal", "l": 5}},
     "function key 'l' has a bad value"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "function": {**DECAY_SPEC, "x": [1]}},
     "function key 'x' has a bad value"),
    # convertible values of the wrong JSON type are refused, not coerced
    ({"b": 2, "m": 2, "s": 2, "R": 2.9, "function": DECAY_SPEC},
     "config key 'R' has a bad value: expected an integer, got float"),
    ({"b": 2, "m": 2, "s": 2, "R": True, "function": DECAY_SPEC},
     "config key 'R' has a bad value: expected an integer, got bool"),
    ({"b": "2", "m": 2, "s": 2, "R": 4, "function": DECAY_SPEC},
     "config key 'b' has a bad value: expected an integer, got str"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "precision": 6.0, "function": DECAY_SPEC},
     "config key 'precision' has a bad value: expected an integer, got float"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "function": {**DECAY_SPEC, "k_max": "3"}},
     "function key 'k_max' has a bad value: expected an integer, got str"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "function": {**DECAY_SPEC, "x": 0.15}},
     "function key 'x' has a bad value: expected an integer or a rational "
     "string, got float"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "function": {"kind": "wal", "l": "11"}},
     "function key 'l' has a bad value: expected a list of integers, got str"),
    ({"b": 2, "m": 2, "s": 2, "R": 4, "function": {"kind": "wal", "l": [1, 1.5]}},
     "function key 'l' has a bad value: expected an integer, got float"),
    # a one-point net has no pairs
    ({"b": 2, "m": 0, "s": 2, "R": 4, "function": DECAY_SPEC},
     "need m >= 1, got m=0"),
])
def test_simulate_config_that_is_not_an_object_is_a_usage_error(
        tmp_path, capsys, doc, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("decay,k_max", [("per-index", 14), ("per-shell", 40),
                                         ("per-shell", 10 ** 6)])
def test_simulate_decay_past_the_term_cap_is_refused_at_once(
        tmp_path, capsys, decay, k_max):
    # counted before any term is built: these ran for 10 s and more, or
    # without bound, before the cap
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "b": 2, "m": 2, "s": 2, "R": 4,
        "function": {**DECAY_SPEC, "decay": decay, "k_max": k_max}}),
        encoding="utf-8")
    t0 = time.perf_counter()
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert f"{decay} decay up to k_max={k_max} spans at least" in err
    assert "terms, more than 65536" in err


@pytest.mark.parametrize("edit,message", [
    ({"function": {k: v for k, v in DECAY_SPEC.items() if k != "a"}},
     "per-shell decay needs the weight a"),
    ({"function": {**DECAY_SPEC, "k_max": -3}}, "k_max must be >= 0, got -3"),
    # the net's shape is refused before a decay function spans s coordinates
    ({"s": -1}, "s must be >= 1, got -1"),
    ({"s": 3000}, "this construction needs s <= b, got s=3000 > b=2"),
    ({"s": 10 ** 12}, "this construction needs s <= b"),
    ({"m": 40}, "more than 16777216 digits"),
    # ran until killed before MAX_POINTS
    ({"R": 10 ** 12}, "R=1000000000000 replications of 2^2 points are more "
                      "than 16777216 points"),
], ids=["no-a", "negative-k_max", "negative-s", "s-past-b", "huge-s", "huge-m",
        "huge-R"])
def test_simulate_refuses_a_bad_decay_or_net_shape_at_once(
        tmp_path, capsys, edit, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"b": 2, "m": 2, "s": 2, "R": 5,
                                  "function": {**DECAY_SPEC, "k_max": 2}, **edit}),
                      encoding="utf-8")
    t0 = time.perf_counter()
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert message in err


@pytest.mark.parametrize("command,m,s", [
    ("covpoly", 10 ** 8, 3), ("covpoly", 3, 10 ** 8),
    ("qscan", 10 ** 8, 3), ("qscan", 3, 10 ** 8),
])
def test_polynomials_past_the_order_cap_are_refused_at_once(capsys, command,
                                                            m, s):
    # these ran until killed before MAX_ORDER
    extra = ["--a", "1/2"] if command == "covpoly" else ["--x-grid", "0:1:1/10"]
    t0 = time.perf_counter()
    code, _, err = run(capsys, command, "--base", "2", "--m", str(m),
                       "--s", str(s), *extra)
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert f"m + s = {m + s} is more than 512" in err


@pytest.mark.parametrize("text,message", [
    ('{"b": 2, "s": 2}', "coefficient file is missing the key 'terms'"),
    ('{"b": 2, "s": 2, "terms": [{"l": [1, 1], "im": 0}]}',
     "term 0 is missing the key 're'"),
    ("[]", "coefficient file must be a JSON object, got list"),
    ('{"b": 2, "s": 2, "terms": [{"l": [1, 1], "re": 1e400, "im": 0}]}',
     "term 0 key 're' has a bad value"),
    # a second row for one index would silently replace the first
    ('{"b": 2, "s": 2, "terms": [{"l": [1, 1], "re": 1, "im": 0},'
     ' {"l": [1, 1], "re": 2, "im": 0}]}',
     "term 1 repeats the index [1, 1]"),
])
def test_simulate_malformed_coefficient_file_is_a_usage_error(
        tmp_path, capsys, text, message):
    coefficients = tmp_path / "coef.json"
    coefficients.write_text(text, encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "b": 2, "m": 2, "s": 2, "R": 4,
        "function": {"kind": "file", "path": str(coefficients)}}), encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv", [
    # 2^40 points: refused before the index digits are built
    ["net", "gen", "--base", "2", "--m", "40", "--s", "2"],
    # a billion digits per coordinate: refused before the matrices are built
    ["net", "gen", "--base", "2", "--m", "3", "--s", "2", "--precision", "1000000000"],
])
def test_oversized_nets_are_refused(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and f"more than {MAX_POINT_DIGITS} digits" in err


def test_oversized_scrambles_are_refused(tmp_path, capsys):
    net = gen_net_file(tmp_path, capsys, m=4)
    code, _, err = run(capsys, "scramble", "--precision", "20000000", str(net))
    assert code == 2 and f"more than {MAX_POINT_DIGITS} digits" in err


@pytest.mark.parametrize("reps", [10 ** 9, MAX_POINTS // 9 + 1])
def test_scrambles_past_the_point_budget_are_refused_at_once(tmp_path, capsys, reps):
    # a billion replications of a 9-point net ran until killed, one file each
    net = gen_net_file(tmp_path, capsys, b=3, m=2)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "scramble", "--reps", str(reps),
                         "--out-prefix", str(tmp_path / "rep"), str(net))
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert (f"--reps {reps} replications of 9 points are more than "
            f"{MAX_POINTS} points") in err
    assert out == "" and not list(tmp_path.glob("rep*"))


def test_the_digit_cap_admits_the_largest_net_it_names():
    check_point_digits(2, 18, 2, 32)  # 2^24 digits
    with pytest.raises(ConfigurationError):
        check_point_digits(2, 18, 2, 33)


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(netcov.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "netcov", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: netcov")
