"""Golden digests of seeded and exact outputs.

Each digest was recorded from the code as it stood before any rewrite of
the paths that produce it, so a change that moves a random stream, a float
or a CSV byte fails here by name instead of slipping past the statistical
gates.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from netcov import cli
from netcov.nets import faure_net
from netcov.scramble import ScrambleSeed, owen_scramble, replicate
from netcov.walsh import random_decay_polynomial


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = cli.main(list(argv))
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("b,m,s,r,shape,digest", [
    (2, 4, 2, 0, (16, 2, 35),
     "9678e596326262d15dc47ed4c04c78b433b8d36a013367fe8b3fb7fbafb087e9"),
    (2, 4, 2, 5, (16, 2, 35),
     "f2f0551f1490d71b454781aadec9eef16013ae2d53eb583f8168a418349ef548"),
    (3, 3, 3, 0, (27, 3, 34),
     "c97aca11576de1ee151d5a74aa24fd0e55125a7ccae8cb6575c7219c40b6a959"),
    (3, 3, 3, 5, (27, 3, 34),
     "1672f7a0cb73e251af6da86e42f5f1ada96b6d7659736217c83b37e0a5118855"),
])
def test_owen_scramble_digits_are_pinned(b, m, s, r, shape, digest):
    out = owen_scramble(faure_net(b, m, s), ScrambleSeed(2020, r))
    assert out.digits.shape == shape
    assert sha256(out.digits.tobytes()) == digest


def test_scramble_command_files_are_pinned(tmp_path, capsys):
    net = tmp_path / "net.txt"
    run(capsys, "net", "gen", "--base", "3", "--m", "2", "--s", "2",
        "--out", str(net))
    run(capsys, "scramble", "--seed", "7", "--reps", "2",
        "--out-prefix", str(tmp_path / "rep"), str(net))
    assert sorted(p.name for p in tmp_path.glob("rep*")) == \
        ["rep000.txt", "rep001.txt"]
    assert sha256((tmp_path / "rep000.txt").read_bytes()) == \
        "47e9db5f4d577d7d9ff8c31bd7939f9dc2bfe92fcd07d361e4663973ff95a301"
    assert sha256((tmp_path / "rep001.txt").read_bytes()) == \
        "789d42f1f9469d2efe5ccd0c25b8dac189e99f36e442326571574e246b4e069a"


def test_criterion_9_decay_polynomial_is_pinned():
    f = random_decay_polynomial(b=2, s=2, kind="per-shell", a=Fraction(1, 2),
                                x=Fraction(3, 20), alpha=Fraction(1),
                                k_max=5, seed=7)
    assert len(f.terms) == 112
    assert sha256(f.to_json().encode()) == \
        "4260c3c5edf48c5b5f32a6abc90680d41b004a76f90c31ed03970d6e479024c4"


def test_simulate_report_and_trace_are_pinned(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "b": 2, "m": 3, "s": 2, "R": 8,
        "function": {"kind": "decay", "decay": "per-shell", "a": "1/2",
                     "x": "3/20", "alpha": "1", "k_max": 4, "seed": 3},
    }), encoding="utf-8")
    report, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    run(capsys, "--seed", "11", "simulate", "--config", str(config),
        "--out", str(report), "--trace", str(trace))
    assert sha256(report.read_bytes()) == \
        "f256cd7e9d1de361a67f83b8fda7a522ae500f2167f6593039bcb349b1565b49"
    assert sha256(trace.read_bytes()) == \
        "2c648dab2aa1913000c513bde7827d5c23ddbe314d1ff51aab0adbcfd36f8abc"



@pytest.mark.parametrize("b,m,s,k_max,R,report_digest,trace_digest", [
    # the benchmark's replicate shape: criterion 9's per-shell decay
    (2, 4, 2, 5, 50,
     "c01a17993ff12f39674326aa124af6820b9b140e9c9bee9db41a6d4dba18c3cb",
     "284a75b997a0cd9638fe70baeae8336f8b4ed0f46d0fc0992fa48ff47225c9ec"),
    (3, 3, 3, 4, 20,
     "8b6214cb5637252abc128fcd148c95ac2ca06a08f0b1ee699d7478498f18be1d",
     "b14b9f902506ae46d64567c5631c80eb7096df548f8de0da94e7864360c6f4d5"),
    (5, 2, 3, 4, 20,
     "b0f42977d042f531d7f733b4612f426f71bb366c18adf14d58144d3b78f2d388",
     "dccb0cb8c8b5b3480c0969aec3bb84564172b27ae289a386ec50df644111ca38"),
])
def test_simulate_decay_runs_are_pinned(tmp_path, capsys, b, m, s, k_max, R,
                                        report_digest, trace_digest):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "b": b, "m": m, "s": s, "R": R,
        "function": {"kind": "decay", "decay": "per-shell", "a": "1/2",
                     "x": "3/20", "alpha": "1", "k_max": k_max, "seed": 7},
    }), encoding="utf-8")
    report, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    run(capsys, "--seed", "5", "simulate", "--config", str(config),
        "--out", str(report), "--trace", str(trace))
    assert sha256(report.read_bytes()) == report_digest
    assert sha256(trace.read_bytes()) == trace_digest


@pytest.mark.parametrize("b,m,s,shape,digest", [
    # b > 32: a node's Fisher-Yates shuffle can need more than one
    # 32-byte digest, so these pin the digest counter too
    (53, 1, 2, (53, 2, 10),
     "daf18988591bb11973f43b920ff85033c99ef13b26981650226ccc1ca9571c31"),
    (31, 1, 31, (31, 31, 12),
     "05ee1985cdc6e8a333b8236108bfe9503274b2e1cb0622de615ddf22f29a2188"),
])
def test_replicate_digits_in_large_bases_are_pinned(b, m, s, shape, digest):
    h = hashlib.sha256()
    for ps in replicate(faure_net(b, m, s), 2020, 3):
        assert ps.digits.shape == shape
        h.update(ps.digits.tobytes())
    assert h.hexdigest() == digest


def test_scramble_command_files_at_guard_precision_are_pinned(tmp_path, capsys):
    # n = 1024 at the default 10 + 31 digits: a wide tree, mostly guard digits
    net = tmp_path / "net.txt"
    run(capsys, "net", "gen", "--base", "2", "--m", "10", "--s", "2",
        "--out", str(net))
    run(capsys, "scramble", "--seed", "7", "--reps", "3",
        "--out-prefix", str(tmp_path / "rep"), str(net))
    written = {p.name: sha256(p.read_bytes()) for p in tmp_path.glob("rep*")}
    assert written == {
        "rep000.txt": "0993256c1b462b8f3914ef1239566d3515164432e8774a3e0386a4a4151758c7",
        "rep001.txt": "3ff97978f7787dcd2fc20f7750602a4018e0ebb3c74ea8cfe17cca7562d3f8e5",
        "rep002.txt": "6a66e487bfcaf89d14920ee70c5149fad52c2d02b718633cc36800fc0b39bf4d",
    }
    assert (tmp_path / "rep000.txt").read_text().splitlines()[0] == "2 10 2 0 41"

# the default-grid figure CSVs, as recorded with the benchmark's workloads
FIGURE_DIGESTS = {
    "fig3a.csv": "d6870539d6bc623f96e0d7262e5c685ee0641f5796231e5d9a9aa2a4bba282ce",
    "fig3b.csv": "e2656581d5df7b133793da51af5972041b7721c7081c8be1590e998a4d9699ee",
    "fig3c.csv": "d42c16f73c12883da06ed0f97e5c5ab8e6c8b3cb1745d67d4d8dfae450772aa3",
    "fig4.csv": "c4a1d4671c045cb3a339fed20067a4316f423b04dfb9eae37f6cab97aa01be1e",
    "fig5a.csv": "7097e85b9d81f1ebb97b54197f839f9511b4aecbe9738568f5c3ec806fa351b9",
    "fig5b.csv": "3bcc1cc95e9dbdae6a8c6fd24c3e03482ed51c19b9e4b06e1e82d6542dd6b546",
    "fig5c.csv": "f76d7b8ba0d58056526ed177b5aea336aebc76579abbb1958207e21521959d4f",
}


def test_figure_csvs_are_pinned(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    run(capsys, "figure-scan", "--out-dir", str(out_dir))
    written = {p.name: sha256(p.read_bytes()) for p in out_dir.iterdir()}
    assert written == FIGURE_DIGESTS


def _profile_digest(tmp_path, capsys, points):
    out = tmp_path / "profile.json"
    run(capsys, "psi", "profile", "--out", str(out), str(points))
    return sha256(out.read_bytes())


@pytest.mark.parametrize("b,m,s,digest", [
    # the benchmark's largest profiles, at the default m + 31 digits
    (2, 10, 2, "242b39bd6dccf19e6a1d6fd275080ef4180c3f0711cb012015902753c2b80390"),
    (3, 6, 3, "d910a29aee10defe0588b6449e7b50694518c37fed3524cf683040d2e29fff56"),
])
def test_psi_profiles_of_scrambled_nets_are_pinned(tmp_path, capsys, b, m, s,
                                                   digest):
    net = tmp_path / "net.txt"
    run(capsys, "net", "gen", "--base", str(b), "--m", str(m), "--s", str(s),
        "--out", str(net))
    run(capsys, "scramble", "--seed", "7", "--out-prefix",
        str(tmp_path / "rep"), str(net))
    assert _profile_digest(tmp_path, capsys, tmp_path / "rep000.txt") == digest


PLANTED_SETS = {
    # t = 2: repeated points, and coordinates agreeing through all P digits
    "duplicates-and-saturation": (
        "3 2 2 2 2\n00 00\n00 00\n00 12\n01 12\n01 12\n22 21\n20 21\n11 00\n"
        "11 01\n",
        "e46f92fccc98a35906d5f83e0876807d67650982fdfb7552b327de5c9925ea65"),
    # a single point has no pairs
    "one-point": (
        "2 0 2 0 3\n101 011\n",
        "adbfae330d791f72deb474222ce2e977ae166912c85df1e36566b116f39101b8"),
}


@pytest.mark.parametrize("name", sorted(PLANTED_SETS))
def test_psi_profiles_of_planted_sets_are_pinned(tmp_path, capsys, name):
    text, digest = PLANTED_SETS[name]
    points = tmp_path / "points.txt"
    points.write_text(text, encoding="utf-8")
    assert _profile_digest(tmp_path, capsys, points) == digest
