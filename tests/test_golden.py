"""Golden digests of seeded and exact outputs.

Each digest was recorded from the code as it stood before any rewrite of
the paths that produce it, so a change that moves a random stream, a float
or a CSV byte fails here by name instead of slipping past the statistical
gates.  The scramble digests pin the counter-based (splitmix64) stream; the
pair-profile digests do not depend on the stream.
"""

import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from netcov import cli
from netcov.nets import PointSet, faure_net, save_point_set
from netcov.scramble import ScrambleSeed, owen_scramble, replicate_blocks
from netcov.walsh import random_decay_polynomial


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = cli.main(list(argv))
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("b,m,s,r,shape,digest", [
    (2, 4, 2, 0, (16, 2, 35),
     "2c0b15875a8e61a53657faec1981c3b0f3acb5602770ab3a5ae2924baed5eb43"),
    (2, 4, 2, 5, (16, 2, 35),
     "0e132e77e114caddfe3923c0b071e0c00763089072e638eef3352b060975089d"),
    (3, 3, 3, 0, (27, 3, 34),
     "3f43cd270291cf71a22a0e703d84659c63b3eee61bd41a07b5171faccc9dac87"),
    (3, 3, 3, 5, (27, 3, 34),
     "8d5ac327fa45ef2642297e7b610f4db702f87781da7961a27a654b5af951fb8e"),
], ids=["2-4-2-r0", "2-4-2-r5", "3-3-3-r0", "3-3-3-r5"])
def test_owen_scramble_digits_are_pinned(b, m, s, r, shape, digest):
    out = owen_scramble(faure_net(b, m, s), ScrambleSeed(2020, r))
    assert out.digits.shape == shape
    assert sha256(out.digits.tobytes()) == digest


@pytest.mark.parametrize("b,m,s,precision,digest", [
    (2, 10, 2, None,
     "19a04f46e47d8220ccbd141c940c48bb2dfca32edc9c7c7576347fd9a771cc1d"),
    (3, 6, 3, None,
     "e53651b8dd36ee904befaf3c97f6f3bd9c7d2610bec36a030c48a6dbbdd37f13"),
    (2, 8, 2, None,
     "e9b99e2f74d72a775c0bd821435447da7866b76bf02fe3730acf3a30d53313d2"),
    (2, 4, 2, 5,
     "a64a9b04b9fcf548f8e57dd3ba7adb5cba48f78347aa1aa57597cca574b87677"),
    (7, 6, 7, None,
     "8d4b08fe75f4c633e80afdc602446e8c8df6a928cfb05083e454b65fab8f60b7"),
    (13, 3, 13, None,
     "d57d869db8fbbba7f4492f71ffcebf149d5b301fe13b759f5b7a0c6824f0182a"),
    (53, 2, 53, None,
     "a75fbdb344c9754fb64a55185d1ea761f1ffd11cd9788515ff2ceb49b8762bc9"),
    (5, 3, 5, 7,
     "aae160f13a72874abb4fa29efd407c3072be7da1673109e824ec5e9704887a80"),
    (2, 0, 1, 1,
     "0faaf974a11ba0d8f97960d4bd4216830f9dc51cd3365d8c3469aec924fa0d9c"),
], ids=["2-10-2", "3-6-3", "2-8-2", "2-4-2-p5", "7-6-7", "13-3-13",
        "53-2-53", "5-3-5-p7", "2-0-1-p1"])
def test_net_gen_files_are_pinned(tmp_path, capsys, b, m, s, precision, digest):
    out = tmp_path / "net.txt"
    flags = [] if precision is None else ["--precision", str(precision)]
    run(capsys, "net", "gen", "--base", str(b), "--m", str(m), "--s", str(s),
        *flags, "--out", str(out))
    assert sha256(out.read_bytes()) == digest


@pytest.mark.parametrize("precision,digest", [
    (1, "a003fc9073018916d7c49e9ccc95da071cab1122cf0a81dc96ed7e6011b7ac49"),
    (3, "415ab97d6b326d24a85c1b3898c6e40babfbb59a99bb5ab0f693d37e1cd365c3"),
], ids=["P1", "P3"])
def test_saved_files_of_every_base_61_digit_are_pinned(precision, digest):
    # 61 points of 2 coordinates; 7 is a unit mod 61, so every depth holds
    # every digit value 0..60, each written as its own character
    values = np.arange(61 * 2 * precision).reshape(61, 2, precision) * 7 % 61
    ps = PointSet(b=61, m=1, s=2, t=0, digits=values.astype(np.uint8))
    buf = io.StringIO()
    save_point_set(ps, buf)
    assert sha256(buf.getvalue().encode("ascii")) == digest


def test_scramble_command_files_are_pinned(tmp_path, capsys):
    net = tmp_path / "net.txt"
    run(capsys, "net", "gen", "--base", "3", "--m", "2", "--s", "2",
        "--out", str(net))
    run(capsys, "scramble", "--seed", "7", "--reps", "2",
        "--out-prefix", str(tmp_path / "rep"), str(net))
    assert sorted(p.name for p in tmp_path.glob("rep*")) == \
        ["rep000.txt", "rep001.txt"]
    assert sha256((tmp_path / "rep000.txt").read_bytes()) == \
        "e4f7d6cc231520d65f4d08279d768aa439b491a682089e38cafd3b0c89dfcefe"
    assert sha256((tmp_path / "rep001.txt").read_bytes()) == \
        "50a4dd0682f2f0cdfcf9311d25ed040bb0f609c738b848d8f8fbe2878a7ce791"


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
        "4bc303de0fc8460e26973edee200deee8c8863cde7f070644662b5725daff1e2"
    assert sha256(trace.read_bytes()) == \
        "2545db23f2ea2b175ef5a084ccb079b67d935369ec8b91e513265caeb8a13784"



@pytest.mark.parametrize("b,m,s,k_max,R,report_digest,trace_digest", [
    # the benchmark's replicate shape: criterion 9's per-shell decay
    (2, 4, 2, 5, 50,
     "4bee4babca6da834ba6c2042dd769400aca57cad2daa248835f018ca9f20bd77",
     "9c6210240b5bad06766e3b3c26b0985eaebaa5a99bf2e665658f55b4e1642596"),
    (3, 3, 3, 4, 20,
     "9978070e394e4dc4fcb29643fda61a2297a724a9411dfb6c536106d04c840788",
     "3a987c6aa0cd01f7ec20b92d88094a795b5c0550719d655df35d1016521fa91c"),
    (5, 2, 3, 4, 20,
     "a72e2b6d5ee41d99e5a8e87d0a003545890bc23a837d2552ed3191673bcc5673",
     "2b5ee96ff0c89d63426f7f1fe74ffe563069b88f2e75ccc646117a043ab8a6d9"),
    # criterion 9's shape at R = 1500: two scramble blocks (1365 + 135) and
    # many evaluation chunks, the last one partial
    (2, 4, 2, 5, 1500,
     "d87e3fae03ce7cc09f68113dac92934e86b329ca31b385466467706a7db779a4",
     "70d4528316c240d9c79896abc03691df233aa430b1822ddbe8b1cabbd8ded4af"),
], ids=["2-4-2-R50", "3-3-3-R20", "5-2-3-R20", "2-4-2-R1500"])
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


@pytest.mark.parametrize("b,m,s,k_max,x,alpha,R,report_digest,trace_digest", [
    # alpha != 1: one root per total length, each with an irrational square root
    (3, 2, 2, 3, "1/5", "2/3", 30,
     "6e238abd36b5e38c51f661a4119e82c1220b7fab8ada5d0bf2498a9cae71dcfe",
     "15bee8d9a3a9f314961cad2e380f96a5d585b4e18a8c5c6cd9ccfd4e8debda14"),
    (2, 3, 2, 4, "1/3", "5/3", 40,
     "da4068c0e83f46b069cb055c35681a262fe651d1bc9a06a0cb5c65ff2924a48d",
     "23cd10f4d938eaf365fe59cc83af1d3d6802325b524a61e22565ae1ca432fbe3"),
], ids=["3-2-2-R30", "2-3-2-R40"])
def test_simulate_per_index_runs_are_pinned(tmp_path, capsys, b, m, s, k_max,
                                            x, alpha, R, report_digest,
                                            trace_digest):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "b": b, "m": m, "s": s, "R": R,
        "function": {"kind": "decay", "decay": "per-index", "x": x,
                     "alpha": alpha, "k_max": k_max, "seed": 9},
    }), encoding="utf-8")
    report, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    run(capsys, "--seed", "13", "simulate", "--config", str(config),
        "--out", str(report), "--trace", str(trace))
    assert sha256(report.read_bytes()) == report_digest
    assert sha256(trace.read_bytes()) == trace_digest


def test_simulate_wal_run_is_pinned(tmp_path, capsys):
    # one term and 9 points a replication: thousands of replications share
    # an evaluation chunk
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "b": 3, "m": 2, "s": 3, "R": 3000,
        "function": {"kind": "wal", "l": [1, 3, 5]},
    }), encoding="utf-8")
    report, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    run(capsys, "--seed", "5", "simulate", "--config", str(config),
        "--out", str(report), "--trace", str(trace))
    assert sha256(report.read_bytes()) == \
        "99064414c77008b0cee75f3ef17ad3ee02e5fb3d079c4fe9ee841441ee9ff874"
    assert sha256(trace.read_bytes()) == \
        "457e926bb01d28b4ca26a401dc1af5a74d33cb66319d5efc02d6b04d612dca0d"


@pytest.mark.parametrize("b,m,s,shape,digest", [
    # large bases: b symbol hashes per node, up to 31 coordinates
    (53, 1, 2, (53, 2, 10),
     "2aeaba45c6d0480c1157b289118846a35fbee378be60be0239f96d15a56ab1d9"),
    (31, 1, 31, (31, 31, 12),
     "0a973dece443c575fcc8d2a8f68ec491d83fa502b29b8c0538311cb01022a403"),
], ids=["53-1-2", "31-1-31"])
def test_replicate_digits_in_large_bases_are_pinned(b, m, s, shape, digest):
    h = hashlib.sha256()
    for block in replicate_blocks(faure_net(b, m, s), 2020, 3):
        for digits in block:
            assert digits.shape == shape
            h.update(digits.tobytes())
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
        "rep000.txt": "7b2f23d40bbc69130906ab84e3f68db0c139019a4b62c5993f360b1c3f49d33e",
        "rep001.txt": "dcba1232fcaca267b3423c9e93b4a6ab7b2caf8eebd6e14fbbfb951dc8df1430",
        "rep002.txt": "78a460573a8c39eeb89e3577bd722afb3c6007cfa0508f40ec1f2e6020085a70",
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


def _perturbed(text):
    # the last point's third coordinate adds 1 (mod 3) to its third digit
    lines = text.splitlines(keepends=True)
    coords = lines[-1].split()
    coords[2] = coords[2][:2] + str((int(coords[2][2]) + 1) % 3) + coords[2][3:]
    lines[-1] = " ".join(coords) + "\n"
    return "".join(lines)


# net verify's JSON report: two passing scrambled nets, a perturbed one,
# and a failure found before a shape passes the stored precision
@pytest.mark.parametrize("case,flags,code,digest", [
    ("scrambled-2-10-2", (), 0,
     "bcc239c0464ec14e3be01cbe8e452edb3075c60426d100f2b8b6d21b002fb14d"),
    ("scrambled-3-3-3-t1", ("--t", "1"), 0,
     "00e2e0207fc25631686dfc3b47d47adabacd88f806dee480976086dec4075cec"),
    ("perturbed", (), 1,
     "4f2b4969e4cc03989e2ad46c6cf48f596e429b18d391ce9428d073fd86c79283"),
    ("precision-short", (), 1,
     "8e7a23b774fc96c3a900d2303b695b1dd0d655ea5b2e158ef11c5404ad483a97"),
])
def test_net_verify_reports_are_pinned(tmp_path, capsys, case, flags, code,
                                       digest):
    net, points = tmp_path / "net.txt", tmp_path / "rep000.txt"
    if case == "precision-short":
        # P = 2 < m - t = 3: the second coordinate's first digit fails on
        # shape (0, 1) before shape (0, 3) would need a third digit
        points.write_text("2 3 2 0 2\n" + "".join(
            f"{i // 2}{i % 2} 0{i % 2}\n" for i in range(4)) * 2,
            encoding="utf-8")
    else:
        b, m, s = {"scrambled-2-10-2": (2, 10, 2), "scrambled-3-3-3-t1": (3, 3, 3),
                   "perturbed": (3, 3, 3)}[case]
        run(capsys, "net", "gen", "--base", str(b), "--m", str(m),
            "--s", str(s), "--out", str(net))
        run(capsys, "scramble", "--seed", "7", "--out-prefix",
            str(tmp_path / "rep"), str(net))
        if case == "perturbed":
            points.write_text(_perturbed(points.read_text(encoding="utf-8")),
                              encoding="utf-8")
    assert cli.main(["net", "verify", *flags, str(points)]) == code
    assert sha256(capsys.readouterr().out.encode()) == digest


def _finest_digit_changed(text, m):
    """The last point's first coordinate with its digit at depth m flipped
    (base 2): only the one shape of total m that reads that digit fails."""
    lines = text.splitlines(keepends=True)
    coords = lines[-1].split()
    digit = coords[0][m - 1]
    coords[0] = coords[0][:m - 1] + str(1 - int(digit)) + coords[0][m:]
    lines[-1] = " ".join(coords) + "\n"
    return "".join(lines)


# a scrambled (2,10,2) net with one digit at depth m changed: net verify's
# report names the bad interval of the finest shape (10, 0), and psi profile
# counts a set that is no longer a (0,10,2)-net
@pytest.mark.parametrize("command,digest", [
    (("net", "verify"),
     "dfd1fdab5dc5dde8aac01b83e4b373bea6a4fc8ba9ee624bc37e025e2ddbac63"),
    (("psi", "profile"),
     "ec3d1c3643b5628932491674d979d0309d1f96dd80a4d03129953173451caf11"),
], ids=["net-verify", "psi-profile"])
def test_outputs_of_a_net_failing_only_at_depth_m_are_pinned(tmp_path, capsys,
                                                             command, digest):
    net, points = tmp_path / "net.txt", tmp_path / "rep000.txt"
    run(capsys, "net", "gen", "--base", "2", "--m", "10", "--s", "2",
        "--out", str(net))
    run(capsys, "scramble", "--seed", "7", "--out-prefix",
        str(tmp_path / "rep"), str(net))
    points.write_text(_finest_digit_changed(points.read_text(encoding="utf-8"), 10),
                      encoding="utf-8")
    code = cli.main([*command, str(points)])
    assert code == {"verify": 1, "profile": 0}[command[1]]
    assert sha256(capsys.readouterr().out.encode()) == digest


# psi eval's JSON on stdout: a component that agrees through all P stored
# digits prints as "AT_LEAST_P", and so does the total once any one does
@pytest.mark.parametrize("net_args,scrambled,x,y,digest", [
    (("2", "3", "2"), False, "0,0", "1/2,1/2",
     "e0ed0b395df33a9b1d358f4291b77832c36da9b632cc791edcd2e2d381b269d4"),
    (("2", "3", "2"), False, "0,0", "1/8,1/64",
     "75dc5e2cdca8f19c09152840cfdac1cea6fbbf458216c4cf9deb49edee2b38dd"),
    (("2", "3", "2"), False, "0,0", "0,0",
     "911dcf636a83bbd3d5667ad5a76a6034c4ddbbc10be75bf39282d0bc22f858c3"),
    (("3", "2", "3"), True, "0,1/3,2/3", "1/9,2/3,5/9",
     "5c66e21739c50aec5d4f1d18109485f128e7b8cbdf4021cd47acd2e6263837c3"),
    (("3", "2", "3"), True, "0,1/3,2/3", "1/9,1/3,5/9",
     "e0f369354eb03b0b5cbb65c7a91ffdc14c8a4569f0ca02f9414ebb923c355e47"),
], ids=["unsaturated", "partly-saturated", "saturated", "scrambled-3-2-3",
        "scrambled-3-2-3-partly-saturated"])
def test_psi_eval_outputs_are_pinned(tmp_path, capsys, net_args, scrambled,
                                     x, y, digest):
    b, m, s = net_args
    points = tmp_path / "net.txt"
    run(capsys, "net", "gen", "--base", b, "--m", m, "--s", s,
        "--out", str(points))
    if scrambled:
        run(capsys, "scramble", "--seed", "7", "--out-prefix",
            str(tmp_path / "rep"), str(points))
        points = tmp_path / "rep000.txt"
    assert cli.main(["psi", "eval", "--x", x, "--y", y, str(points)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


def _scan_digest(tmp_path, capsys, *argv):
    out = tmp_path / "scan.csv"
    run(capsys, *argv, "--out", str(out))
    return sha256(out.read_bytes())


# covpoly --x-grid rows at both scales: a = 0 and a = 1, base 53, and a
# grid reaching past both ends of [0, 1]
@pytest.mark.parametrize("b,m,s,a,grid,scale,digest", [
    ("2", "3", "2", "1/2", "-1:2:1/7", "none",
     "d504b8f33ce7e969d1c0da352786a6672baa0483419afeb0c3f52abc21010544"),
    ("2", "3", "2", "1/2", "-1:2:1/7", "inv-nm1",
     "865c515e987013db2feae966351eada62d86b0b54f918c0312d04000dabebac0"),
    ("3", "3", "3", "0", "0:1:1/100", "inv-nm1",
     "d09675c1d686e6d084a1a3390c513fc58be685f61af46d03f7fbdd364d7acdd2"),
    ("3", "2", "4", "1", "0:1:1/100", "none",
     "93f273bba4206112bbf65a5830bd9c7b18dff008a3a4af1be85048ba4fc15461"),
    ("3", "2", "4", "1", "0:1:1/100", "inv-nm1",
     "4b514b4be3c5624fc4bb388a1d570aea7a14dee02998c6cafb0f51903924f6dd"),
    ("53", "3", "3", "52/53", "0:1:1/1000", "none",
     "2fb9c3b3a640c236a1183c544990edd79b13eb5c035aafc31ef1d34697b2aaf1"),
    ("53", "3", "3", "52/53", "0:1:1/1000", "inv-nm1",
     "f0088bd992bb94145ec2651901559640dac7c9a6c9be1007c6b2126a40b2d281"),
    ("53", "2", "5", "1/3", "-1:2:1/7", "inv-nm1",
     "c588824cec3810369210b2505e30eca584fde6de982881bc6372642b5e59f4a7"),
], ids=["2-3-2-wide", "2-3-2-wide-scaled", "a0-scaled", "a1", "a1-scaled",
        "53-critical", "53-critical-scaled", "53-wide-scaled"])
def test_covpoly_scans_are_pinned(tmp_path, capsys, b, m, s, a, grid, scale,
                                  digest):
    assert _scan_digest(tmp_path, capsys, "covpoly", "--base", b, "--m", m,
                        "--s", s, "--a", a, f"--x-grid={grid}",
                        "--scale", scale) == digest


# the first two are the benchmark's qscan digests; the 1/10 grid in base 5
# holds the removable point x = 1/b
@pytest.mark.parametrize("b,m,s,grid,digest", [
    ("3", "3", "3", "0:1:1/1000",
     "03161d341c6c1998cceb08503676e684a42c253d2fd5c806239418053669c170"),
    ("5", "3", "5", "0:1:1/1000",
     "d91d3fe642fb3040fe0ccb123c6d5d86adccecc34bdf3eccc4717454e13fc6af"),
    ("5", "3", "5", "0:1:1/10",
     "165c9e555be34b4f86dbd4d1c50b8129217373937f56e6cf1eaa0fabb5c0c066"),
], ids=["3-3-3", "5-3-5", "5-3-5-removable-point"])
def test_qscan_csvs_are_pinned(tmp_path, capsys, b, m, s, grid, digest):
    assert _scan_digest(tmp_path, capsys, "qscan", "--base", b, "--m", m,
                        "--s", s, "--x-grid", grid) == digest


def test_verify_report_is_pinned(capsys):
    # every check's name, verdict and detail string; the timings vary
    assert cli.main(["--format", "json", "verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for entry in doc["checks"]:
        del entry["seconds"]
    assert sha256(json.dumps(doc, sort_keys=True).encode()) == \
        "c5bef80e672a864d13d9efce7d69695f5b7e41abe359c677703c4e857b8077eb"
