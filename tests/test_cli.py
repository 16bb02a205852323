import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wacrisk.cli import run


def _run_ok(argv):
    assert run(argv) == 0


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_nu_subcommand(capsys):
    _run_ok(["nu", "--eps", "0.05"])
    assert capsys.readouterr().out.strip() == "1.95996"
    _run_ok(["nu", "--eps", "0.1"])
    assert capsys.readouterr().out.strip() == "1.64485"


def test_spectral_subcommand(capsys):
    _run_ok(["spectral", "--s1", "1.0", "--s2", "1.0"])
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(math.pi, rel=1e-7)


def test_risk_zero_inside_gain_window(two_machine_path, tmp_path):
    out = tmp_path / "risk.csv"
    _run_ok(
        [
            "risk",
            "--network",
            two_machine_path,
            "--tau",
            "0",
            "--eta",
            "0.7",
            "--etap",
            "0.3",
            "--kappa",
            "1.0",
            "--mu",
            "0",
            "--zeta",
            "1.0472",
            "--c",
            "1.5",
            "--eps",
            "0.1",
            "--out",
            str(out),
        ]
    )
    header, rows = _read_csv(out)
    assert header == ["i", "j", "sigma", "risk"]
    assert len(rows) == 1
    assert rows[0][0] == "1" and rows[0][1] == "2"
    assert float(rows[0][3]) == 0.0
    # manifest accompanies the file
    manifest = json.loads((tmp_path / "risk.csv.manifest.json").read_text())
    assert manifest["tool"] == "wacrisk" and "argv" in manifest


def test_risk_inf_serialised(two_machine_path, tmp_path):
    out = tmp_path / "risk.csv"
    _run_ok(
        [
            "risk",
            "--network",
            two_machine_path,
            "--tau",
            "0",
            "--eta",
            "0.7",
            "--zeta",
            "0.2",
            "--c",
            "1.5",
            "--eps",
            "0.1",
            "--out",
            str(out),
        ]
    )
    _, rows = _read_csv(out)
    assert rows[0][3] == "inf"


def test_stability_csv(two_machine_path, tmp_path):
    out = tmp_path / "stab.csv"
    _run_ok(
        ["stability", "--network", two_machine_path, "--tau", "0.1", "--kappa", "1.0", "--out", str(out)]
    )
    header, rows = _read_csv(out)
    assert header == ["mode_index", "lambda", "mu", "kappa", "s1", "s2", "k1", "k2", "region", "stable"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert rows[0][8] == "W0" and rows[0][9] == "true"
    assert rows[1][9] == "true"
    assert float(rows[1][7]) == pytest.approx(0.1)  # k2 = kappa * tau


def test_stats_risk_round_trip(two_machine_path, tmp_path):
    stats_out = tmp_path / "stats.csv"
    modes_out = tmp_path / "modes.csv"
    base = [
        "--network",
        two_machine_path,
        "--tau",
        "0.05",
        "--eta",
        "0.7",
        "--etap",
        "0.3",
        "--kappa",
        "0.8",
    ]
    _run_ok(["stats", *base, "--out", str(stats_out), "--modes-out", str(modes_out)])
    header, rows = _read_csv(stats_out)
    assert header == ["i", "j", "sigma"]
    mh, mrows = _read_csv(modes_out)
    assert mh == ["l", "lambda", "mu", "kappa", "frak_f"]
    assert float(mrows[0][4]) == 0.0  # consensus mode carries no weight

    fused = tmp_path / "risk_fused.csv"
    _run_ok(["risk", *base, "--zeta", "1.0472", "--c", "1.5", "--eps", "0.1", "--out", str(fused)])
    from_stats = tmp_path / "risk_from_stats.csv"
    _run_ok(
        [
            "risk",
            "--from-stats",
            str(stats_out),
            "--zeta",
            "1.0472",
            "--c",
            "1.5",
            "--eps",
            "0.1",
            "--out",
            str(from_stats),
        ]
    )
    _, fused_rows = _read_csv(fused)
    _, reread_rows = _read_csv(from_stats)
    assert [r[3] for r in fused_rows] == [r[3] for r in reread_rows]


def test_manifest_rerun_byte_identical(two_machine_path, tmp_path):
    out = tmp_path / "sim.csv"
    argv = [
        "simulate",
        "--network",
        two_machine_path,
        "--tau",
        "0.05",
        "--eta",
        "0.7",
        "--h",
        "0.01",
        "--T",
        "10",
        "--paths",
        "50",
        "--seed",
        "3",
        "--out",
        str(out),
    ]
    _run_ok(argv)
    first = out.read_bytes()
    _run_ok(["--from-manifest", str(out) + ".manifest.json"])
    assert out.read_bytes() == first


def test_synth_outputs(two_machine_path, tmp_path):
    out = tmp_path / "gains.csv"
    mats = tmp_path / "mk.json"
    _run_ok(
        [
            "synth",
            "--network",
            two_machine_path,
            "--tau",
            "0.1",
            "--eta",
            "0.7",
            "--etap",
            "0.3",
            "--mu-max",
            "1.0",
            "--kappa-max",
            "2.0",
            "--grid-step",
            "0.25",
            "--out",
            str(out),
            "--matrices-out",
            str(mats),
        ]
    )
    header, rows = _read_csv(out)
    assert header == ["l", "lambda", "mu", "kappa", "frak_f"]
    doc = json.loads(mats.read_text())
    m = np.array(doc["M"])
    k = np.array(doc["K"])
    lap = np.array([[0.792, -0.792], [-0.792, 0.792]])
    assert np.linalg.norm(lap @ m - m @ lap) < 1e-10
    assert np.linalg.norm(lap @ k - k @ lap) < 1e-10


def test_tradeoff_csv(two_machine_path, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    _run_ok(
        [
            "tradeoff",
            "--network",
            two_machine_path,
            "--tau",
            "0.05",
            "--eta",
            "0.7",
            "--etap",
            "0.3",
            "--zeta",
            "0.6",
            "--c",
            "1.5",
            "--eps",
            "0.1",
            "--grid",
            "6x6",
            "--mu-min",
            "0.1",
            "--mu-max",
            "1.0",
            "--kappa-min",
            "0.1",
            "--kappa-max",
            "1.0",
            "--out",
            str(out),
        ]
    )
    header, rows = _read_csv(out)
    assert header == ["mu", "kappa", "min_risk", "xi_k", "xi_m", "product"]
    printed = capsys.readouterr().out
    assert printed.startswith("omega_hat ")
    omega = float(printed.split()[1])
    products = [float(r[5]) for r in rows]
    assert omega == pytest.approx(min(products))


def test_exit_codes(tmp_path, two_machine_path):
    # disconnected network -> validation error, exit 2
    doc = {
        "generators": [{"J": 2.0, "beta": 0.15, "E": 1.0} for _ in range(4)],
        "equilibrium_theta": [0.0] * 4,
        "susceptance": [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
    }
    empty = tmp_path / "disconnected.json"
    empty.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", "stability", "--network", str(empty), "--tau", "0.1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "disconnected" in proc.stderr

    # unstable configuration where statistics were requested -> exit 3
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "wacrisk.cli",
            "stats",
            "--network",
            two_machine_path,
            "--tau",
            "0.1",
            "--eta",
            "0.7",
            "--mu",
            "1.0",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3

    # missing systemic set -> exit 2
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "wacrisk.cli",
            "risk",
            "--network",
            two_machine_path,
            "--tau",
            "0",
            "--eta",
            "0.7",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_zeta_degrees(two_machine_path, tmp_path):
    out_rad = tmp_path / "rad.csv"
    out_deg = tmp_path / "deg.csv"
    base = ["risk", "--network", two_machine_path, "--tau", "0", "--eta", "0.7", "--c", "1.5", "--eps", "0.1"]
    _run_ok([*base, "--zeta", str(math.radians(60.0)), "--out", str(out_rad)])
    _run_ok([*base, "--zeta-deg", "60", "--out", str(out_deg)])
    assert out_rad.read_text() == out_deg.read_text()


def test_gains_file(two_machine_path, tmp_path):
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps({"mode": "eigen", "mu": [0.0, 0.0], "kappa": [0.0, 1.0941]}))
    out = tmp_path / "stats.csv"
    _run_ok(
        [
            "stats",
            "--network",
            two_machine_path,
            "--tau",
            "0",
            "--eta",
            "0.7",
            "--etap",
            "0.3",
            "--gains",
            str(gains),
            "--out",
            str(out),
        ]
    )
    _, rows = _read_csv(out)
    assert float(rows[0][2]) == pytest.approx(0.3526, abs=2e-4)


@pytest.mark.parametrize("row", ["1,2", "1,2,abc"])
def test_risk_from_malformed_stats_row(tmp_path, row):
    stats = tmp_path / "stats.csv"
    stats.write_text(f"i,j,sigma\n{row}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", "risk", "--from-stats", str(stats), "--zeta", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert f"{stats} line 2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("grid", ["-5x5", "0x5"])
def test_tradeoff_bad_grid_counts(two_machine_path, grid):
    argv = ["tradeoff", "--network", two_machine_path, "--tau", "0.1", "--eta", "0.7", "--zeta", "0.6"]
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", *argv, f"--grid={grid}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "grid counts must be at least 1" in proc.stderr
