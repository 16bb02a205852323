import json
import math
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from wacrisk import cli
from wacrisk.cli import run
from wacrisk.errors import ValidationError
from wacrisk.network import GainSpec
from wacrisk.stats import NoiseParams, pair_deviations
from wacrisk.synthesis import synthesize

from conftest import IEEE39_PARAMS


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
    assert header == [
        "mode_index", "lambda", "mu", "kappa", "s1", "s2", "k1", "k2", "region", "stable",
        "margin", "boundary", "tau_lo", "tau_hi",
    ]
    assert [r[0] for r in rows] == ["1", "2"]
    assert rows[0][8] == "W0" and rows[0][9] == "true"
    assert rows[1][9] == "true"
    assert float(rows[1][7]) == pytest.approx(0.1)  # k2 = kappa * tau
    # the consensus mode without gains is stable at every delay; the grid mode has a window around 0.1
    assert rows[0][10:] == ["0.0075", "false", "0", "inf"]
    assert float(rows[1][10]) > 0.0 and rows[1][11] == "false"
    assert float(rows[1][12]) == 0.0 < 0.1 < float(rows[1][13]) < math.inf


def test_stability_csv_unstable_mode_and_zero_delay(line3_path, capsys):
    # an unstable mode has no delay window (literal nan); at tau = 0 the margin is nan
    _run_ok(["stability", "--network", line3_path, "--tau", "1.0", "--kappa", "1.0"])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[9] for r in rows] == ["true", "true", "false"]
    assert rows[2][12:] == ["nan", "nan"] and float(rows[2][10]) < 0.0
    _run_ok(["stability", "--network", line3_path, "--tau", "0", "--kappa", "1.0"])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert all(r[10] == "nan" and r[11] == "false" and r[12] == "0" for r in rows)
    assert rows[0][13] == "inf" and 0.0 < float(rows[2][13]) < float(rows[1][13]) < math.inf


def test_stats_risk_round_trip(two_machine_path, tmp_path, capsys):
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
    # a stats file without pairs gives a risk table without rows
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("i,j,sigma\n")
    _run_ok(["risk", "--from-stats", str(header_only), "--zeta", "1.0472"])
    assert capsys.readouterr().out == "i,j,sigma,risk\n"


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


def _former_csv(header, rows):
    """CSV text as the writer built it before one format per row: an
    ``inf`` branch for infinite floats (which also dropped the sign of
    -inf), ``.12g`` for other floats, ``str`` for anything else."""

    def fmt(value):
        return "inf" if math.isinf(value) else f"{value:.12g}"

    lines = [",".join(header)] + [",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_emit_matches_the_former_join(tmp_path, capsys):
    # one type per column, as the commands pass them: ints, strings, and floats,
    # Python's own or NumPy's through tolist
    columns = [
        [1, 3, 7, 1, 12],
        ["W0", "none", "true", "delay-free", "false"],
        [math.inf, math.nan, -0.0, 0.25, 0.5],
        np.array([1.0 / 3.0, math.inf, 1e300, 123456789012345.0, 1e-7]).tolist(),
        np.array([math.nan, 0.1, 5e-324, 2.0, 12.0]).tolist(),
    ]
    header = ["a", "b", "c", "d", "e"]
    rows = list(zip(*columns))
    out = tmp_path / "columns.csv"
    cli._emit(str(out), header, columns, ["argv"])
    assert out.read_text() == _former_csv(header, rows)
    cli._emit(None, header, columns, ["argv"])
    assert capsys.readouterr().out == _former_csv(header, rows)
    # the one value written differently: -inf keeps its sign
    cli._emit(None, ["x", "y"], [[-math.inf], np.array([-math.inf]).tolist()], ["argv"])
    assert capsys.readouterr().out == "x,y\n-inf,-inf\n"
    assert _former_csv(["x"], [(-math.inf,)]) == "x\ninf\n"


def test_stability_writes_a_negative_infinite_margin(two_machine_path, capsys):
    # a phase-lag gain of 1e300 overflows the grid mode's margin to -inf; the
    # former writer printed it as inf, an infinitely stable margin
    _run_ok(["stability", "--network", two_machine_path, "--tau", "0.1", "--kappa", "1e300"])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[1][9:12] == ["false", "-inf", "false"]


def test_cached_parser_keeps_no_state(two_machine_path, tmp_path):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    base = ["stats", "--network", two_machine_path, "--tau", "0.1", "--eta", "0.7", "--kappa", "1.0"]
    with_etap = parser.parse_args([*base, "--etap", "0.3"])
    without = parser.parse_args(base)
    synth = parser.parse_args(["synth", "--network", two_machine_path, "--tau", "0.1", "--eta", "0.7"])
    assert with_etap is not without and (with_etap.etap, without.etap, synth.etap) == (0.3, None, None)
    assert not hasattr(synth, "modes_out") and not hasattr(without, "mu_max") and synth.mu_max == 1.0
    assert vars(parser.parse_args([*base, "--etap", "0.3"])) == vars(with_etap)
    # runs of different commands through the one parser give the bytes of lone runs
    outs = {name: tmp_path / f"{name}.csv" for name in ("etap", "plain", "zero", "synth", "again")}
    _run_ok([*base, "--etap", "0.3", "--out", str(outs["etap"])])
    _run_ok(["synth", "--network", two_machine_path, "--tau", "0.1", "--eta", "0.7", "--etap", "0.3",
             "--grid-step", "0.25", "--out", str(outs["synth"])])
    _run_ok([*base, "--out", str(outs["plain"])])
    _run_ok([*base, "--etap", "0", "--out", str(outs["zero"])])
    _run_ok([*base, "--etap", "0.3", "--out", str(outs["again"])])
    assert outs["plain"].read_bytes() == outs["zero"].read_bytes() != outs["etap"].read_bytes()
    assert outs["again"].read_bytes() == outs["etap"].read_bytes()
    # a replay through the cached parser rewrites the recorded run byte for byte
    for name in ("etap", "synth", "plain"):
        first = outs[name].read_bytes()
        _run_ok(["--from-manifest", str(outs[name]) + ".manifest.json"])
        assert outs[name].read_bytes() == first


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


def test_synth_reports_critical_delay(monkeypatch, capsys, ieee39_spectrum):
    # the IEEE-39 modes at the step-0.05 optimum: the top mode, mode 10,
    # loses stability first, at 0.13765 s against the design delay of 0.03 s
    p = IEEE39_PARAMS
    model = types.SimpleNamespace(damping_ratio=p["d"], inertia=p["inertia"])
    monkeypatch.setattr(cli, "_load", lambda args: (model, ieee39_spectrum))
    argv = ["synth", "--network", "ieee39", "--tau", str(p["tau"]), "--eta", str(p["eta"])]
    _run_ok([*argv, "--etap", str(p["eta_meas"]), "--grid-step", "0.05"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "l,lambda,mu,kappa,frak_f" and len(lines) == 1 + 10 + 1
    name, value = lines[-1].split()
    assert name == "critical_delay" and float(value) == pytest.approx(0.13765, abs=1e-4)


def test_synth_matrices_read_back_by_gains(two_machine_path, two_machine_spectrum, line3_spectrum, tmp_path):
    # line3's synthesised matrices carry round-off consensus gains (M 1 ~ 1e-16)
    line3_path = str(Path(__file__).resolve().parents[1] / "data" / "line3.json")
    networks = (("two", two_machine_path, two_machine_spectrum), ("line3", line3_path, line3_spectrum))
    for name, path, spectrum in networks:
        mats = tmp_path / f"mk_{name}.json"
        out = tmp_path / f"stats_{name}.csv"
        base = ["--network", path, "--tau", "0.1", "--eta", "0.7", "--etap", "0.3"]
        _run_ok(["synth", *base, "--kappa-max", "2.0", "--grid-step", "0.25", "--matrices-out", str(mats)])
        _run_ok(["stats", *base, "--gains", str(mats), "--out", str(out)])

        d, inertia, noise = 0.075, 2.0, NoiseParams(eta=0.7, eta_meas=0.3)
        result = synthesize(spectrum, d, 0.1, noise, inertia, gain_box=(0.0, 1.0, 0.0, 2.0), grid_step=0.25)
        expected = pair_deviations(spectrum, result.gain_spec(), d, 0.1, noise, inertia).sigma
        doc = json.loads(mats.read_text())
        assert doc["mode"] == "dense"
        dense = GainSpec.dense(doc["M"], doc["K"])
        assert pair_deviations(spectrum, dense, d, 0.1, noise, inertia).sigma == pytest.approx(expected, rel=1e-12)
        _, rows = _read_csv(out)
        # the CSV carries 12 significant digits
        assert [float(r[2]) for r in rows] == pytest.approx(expected, rel=1e-12, abs=5e-13)


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

    # non-numeric JSON fields -> validation error naming the input, exit 2
    doc["generators"][0]["J"] = "abc"
    bad_network = tmp_path / "non_numeric.json"
    bad_network.write_text(json.dumps(doc))
    bad_gains = tmp_path / "non_numeric_gains.json"
    bad_gains.write_text(json.dumps({"mode": "eigen", "mu": ["a", 1], "kappa": [0.0, 0.0]}))
    for argv in (["--network", str(bad_network)], ["--network", two_machine_path, "--gains", str(bad_gains)]):
        proc = subprocess.run(
            [sys.executable, "-m", "wacrisk.cli", "stats", *argv, "--tau", "0.1", "--eta", "0.7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "malformed" in proc.stderr and "Traceback" not in proc.stderr
    assert str(bad_gains) in proc.stderr

    # malformed gain files and manifests -> validation error naming the file and the field, exit 2
    stats_argv = ["stats", "--network", two_machine_path, "--tau", "0.1", "--eta", "0.7"]
    cases = [
        ("gains", [1, 2], "JSON object"),
        ("gains", {"mode": "eigen", "mu": [0.0, 0.0]}, "'kappa'"),
        ("gains", {"mode": "dense", "M": [[0.0, 0.0], [0.0, 0.0]]}, "'K'"),
        ("manifest", [], "JSON object"),
        ("manifest", {"argv": "stats"}, "'argv'"),
    ]
    for idx, (kind, content, field) in enumerate(cases):
        path = tmp_path / f"bad_{kind}_{idx}.json"
        path.write_text(json.dumps(content))
        argv = [*stats_argv, "--gains", str(path)] if kind == "gains" else ["--from-manifest", str(path)]
        proc = subprocess.run([sys.executable, "-m", "wacrisk.cli", *argv], capture_output=True, text=True)
        assert proc.returncode == 2
        assert str(path) in proc.stderr and field in proc.stderr and "Traceback" not in proc.stderr

    # files that are not valid JSON, truncated or not UTF-8 (a UTF-16 byte-order mark) -> validation error
    # naming the file, exit 2
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"mode": ')
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"mode": "eigen"}'.encode("utf-16-le"))
    for bad in (truncated, utf16):
        for argv in (
            [*stats_argv, "--gains", str(bad)],
            ["stats", "--network", str(bad), "--tau", "0.1", "--eta", "0.7"],
            ["--from-manifest", str(bad)],
        ):
            proc = subprocess.run([sys.executable, "-m", "wacrisk.cli", *argv], capture_output=True, text=True)
            assert proc.returncode == 2
            assert str(bad) in proc.stderr and "not valid JSON" in proc.stderr and "Traceback" not in proc.stderr
    utf16.write_bytes(b"\xff\xfe" + "i,j,sigma\n0,1,0.5\n".encode("utf-16-le"))
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", "risk", "--from-stats", str(utf16), "--zeta", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert str(utf16) in proc.stderr and "Traceback" not in proc.stderr

    # integer literals past 1e308, one of them past Python's 4,300-digit int parsing limit, are read as inf
    # and refused by their entry's own check, exit 2
    network = json.loads(Path(two_machine_path).read_text())
    for digits in ("1" * 400, "1" * 5000):
        long_j = json.loads(json.dumps(network))
        long_j["generators"][0]["J"] = "LONG"
        long_entry = json.loads(json.dumps(network))
        long_entry["laplacian"][0][0] = "LONG"
        long_cases = [
            ("network", long_j, "generator inertia must be a positive real, got inf"),
            ("network", long_entry, "laplacian entries must be finite"),
            ("gains", {"mode": "uniform", "mu": "LONG", "kappa": 0.5}, "gain mu must be finite"),
            ("manifest", {"argv": "LONG"}, "field 'argv' must be a list of strings"),
        ]
        for idx, (kind, content, message) in enumerate(long_cases):
            path = tmp_path / f"long_{kind}_{idx}_{len(digits)}.json"
            path.write_text(json.dumps(content).replace('"LONG"', digits))
            argv = {
                "network": ["stats", "--network", str(path), "--tau", "0.1", "--eta", "0.7"],
                "gains": [*stats_argv, "--gains", str(path)],
                "manifest": ["--from-manifest", str(path)],
            }[kind]
            proc = subprocess.run([sys.executable, "-m", "wacrisk.cli", *argv], capture_output=True, text=True)
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: ") and message in proc.stderr and "Traceback" not in proc.stderr

    # non-finite equilibrium angle -> validation error naming the field, exit 2
    nan_theta = tmp_path / "nan_theta.json"
    nan_theta.write_text(
        json.dumps(
            {
                "generators": [{"J": 2.0, "beta": 0.15, "E": 1.0} for _ in range(2)],
                "equilibrium_theta": [0.0, math.nan],
                "susceptance": [[0.0, 0.66], [0.66, 0.0]],
            }
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", "stability", "--network", str(nan_theta), "--tau", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "equilibrium_theta" in proc.stderr

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
    # one limit or the other, never both: --zeta would silently win over --zeta-deg
    stats = tmp_path / "stats.csv"
    stats.write_text("i,j,sigma\n1,2,0.3\n")
    with pytest.raises(ValidationError, match="--zeta cannot be combined with --zeta-deg"):
        run(["risk", "--from-stats", str(stats), "--zeta", "0.3", "--zeta-deg", "60"])


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


@pytest.mark.parametrize("row", ["1,2", "1,2,abc", "1,2,nan"])
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


@pytest.mark.parametrize(
    "grid, message",
    [
        pytest.param("-5x5", "grid counts must be at least 1", id="-5x5"),
        pytest.param("0x5", "grid counts must be at least 1", id="0x5"),
        # refused before the grid is built
        pytest.param("3163x3163", "grid counts 3163x3163 give more than 10000000 points", id="3163x3163"),
        pytest.param("100000x100000", "grid counts 100000x100000 give more than 10000000 points", id="100000x100000"),
    ],
)
def test_tradeoff_bad_grid_counts(two_machine_path, grid, message):
    argv = ["tradeoff", "--network", two_machine_path, "--tau", "0.1", "--eta", "0.7", "--zeta", "0.6"]
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", *argv, f"--grid={grid}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--tau", "0.1", "--eta", "nan", "--kappa", "0.5"],
        ["stats", "--tau", "0.1", "--eta", "inf", "--kappa", "0.5"],
        ["simulate", "--tau", "0.1", "--eta", "0.7", "--T", "nan"],
        ["simulate", "--tau", "0.1", "--eta", "0.7", "--h", "nan"],
        ["synth", "--tau", "0.1", "--eta", "0.7", "--grid-step", "0"],
        ["synth", "--tau", "0.1", "--eta", "0.7", "--grid-step", "-0.1"],
        ["synth", "--tau", "0.1", "--eta", "0.7", "--mu-max", "-1"],
        ["tradeoff", "--tau", "0.1", "--eta", "0.7", "--zeta", "0.6", "--mu-max", "0.01", "--grid", "2x2"],
        ["simulate", "--tau", "0.1", "--eta", "0.7", "--seed", "-1"],
        # seed grids of 4e14 points and more, refused before any array is built
        ["synth", "--tau", "0.1", "--eta", "0.7", "--grid-step", "1e-7"],
        ["synth", "--tau", "0.1", "--eta", "0.7", "--grid-step", "1e-300"],
        # a delay ring of 2e17 floats and a per-path accumulator of 1e9, refused before any array is built
        ["simulate", "--tau", "0.05", "--eta", "0.7", "--h", "1e-15"],
        ["simulate", "--tau", "0.05", "--eta", "0.7", "--paths", "1000000000"],
        # a step too small to snap to the delay, and horizons of 1e16 and inf steps
        ["simulate", "--tau", "0.05", "--eta", "0.7", "--h", "1e-320"],
        ["simulate", "--tau", "0", "--eta", "0.7", "--h", "1e-15"],
        ["simulate", "--tau", "0", "--eta", "0.7", "--h", "1e-320"],
    ],
)
def test_non_finite_inputs_and_bad_boxes_exit_2(two_machine_path, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", argv[0], "--network", two_machine_path, *argv[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--h", "1e-15", "step 1e-15 needs a delay ring of 300000000000012000 floats, over 100000000"),
        ("--paths", "1000000000", "1000000000 paths need 3000000000 pair averages, over 100000000"),
        # tau/h is 5e318: the step cannot be snapped to a divisor of the delay
        ("--h", "1e-320", "step 1e-320 is too small for delay 0.05: tau/step overflows"),
    ],
)
def test_simulate_refuses_huge_arrays_before_allocating(line3_path, flag, value, message):
    # the ring would take 2.08 EiB and the accumulator 24 GB: both are counted, neither is built;
    # a step of 1e-320 is refused before it is snapped
    argv = ["simulate", "--network", line3_path, "--tau", "0.05", "--eta", "0.7", "--T", "10", flag, value]
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "h, message",
    [
        # no delay to snap the step to: 1e16 steps of 1e-15, and 10/1e-320 overflows
        ("1e-15", "horizon 10.0 at step 1e-15 needs 1e+16 steps, over 1000000000"),
        ("1e-320", "horizon 10.0 at step 1e-320 needs inf steps, over 1000000000"),
    ],
)
def test_simulate_refuses_step_counts_over_the_bound(line3_path, h, message):
    argv = ["simulate", "--network", line3_path, "--tau", "0", "--eta", "0.7", "--T", "10", "--h", h]
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 1_000_000


@pytest.mark.parametrize("tau", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--kappa", "1.0"],
        ["stats", "--eta", "0.7", "--kappa", "0.8"],
        ["simulate", "--eta", "0.7", "--T", "1", "--paths", "10"],
    ],
)
def test_non_finite_delay_exits_2_without_warning(two_machine_path, argv, tau):
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", argv[0], "--network", two_machine_path, "--tau", tau, *argv[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: tau must be finite and nonnegative, got {tau}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--tau", "0.1", "--eta", "0.7", "--mu", "5"], "unrecognized arguments: --mu 5"),
        (["tradeoff", "--tau", "0.1", "--eta", "0.7", "--zeta", "0.6", "--gains", "g.json"], "unrecognized"),
        (["tradeoff", "--tau", "0.1", "--eta", "0.7", "--zeta", "0.6", "--gain-mode", "uniform"], "unrecognized"),
        (["synth", "--tau", "0.1", "--eta", "0.7", "--kappa", "1"], "unrecognized arguments: --kappa 1"),
        (["stats", "--tau", "0.1", "--eta", "0.7", "--gains", "GAINS", "--mu", "5"], "combined with --mu"),
        (["stats", "--tau", "0.1", "--eta", "0.7", "--gains", "GAINS", "--kappa", "0", "--gain-mode", "uniform"],
         "--gains cannot be combined with --kappa, --gain-mode"),
        (["simulate", "--tau", "0.1", "--eta", "0.7", "--gains", "GAINS", "--mu", "-0"], "combined with --mu"),
        (["risk", "--from-stats", "STATS", "--zeta", "1.0"], "--from-stats cannot be combined with --network"),
        (["risk", "--from-stats", "STATS", "--zeta", "1.0", "--gains", "GAINS"], "--network, --gains"),
        (["risk", "--tau", "0.05", "--kappa", "0.5", "--zeta", "1.0"], "risk --network needs --eta"),
        (["risk", "--tau", "0", "--eta", "0.7", "--zeta", "0.3", "--zeta-deg", "60"],
         "--zeta cannot be combined with --zeta-deg"),
        (["tradeoff", "--tau", "0.1", "--eta", "0.7", "--zeta", "0.6", "--zeta-deg", "60"],
         "--zeta cannot be combined with --zeta-deg"),
    ],
)
def test_gain_flags_only_where_read_and_never_overridden(two_machine_path, tmp_path, argv, message):
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps({"mode": "eigen", "mu": [0.0, 0.0], "kappa": [0.0, 1.0]}))
    stats = tmp_path / "stats.csv"
    stats.write_text("i,j,sigma\n1,2,0.3\n")
    argv = [{"GAINS": str(gains), "STATS": str(stats)}.get(a, a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", argv[0], "--network", two_machine_path, *argv[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, extra", [("stats", []), ("risk", ["--zeta", "1.0"])])
def test_unstable_consensus_mode_exits_3_at_zero_delay(two_machine_path, tmp_path, command, extra):
    gains = tmp_path / "g.json"
    gains.write_text(json.dumps({"mode": "eigen", "mu": [-0.5, 0.0], "kappa": [0.0, 1.0]}))
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", command, "--network", two_machine_path, "--tau", "0", "--eta", "0.7",
         "--gains", str(gains), *extra],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "mode 1 is unstable" in proc.stderr


@pytest.mark.parametrize("flag", ["--tau", "--eta", "--etap"])
def test_risk_from_stats_refuses_network_path_flags(tmp_path, flag):
    stats = tmp_path / "stats.csv"
    stats.write_text("i,j,sigma\n1,2,0.3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", "risk", "--from-stats", str(stats), "--zeta", "1.0", flag, "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert f"--from-stats cannot be combined with {flag}" in proc.stderr


def test_risk_unset_delay_and_measurement_noise_read_zero(two_machine_path, capsys):
    base = ["risk", "--network", two_machine_path, "--eta", "0.7", "--kappa", "1.0", "--zeta", "1.0"]
    _run_ok(base)
    implicit = capsys.readouterr().out
    _run_ok([*base, "--tau", "0", "--etap", "0"])
    assert capsys.readouterr().out == implicit


def test_scalar_gain_defaults(two_machine_path, capsys):
    base = ["stability", "--network", two_machine_path, "--tau", "0.1"]
    _run_ok(base)
    implicit = capsys.readouterr().out
    _run_ok([*base, "--mu", "0", "--kappa", "0", "--gain-mode", "uniform"])
    assert capsys.readouterr().out == implicit
    # a negative zero reaches the spec as -0.0
    _run_ok([*base, "--mu", "-0"])
    assert capsys.readouterr().out.splitlines()[2].split(",")[2] == "-0"


def test_risk_from_stats_names_the_bad_line_after_good_rows(tmp_path):
    # rows are parsed before the one batched risk call; a bad sigma is still reported by its own line
    stats = tmp_path / "stats.csv"
    stats.write_text("i,j,sigma\n1,2,0.3\n1,3,0.4\n\n2,3,-0.1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wacrisk.cli", "risk", "--from-stats", str(stats), "--zeta", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert f"{stats} line 5: expected i,j,sigma with sigma >= 0, got '2,3,-0.1'" in proc.stderr


def test_non_finite_gains_exit_2_without_a_warning(line3_path, tmp_path):
    # scalar flags and a --gains file holding NaN (which Python's json accepts) are
    # refused where the gains are resolved, before any arithmetic can warn
    nan_gains = tmp_path / "nan_gains.json"
    nan_gains.write_text('{"mode": "uniform", "mu": NaN, "kappa": 1.0}')
    for argv, field in (
        (["stability", "--network", line3_path, "--tau", "0.1", "--kappa", "inf"], "kappa"),
        (["stability", "--network", line3_path, "--tau", "0.1", "--mu", "nan", "--gain-mode", "consensus"], "mu"),
        (["stats", "--network", line3_path, "--tau", "0.1", "--eta", "0.7", "--gains", str(nan_gains)], "mu"),
    ):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "wacrisk.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2, proc.stderr
        assert f"gain {field} must be finite" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
