import csv
import hashlib
import json

import pytest

from surfdec import cli, experiments
from surfdec.cli import main


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(
        [
            "simulate", "--distance", "3", "--p", "0.01", "--trials", "100",
            "--seed", "7", "--decoder", "mwpm", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    row = rows[0]
    assert row["distance"] == "3" and row["decoder"] == "mwpm"
    assert int(row["failures"]) <= 100
    assert 0.0 <= float(row["rate"]) <= 1.0


def test_simulate_json_echo(tmp_path):
    out = tmp_path / "r.csv"
    js = tmp_path / "r.json"
    rc = main(
        [
            "simulate", "--distance", "3", "--p", "0.02", "--trials", "50",
            "--seed", "1", "--out", str(out), "--json", str(js),
        ]
    )
    assert rc == 0
    blob = json.loads(js.read_text())
    assert blob["schema"] == "surfdec-results-v1"
    assert blob["config"]["distance"] == 3
    assert blob["results"][0]["trials"] == 50


def test_zero_failures_report_an_interval_from_zero(tmp_path, capsys):
    # at p = 1e-300 no trial fails; the interval reported and written around
    # the rate of 0 starts at exactly 0 (rounding once made it 5.551e-17)
    out = tmp_path / "r.csv"
    rc = main(
        [
            "simulate", "--distance", "3", "--p", "1e-300", "--trials", "3",
            "--threads", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    assert "rate 0.000e+00  [0.000e+00, 5.615e-01]" in capsys.readouterr().err
    (row,) = csv.DictReader(out.open())
    assert (row["failures"], row["rate"], row["ci_low"]) == ("0", "0.0", "0.0")


def test_byte_identical_reruns_with_threads(tmp_path):
    args = [
        "simulate", "--distance", "3", "--p", "0.01", "--trials", "120",
        "--seed", "9", "--decoder", "irmwpm",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert main(args + ["--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes_and_prints_conditional_count(tmp_path, capsys):
    rc = main(["verify", "--instances", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "32/32 conditionals matched" in out


def test_enumerate_faults_type_a_count(tmp_path):
    out = tmp_path / "f.json"
    rc = main(
        ["enumerate-faults", "--distance", "3", "--rounds", "3", "--out", str(out)]
    )
    assert rc == 0
    blob = json.loads(out.read_text())
    # pick an interior temporal pair on the X lattice and count mechanisms
    from collections import defaultdict

    by_sig = defaultdict(set)
    for f in blob["faults"]:
        sig = tuple(tuple(e) for e in f["x_lattice_events"])
        if len(sig) == 2:
            by_sig[sig].add((f["round"], f["kind"], f["index"]))
    target = (((3, 2)), ((3, 3)))
    assert len(by_sig[target]) == 5


def test_dump_layout(tmp_path):
    out = tmp_path / "lay.json"
    assert main(["dump-layout", "--distance", "3", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert len(blob["data_qubits"]) == 13
    assert len(blob["x_measure_qubits"]) == 6


def test_dump_graph(tmp_path):
    out = tmp_path / "g.json"
    rc = main(
        [
            "dump-graph", "--distance", "3", "--rounds", "3", "--p", "0.001",
            "--lattice", "Z", "--out", str(out),
        ]
    )
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["kind"] == "Z"
    assert blob["correlations"] is not None


#: sha256 of `dump-graph --distance 7` as written by the per-fault
#: enumeration over all seven rounds, before graphs were built from one round
DUMP_GRAPH_D7_SHA256 = {
    "X": "3510a9e474e689695ee69d903c46295d31fc3fd7549e2463f0967a274ec04d08",
    "Z": "4a562aae3116060abe3c843bcf2bb22a736991187518bc527c88a52eb9300a7a",
}


@pytest.mark.parametrize("lattice", ["X", "Z"])
def test_dump_graph_distance_7_is_pinned(tmp_path, lattice):
    out = tmp_path / "g.json"
    rc = main(
        ["dump-graph", "--distance", "7", "--lattice", lattice, "--out", str(out)]
    )
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_GRAPH_D7_SHA256[lattice]


#: sha256 of `enumerate-faults` output: every single fault's events and
#: residual, byte for byte, with and without idle noise and at d = 5
ENUMERATE_SHA256 = {
    ("--distance", "3", "--rounds", "3"):
        "878d8274d3fee703fd71cd0d0734cc9b7643487c82de6d54d18fc773502acc38",
    ("--distance", "3", "--rounds", "3", "--idle-noise", "off"):
        "ac05d2fc654a4b0ed9a0fb01525335a48ce457a5cef44720db0989681163b8e3",
    ("--distance", "5", "--rounds", "2"):
        "e443386f87c57f05d17e7fe09e858752336e0f86817c9a7e8a1c017323d73876",
}


@pytest.mark.parametrize("flags", list(ENUMERATE_SHA256), ids=" ".join)
def test_enumerate_faults_is_pinned(tmp_path, flags):
    out = tmp_path / "faults.json"
    assert main(["enumerate-faults", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ENUMERATE_SHA256[flags]


def _fit_rates(tmp_path):
    """A rates CSV drawn from a known scaling law, enough points to fit."""
    from surfdec.experiments import FitParams

    truth = FitParams(a=-0.01, b=-0.2, c=1.3, e=0.02, f=0.45, g=0.7)
    rates = tmp_path / "rates.csv"
    with rates.open("w") as fh:
        fh.write("distance,p,rate\n")
        for p in (0.002, 0.004, 0.006, 0.01):
            for L in (5, 7, 9):
                fh.write(f"{L},{p},{truth.predict(p, L)}\n")
    return rates


def test_fit_roundtrip(tmp_path):
    rates = _fit_rates(tmp_path)
    out = tmp_path / "fit.json"
    rc = main(
        ["fit", "--in", str(rates), "--out", str(out), "--predict", "0.001", "31"]
    )
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["fit"]["a"] == pytest.approx(-0.01, abs=1e-6)
    assert blob["predictions"][0]["distance"] == 31


@pytest.mark.parametrize(
    "point",
    [("0.001", "31.7"), ("0.001", "-4"), ("0.001", "1"), ("2", "31"), ("0", "31"),
     ("nan", "31"), ("0.001", "inf")],
    ids="-".join,
)
def test_fit_rejects_prediction_points_outside_the_model(tmp_path, capsys, point):
    # p must be a rate in (0, 1) and L an integral distance >= 2; a bad point
    # exits 2, names itself and leaves no output file
    rates = _fit_rates(tmp_path)
    out = tmp_path / "fit.json"
    rc = main(["fit", "--in", str(rates), "--out", str(out), "--predict", *point])
    assert rc == 2
    assert not out.exists()
    p, L = (float(x) for x in point)
    assert f"--predict {p:g} {L:g}" in capsys.readouterr().err


def test_usage_error_exit_codes(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--distance", "3"])  # missing required --p
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--distance", "3", "--p", "0.01", "--bogus-flag", "1",
              "--out", "/tmp/x.csv"])
    assert exc.value.code == 2
    # semantically invalid values are usage errors too
    rc = main(
        ["simulate", "--distance", "1", "--p", "0.5", "--trials", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    # a negative iteration cap used to run plain MWPM and exit 0
    rc = main(
        ["simulate", "--distance", "3", "--p", "0.01", "--trials", "50",
         "--max-iters", "-1", "--out", str(tmp_path / "neg.csv")]
    )
    assert rc == 2
    assert not (tmp_path / "neg.csv").exists()
    rc = main(
        ["lifetime", "--distance", "3", "--p", "0.01", "--trials", "5",
         "--check-period", "0", "--out", str(tmp_path / "lt.csv")]
    )
    assert rc == 2
    # lifetime windows always close with the ideal readout
    with pytest.raises(SystemExit) as exc:
        main(["lifetime", "--distance", "3", "--p", "0.01", "--closure", "open",
              "--out", str(tmp_path / "lt.csv")])
    assert exc.value.code == 2
    cfgfile = tmp_path / "open.cfg"
    cfgfile.write_text("closure = open\n")
    with pytest.raises(SystemExit) as exc:
        main(["lifetime", "--config", str(cfgfile), "--distance", "3",
              "--p", "0.01", "--out", str(tmp_path / "lt.csv")])
    assert exc.value.code == 2
    # checks run only at window ends: a period of 5 with 3-round windows
    # used to check every 15 rounds
    rc = main(
        ["lifetime", "--distance", "5", "--p", "0.01", "--trials", "2",
         "--rounds", "3", "--out", str(tmp_path / "lt.csv")]
    )
    assert rc == 2
    assert not (tmp_path / "lt.csv").exists()
    # thread and prune counts below 1 used to run as 1
    for flag, value in (("--threads", "0"), ("--threads", "-3"),
                        ("--prune", "0"), ("--prune", "-1")):
        rc = main(
            ["simulate", "--distance", "5", "--p", "0.01", "--trials", "30",
             "--seed", "1", flag, value, "--out", str(tmp_path / "bad.csv")]
        )
        assert rc == 2, (flag, value)
        assert not (tmp_path / "bad.csv").exists()
    # a threshold grid the scan cannot use used to be rejected only after
    # every one of its points had been simulated
    def no_estimate(config):
        raise AssertionError(f"simulated {config} before the grid was checked")

    monkeypatch.setattr(cli, "estimate_rate", no_estimate)
    for distances, grid in ((["3", "5"], ["0.01", "0.02", "0.03"]),
                            (["5", "5"], ["0.01", "0.02", "0.03", "0.04"]),
                            (["3", "5"], ["0.01", "0.02", "0.02", "0.03"])):
        rc = main(["threshold", "--distances", *distances, "--p-grid", *grid,
                   "--trials", "200", "--out", str(tmp_path / "th.json")])
        assert rc == 2, (distances, grid)
        assert not (tmp_path / "th.json").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--distance", "2", "--p", "0.001", "--trials", "5"],
        ["lifetime", "--distance", "2", "--p", "0.001", "--trials", "5"],
        ["dump-graph", "--distance", "2"],
        ["threshold", "--distances", "3", "2", "--p-grid", "0.001", "0.002",
         "0.003", "0.004", "--trials", "50"],
    ],
    ids=lambda command: command[0],
)
def test_decoding_commands_reject_distance_2(tmp_path, monkeypatch, capsys, command):
    # distance 2 has no decoding graph: these used to exit 1 on a graph
    # conflict, threshold only after simulating every distance-3 point
    def no_estimate(config):
        raise AssertionError(f"simulated {config} before the grid was checked")

    monkeypatch.setattr(cli, "estimate_rate", no_estimate)
    out = tmp_path / "out"
    assert main([*command, "--out", str(out)]) == 2
    assert not out.exists()
    assert "distance >= 3, got 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--distance", "3", "--p", "0.01", "--trials", "2"],
        ["lifetime", "--distance", "3", "--p", "0.01", "--trials", "2"],
        ["threshold", "--distances", "3", "5", "--p-grid", "0.001", "0.002",
         "0.003", "0.004", "--trials", "2"],
    ],
    ids=lambda command: command[0],
)
def test_negative_seed_is_a_usage_error_before_any_graph(
    tmp_path, monkeypatch, capsys, command
):
    # numpy used to reject the seed only after both graphs were built, with
    # a message that named neither the flag nor the value
    def no_build(*args):
        raise AssertionError("graphs built before the seed was checked")

    monkeypatch.setattr(experiments, "build_decoder_graphs", no_build)
    out = tmp_path / "out"
    assert main([*command, "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "usage error: seed must be >= 0, got -1"
    ]


@pytest.mark.parametrize(
    "command",
    [
        ["dump-graph", "--distance", "3"],
        ["simulate", "--distance", "3", "--trials", "2"],
    ],
    ids=lambda command: command[0],
)
def test_underflowing_rate_is_named_as_an_underflow(tmp_path, capsys, command):
    # the smallest positive float: every edge probability coeff * p rounds
    # to 0, which used to be reported as "p = 0"
    out = tmp_path / "out"
    assert main([*command, "--p", "5e-324", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1] == (
        "usage error: p = 5e-324 underflows: 4/15 * p rounds to 0"
    )


@pytest.mark.parametrize(
    "command, flag",
    [
        (["simulate", "--distance", "3", "--p", "0.01", "--trials", "5"], "--out"),
        (["simulate", "--distance", "3", "--p", "0.01", "--trials", "5",
          "--out", "{ok}"], "--json"),
        (["threshold", "--distances", "3", "5", "--p-grid", "0.001", "0.002",
          "0.003", "0.004", "--trials", "5", "--out", "{ok}"], "--csv"),
    ],
    ids=["simulate-out", "simulate-json", "threshold-csv"],
)
def test_unwritable_output_is_a_usage_error_before_any_trial(
    tmp_path, monkeypatch, capsys, command, flag
):
    # an output file in a missing directory used to fail with a traceback
    # and exit 1, after every trial had run
    def no_estimate(config):
        raise AssertionError(f"simulated {config} before the outputs were checked")

    monkeypatch.setattr(cli, "estimate_rate", no_estimate)
    ok = tmp_path / "ok"
    for bad in (tmp_path / "missing" / "x", tmp_path):
        argv = [arg.replace("{ok}", str(ok)) for arg in command]
        assert main([*argv, flag, str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"usage error: cannot write {flag} {bad}"]
    assert not ok.exists()


def test_layout_commands_accept_distance_2(tmp_path):
    for command in ("dump-layout", "enumerate-faults"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--distance", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())


@pytest.mark.parametrize(
    "window", [("3", "3"), ("5", "2")], ids=lambda w: f"d{w[0]}-T{w[1]}"
)
def test_verify_rejects_a_window_without_an_interior(capsys, window):
    # these used to print [FAIL] lines for a correct build and exit 1
    L, T = window
    assert main(["verify", "--distance", L, "--rounds", T, "--instances", "5"]) == 2
    captured = capsys.readouterr()
    assert "distance >= 4 and rounds >= 3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_verify_rejects_fewer_than_one_instance(capsys, instances):
    # these used to print [ok] lines for checks over no instances and exit 0
    rc = main(["verify", "--distance", "5", "--rounds", "3", "--instances", instances])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"instances >= 1, got {instances}" in captured.err
    assert captured.out == ""


def test_verify_passes_at_its_smallest_window(capsys):
    rc = main(["verify", "--distance", "4", "--rounds", "3", "--instances", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "32/32 conditionals matched" in out
    # the matcher oracle keeps its own window, and its line says which
    assert "brute force (10 instances at L=3, T=3, p=0.02)" in out


def test_verify_draws_errors_on_more_than_64_data_qubits(capsys):
    # d=7 has 85 data qubits, past what one int64 draw can cover
    rc = main(["verify", "--distance", "7", "--rounds", "3", "--instances", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "syndrome circuit equals ideal syndrome (5 errors)" in out


def test_lifetime_check_period_a_multiple_of_rounds_runs(tmp_path):
    out = tmp_path / "lt.csv"
    rc = main(
        ["lifetime", "--distance", "5", "--p", "0.01", "--trials", "1", "--seed", "1",
         "--rounds", "3", "--check-period", "6", "--threads", "1", "--out", str(out)]
    )
    assert rc == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[:4] == ["5", "0.01", "irmwpm", "1"]
    assert float(row[4]) % 6 == 0  # one trial: its rounds, failed at a check


def test_config_file_defaults_and_override(tmp_path):
    cfgfile = tmp_path / "scan.cfg"
    cfgfile.write_text("trials = 60\nseed = 4\ndecoder = mwpm\n")
    out = tmp_path / "o.csv"
    rc = main(
        [
            "simulate", "--config", str(cfgfile), "--distance", "3",
            "--p", "0.01", "--trials", "30", "--out", str(out),
        ]
    )
    assert rc == 0
    row = next(csv.DictReader(out.open()))
    assert row["trials"] == "30"  # flag overrides file
    assert row["decoder"] == "mwpm"  # file supplies the rest


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("no_such_option = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(
            ["simulate", "--config", str(cfgfile), "--distance", "3",
             "--p", "0.01", "--out", "/tmp/x.csv"]
        )
    assert exc.value.code == 2


def test_config_file_holds_required_and_output_flags(tmp_path):
    js = tmp_path / "run dir" / "r.json"
    js.parent.mkdir()
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        f"distance = 3\np = 0.01  # required flags\ntrials = 40\njson = '{js}'\n"
    )
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    config = json.loads(js.read_text())["config"]
    assert (config["distance"], config["p"], config["trials"]) == (3, 0.01, 40)


def test_config_file_lists_match_flags_and_yield_to_them(tmp_path):
    grid = ["--p-grid", "0.004", "0.008", "0.012", "0.016"]
    common = ["--trials", "60", "--seed", "2", "--decoder", "mwpm"]
    same, other = tmp_path / "same.cfg", tmp_path / "other.cfg"
    same.write_text("distances = 3 5\np_grid = 0.004 0.008 0.012 0.016\n")
    other.write_text("distances = 3 5\np-grid = 0.001 0.002 0.003 0.004\n")
    runs = {
        "flags": ["--distances", "3", "5", *grid],
        "file": ["--config", str(same)],
        "file overridden": ["--config", str(other), *grid],
    }
    blobs = {}
    for name, args in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(["threshold", *args, *common, "--out", str(out)]) == 0
        blobs[name] = out.read_bytes()
    assert blobs["file"] == blobs["flags"]
    assert blobs["file overridden"] == blobs["flags"]


def test_config_file_errors_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "o.csv"
    run = ["simulate", "--distance", "3", "--p", "0.01", "--out", str(out)]
    bad = tmp_path / "bad.cfg"
    for text in ("trials 60\n", "= 60\n", "out = 'unclosed\n", "config = x.cfg\n"):
        bad.write_text(text)
        assert main(["simulate", "--config", str(bad), *run[1:]]) == 2, text
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg"), *run[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("usage error: ") for line in err)
    assert not out.exists()
    # only the Monte Carlo subcommands read a config file
    bad.write_text("distance = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["dump-layout", "--config", str(bad), "--out", str(tmp_path / "l.json")])
    assert exc.value.code == 2


def test_fit_input_errors_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "fit.json"
    no_rate = tmp_path / "no_rate.csv"
    no_rate.write_text("distance,p\n5,0.01\n")
    for path in (tmp_path / "missing.csv", no_rate):
        assert main(["fit", "--in", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("usage error: ") for line in err)
    assert err[1] == f"usage error: {no_rate}:2: column rate holds None, not a number"
    assert not out.exists()


def test_fit_names_the_file_line_and_column_of_a_bad_cell(tmp_path, capsys):
    # used to read only "could not convert string to float: 'abc'"
    rates = _fit_rates(tmp_path)
    with rates.open("a") as fh:
        fh.write("5,0.01,abc\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(rates), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"usage error: {rates}:14: column rate holds 'abc', not a number"]
    assert not out.exists()


def test_fit_reads_an_integral_distance_written_as_a_float(tmp_path):
    # "5.0" used to fail int() with a usage error naming no row
    rates = _fit_rates(tmp_path)
    as_floats = tmp_path / "floats.csv"
    lines = rates.read_text().splitlines()
    as_floats.write_text(
        "\n".join(lines[:1] + [line.replace(",", ".0,", 1) for line in lines[1:]])
        + "\n"
    )
    assert "5.0,0.002," in as_floats.read_text()
    blobs = []
    for path in (rates, as_floats):
        out = tmp_path / f"{path.stem}.json"
        assert main(["fit", "--in", str(path), "--out", str(out)]) == 0
        blobs.append(json.loads(out.read_text()))
    assert blobs[0] == blobs[1]


def test_fit_with_too_few_points_is_a_usage_error(tmp_path, capsys):
    rates = tmp_path / "two.csv"
    rates.write_text("distance,p,rate\n3,0.01,0.1\n5,0.01,0.05\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(rates), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "usage error: need >= 6 positive-rate points over >= 2 distances, got 2"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "row, named",
    [("5,0.01,inf", "p=0.01, distance=5, rate=inf"),
     ("5,0.01,nan", "p=0.01, distance=5, rate=nan"),
     ("5,0,0.01", "p=0, distance=5, rate=0.01")],
    ids=["inf-rate", "nan-rate", "p0"],
)
def test_fit_rejects_a_rate_point_outside_the_model(tmp_path, capsys, row, named):
    # an inf rate used to fit to NaN and exit 0, and p = 0 to fail with only
    # "math domain error"; the 13th row follows the 12 of _fit_rates
    rates = _fit_rates(tmp_path)
    with rates.open("a") as fh:
        fh.write(row + "\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(rates), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ")
    assert f"point 13 ({named})" in err[0]
    assert not out.exists()


def test_threshold_simulates_each_grid_point_once(tmp_path, monkeypatch):
    points = []

    def recording(config):
        points.append((config.L, config.p))
        return estimate_rate(config)

    estimate_rate = cli.estimate_rate
    monkeypatch.setattr(cli, "estimate_rate", recording)
    out = tmp_path / "th.json"
    grid = ["0.01", "0.02", "0.03", "0.04", "0.04"]
    assert main(
        ["threshold", "--distances", "3", "5", "--p-grid", *grid, "--trials", "20",
         "--decoder", "mwpm", "--threads", "1", "--out", str(out)]
    ) == 0
    assert points == [(L, p) for L in (3, 5) for p in (0.01, 0.02, 0.03, 0.04)]
    blob = json.loads(out.read_text())
    assert [(row["distance"], row["p"]) for row in blob["points"]] == points
    assert blob["config"]["p_grid"] == [float(p) for p in grid]


def test_lifetime_command(tmp_path):
    out = tmp_path / "lt.csv"
    rc = main(
        [
            "lifetime", "--distance", "3", "--p", "0.02", "--trials", "10",
            "--seed", "3", "--decoder", "mwpm", "--cap", "500",
            "--out", str(out),
        ]
    )
    assert rc == 0
    row = next(csv.DictReader(out.open()))
    assert float(row["mean_rounds"]) >= 3


def test_threshold_command_smoke(tmp_path):
    out = tmp_path / "th.json"
    rc = main(
        [
            "threshold", "--distances", "3", "5",
            "--p-grid", "0.004", "0.008", "0.012", "0.016",
            "--trials", "150", "--seed", "2", "--decoder", "mwpm",
            "--out", str(out), "--csv", str(tmp_path / "th.csv"),
        ]
    )
    assert rc == 0
    blob = json.loads(out.read_text())
    assert len(blob["points"]) == 8
    assert "threshold" in blob
    # every setting that changes the numbers is echoed
    assert blob["config"] == {
        "distances": [3, 5],
        "p_grid": [0.004, 0.008, 0.012, 0.016],
        "trials": 150,
        "seed": 2,
        "decoder": "mwpm",
        "max_iterations": 10,
        "idle_noise": True,
        "prune_neighbors": None,
    }


#: sha256 of short results files, recorded with the fault sampler that skips
#: from one faulty location to the next; performance work must leave them
#: byte-identical
RESULTS_SHA256 = {
    "simulate.csv": "04eddef07c42418049e163cd92d940adfed04d534cb051e4986bd74bee4e0a01",
    "simulate.json": "6bbaa8565e6f550957ebc52113896575f1bb9660fd3156c98d730918d352cd69",
    "lifetime-ideal.csv": "ef85b256d7ac992912dee9e28c1da9460730f8ba45712b4e356edf6462404f63",
    "stopping-algorithm1-literal.json":
        "1186b976cb706ab04868da38e37a962f67b625657075a27b698c4795b32639bb",
    "stopping-weight-stable.json":
        "c99aeac97f62c6fbfc22abef8d6e60cb8533019b417ddc4f6300143f24eb9615",
    "boundary-off.json":
        "d00e423c92a9f2269d2f1a4488b140f6e1032708e2c6f0ba3da91d97db7a595f",
}

#: the pinned simulate run again, with one non-default IRMWPM setting each
SIMULATE_VARIANTS = {
    "stopping-algorithm1-literal.json": ["--stopping", "algorithm1-literal"],
    "stopping-weight-stable.json": ["--stopping", "weight-stable"],
    "boundary-off.json": ["--reweight-boundary", "off"],
}


def test_results_files_are_pinned(tmp_path):
    simulate = [
        "simulate", "--distance", "5", "--rounds", "5", "--p", "0.005",
        "--trials", "400", "--seed", "42", "--decoder", "irmwpm", "--threads", "1",
    ]
    assert main(
        simulate + ["--out", str(tmp_path / "simulate.csv"),
                    "--json", str(tmp_path / "simulate.json")]
    ) == 0
    for name, flags in SIMULATE_VARIANTS.items():
        assert main(
            simulate + flags + ["--out", str(tmp_path / f"{name}.csv"),
                                "--json", str(tmp_path / name)]
        ) == 0
    assert main(
        [
            "lifetime", "--distance", "5", "--p", "0.005", "--trials", "4",
            "--seed", "7", "--threads", "1",
            "--out", str(tmp_path / "lifetime-ideal.csv"),
        ]
    ) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in RESULTS_SHA256
    }
    assert digests == RESULTS_SHA256
