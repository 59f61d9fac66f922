import csv
import io
import math
import shlex
import tracemalloc
from pathlib import Path

import pytest

from ndpa.cli import (FIGURE_NAMES, Scenario, ScenarioError, build_parser, main,
                      run, run_figure, sweep, write_csv)
from ndpa.amplitudes import CoherentPair, FockPair, PureAModeState
from ndpa.model import ModelParams


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_write_csv_bytes_match_csv_writer(tmp_path, capsys):
    header = ["gt", "p_00", "label, quoted"]
    rows = [[0.0, -0.0, 5e-324], [math.nan, math.inf, -math.inf],
            [0.1, 1e300, -2.5e-17], [3.0, 1.0 / 3.0, 7]]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_csv(str(tmp_path / "t.csv"), header, rows)
    assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode()
    write_csv("-", header, rows)
    assert capsys.readouterr().out == expected.getvalue()


def test_scenario_validation():
    params = ModelParams.from_k2(1.5, omega_a=3.0, omega_b=2.0)
    with pytest.raises(ScenarioError):
        Scenario(params=params, initial=FockPair(1, 1),
                 observable="probability", grid=(0.0, 0.0, 2))
    with pytest.raises(ScenarioError):
        Scenario(params=params, initial=FockPair(1, 1),
                 observable="probability", grid=(0.0, 1.0, 1))


def test_run_probability_csv(tmp_path):
    out = tmp_path / "p.csv"
    params = ModelParams.from_k2(1.5, omega_a=3.0, omega_b=2.0)
    scn = Scenario(params=params, initial=FockPair(1, 1),
                   observable="probability", grid=(0.0, 2.0, 3),
                   output=str(out), options={"outcome": (1, 1)})
    header, rows = run(scn)
    assert header == ["gt", "p_11"]
    file_header, file_rows = read_csv(out)
    assert file_header == header
    assert float(file_rows[0][1]) == pytest.approx(1.0)
    assert len(file_rows) == 3


def test_run_selector_mismatch():
    params = ModelParams.from_k2(1.5, omega_a=3.0, omega_b=2.0)
    scn = Scenario(params=params, initial=FockPair(1, 1), observable="eta",
                   grid=(0.0, 1.0, 2), output=None)
    with pytest.raises(ScenarioError):
        run(scn)
    with pytest.raises(ScenarioError):
        run(Scenario(params=params, initial=CoherentPair(0.8, 0.5),
                     observable="rho", grid=(0.0, 1.0, 2), output=None))


def test_main_zero_mean_mandel_q_errors(capsys):
    assert main(["observable", "--name", "mandel_q", "--initial", "coherent:0,0",
                 "--tmax", "1", "--steps", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["evolve", "--cutoff", "40"], ["prob", "--tol", "1e-8"],
    ["observable", "--cutoff", "40"], ["sweep", "--param", "k2", "--values", "1",
                                       "--tol", "1e-8"],
    ["oracle-check", "--steps", "5"], ["oracle-check", "--out", "x.csv"],
    ["sweep", "--param", "k2", "--values", "1", "--name", "coefficients"]])
def test_verbs_reject_options_they_do_not_read(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
                if line.startswith("ndpa ")]
    assert len(commands) >= 6
    for argv in commands:
        build_parser().parse_args(argv)


def test_infinite_rho_serialized_as_inf(tmp_path):
    out = tmp_path / "rho.csv"
    params = ModelParams.from_k2(1.5, omega_a=3.0, omega_b=2.0)
    scn = Scenario(params=params, initial=FockPair(2, 1), observable="rho",
                   grid=(0.0, 1.0, 2), output=str(out))
    run(scn)
    _, rows = read_csv(out)
    assert rows[0][1] == "inf"
    assert float(rows[0][1]) == math.inf


def test_sweep_k2(tmp_path):
    out = tmp_path / "sweep.csv"
    params = ModelParams.from_k2(1.5, omega_a=3.0, omega_b=2.0)
    scn = Scenario(params=params, initial=FockPair(1, 1),
                   observable="probability", grid=(0.0, 2.0, 5),
                   output=str(out), options={"outcome": (1, 1)})
    header, rows = sweep(scn, "k2", [0.5, 1.0, 1.5])
    assert header == ["gt", "k2=0.5", "k2=1.0", "k2=1.5"]
    assert all(len(r) == 4 for r in rows)
    with pytest.raises(ScenarioError):
        sweep(scn, "alpha", [1.0])


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_all_figure_presets_run(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    header, rows = run_figure(name, str(out))
    assert header[0] == "gt"
    assert len(rows) > 100
    assert out.exists()


def test_figure_output_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_figure("fig1", str(a))
    run_figure("fig1", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_fig1_matches_revival(tmp_path):
    out = tmp_path / "fig1.csv"
    run_figure("fig1", str(out))
    _, rows = read_csv(out)
    t_rev = math.pi * math.sqrt(2.0)
    closest = min(rows, key=lambda r: abs(float(r[0]) - t_rev))
    assert float(closest[1]) > 0.999
    assert float(closest[2]) < 1e-3


def test_main_prob_roundtrip(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main(["prob", "--initial", "fock:1,1", "--k2", "1.5",
                 "--tmax", "2", "--steps", "5", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["gt", "p_11"]
    assert len(rows) == 5


def test_main_observable_eta(tmp_path):
    out = tmp_path / "eta.csv"
    code = main(["observable", "--name", "eta", "--initial", "coherent:0,3",
                 "--k2", "10", "--tmax", "2", "--steps", "3",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["gt", "eta", "yuen_bound"]
    for row in rows:
        assert float(row[1]) <= float(row[2]) + 1e-9


def test_main_bad_state_errors(capsys):
    assert main(["prob", "--initial", "bogus:1", "--tmax", "1"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e6", "inf", "nan"])
def test_main_poisson_refuses_an_unbounded_support(alpha, capsys):
    argv = ["prob", "--initial", f"poisson:{alpha}", "--steps", "3", "--tmax", "1",
            "--m", "0", "--n", "0"]
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha must be finite" in err
    assert peak < 2_000_000  # no support sized by alpha was allocated


@pytest.mark.parametrize("name", ["mean", "mandel_q", "correlation"])
def test_moments_refuse_amode_state(name, capsys):
    params = ModelParams.from_k2(1.5, omega_a=3.0, omega_b=2.0)
    state = PureAModeState.poisson(0.85)
    with pytest.raises(ScenarioError, match="PureAModeState"):
        run(Scenario(params=params, initial=state, observable=name,
                     grid=(0.0, 1.0, 3)))
    argv = ["--initial", "poisson:0.85", "--tmax", "1", "--steps", "3"]
    assert main(["observable", "--name", name] + argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    # a truncated coherent state: its quadrature variance is the kernel
    assert main(["observable", "--name", "variance"] + argv) == 0


@pytest.mark.parametrize("verb", ["evolve", "observable"])
@pytest.mark.parametrize("grid", [["--steps", "0"], ["--tmax", "-1", "--steps", "2"]])
def test_main_bad_grid_errors(verb, grid, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main([verb, "--out", str(out)] + grid) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["evolve", "--k2", "nan"], "k2"),
    (["prob", "--tmax", "inf"], "grid bounds"),
    (["oracle-check", "--tmax", "nan"], "t must be finite"),
    (["prob", "--initial", "coherent:nan,1", "--steps", "3", "--tmax", "1"],
     "alpha must be finite, got (nan+0j)"),
    (["observable", "--name", "variance", "--theta", "nan", "--initial", "fock:1,1",
      "--steps", "3", "--tmax", "1"], "theta must be finite, got nan"),
    (["sweep", "--name", "variance", "--param", "theta", "--values", "0,nan",
      "--initial", "fock:1,1", "--steps", "3", "--tmax", "1"],
     "theta must be finite, got nan")])
def test_main_non_finite_input_errors(argv, named, tmp_path, capsys):
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] != "oracle-check" else []
    assert main(argv + out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "out.csv").exists()


def test_main_evolve(tmp_path):
    out = tmp_path / "evolve.csv"
    code = main(["evolve", "--k2", "1.5", "--tmax", "3", "--steps", "4",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header[:3] == ["gt", "re_a_plus", "im_a_plus"]
    assert float(rows[0][7]) == pytest.approx(1.0)  # x(0) = 1


def test_main_oracle_check(capsys):
    code = main(["oracle-check", "--k2", "1.5", "--tmax", "1.5",
                 "--cutoff", "40", "--tol", "1e-8"])
    assert code == 0
    assert "within tolerance" in capsys.readouterr().out


def test_main_oracle_check_defaults(capsys):
    assert main(["oracle-check"]) == 0
    # an undersized cutoff reads as a truncation: cutoff and edge mass named
    assert main(["oracle-check", "--cutoff", "40"]) == 1
    err = capsys.readouterr().err
    assert "at cutoff 40" in err and "edge mass" in err


def test_main_sweep(tmp_path):
    out = tmp_path / "sw.csv"
    code = main(["sweep", "--initial", "fock:1,1", "--param", "k2",
                 "--values", "0.5,1.5", "--tmax", "2", "--steps", "4",
                 "--out", str(out)])
    assert code == 0
    header, _ = read_csv(out)
    assert header == ["gt", "k2=0.5", "k2=1.5"]


@pytest.mark.parametrize("name", ["probability", "mandel_q"])
def test_main_sweep_theta_needs_variance(name, tmp_path, capsys):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--name", name, "--param", "theta", "--values", "0,1",
                 "--initial", "fock:1,1", "--tmax", "1", "--steps", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(name) in err
    assert not out.exists()
