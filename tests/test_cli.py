import csv
import io
import math
import runpy
import shlex
import sys
import tracemalloc
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import ndpa.cli
from ndpa.cli import (FIGURE_NAMES, Scenario, ScenarioError, build_parser, main,
                      run, run_figure, sweep, write_csv)
from ndpa.amplitudes import (CoherentPair, FockPair, PureAModeState, coherent_mean_numbers,
                             coherent_revival_prob)
from ndpa.model import ModelParams
from ndpa.observables import (cross_correlation_coherent, cross_correlation_fock,
                              mandel_q_coherent, mandel_q_fock, mean_photon_fock,
                              quadrature_variance, snr_eta_coherent, squeezing_kernel)
from ndpa.weinorman import solve_analytic

from helpers import params_for


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
    params = params_for(1.5)
    with pytest.raises(ScenarioError):
        Scenario(params=params, initial=FockPair(1, 1),
                 observable="probability", grid=(0.0, 0.0, 2))
    with pytest.raises(ScenarioError):
        Scenario(params=params, initial=FockPair(1, 1),
                 observable="probability", grid=(0.0, 1.0, 1))


def test_run_probability_csv(tmp_path):
    out = tmp_path / "p.csv"
    params = params_for(1.5)
    scn = Scenario(params=params, initial=FockPair(1, 1),
                   observable="probability", grid=(0.0, 2.0, 3),
                   output=str(out), outcome=(1, 1))
    header, rows = run(scn)
    assert header == ["gt", "p_11"]
    file_header, file_rows = read_csv(out)
    assert file_header == header
    assert float(file_rows[0][1]) == pytest.approx(1.0)
    assert len(file_rows) == 3


def test_run_selector_mismatch():
    params = params_for(1.5)
    scn = Scenario(params=params, initial=FockPair(1, 1), observable="eta",
                   grid=(0.0, 1.0, 2), output=None)
    with pytest.raises(ScenarioError):
        run(scn)
    with pytest.raises(ScenarioError):
        run(Scenario(params=params, initial=CoherentPair(0.8, 0.5),
                     observable="rho", grid=(0.0, 1.0, 2), output=None))
    with pytest.raises(ScenarioError, match="unknown observable 'bogus'"):
        run(Scenario(params=params, initial=FockPair(1, 1), observable="bogus",
                     grid=(0.0, 1.0, 2)))


def test_main_zero_mean_mandel_q_errors(capsys):
    assert main(["observable", "--name", "mandel_q", "--initial", "coherent:0,0",
                 "--tmax", "1", "--steps", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_coherent_mandel_q_is_finite_where_its_moments_overflow(capsys):
    # <a+^2 a^2> passes 1e308 from g t ~ 178 at k^2 = 0; Q ~ n0 stays below 1e174
    assert main(["observable", "--name", "mandel_q", "--initial", "coherent:0.8,0.5j",
                 "--k2", "0", "--tmax", "200", "--steps", "201"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    header, *rows = out.out.splitlines()
    assert header == "gt,mandel_q" and len(rows) == 201
    q = np.array([row.split(",") for row in rows], dtype=float)[:, 1]
    assert np.isfinite(q).all() and q[0] == 0.0 and (q[1:] > 0.0).all()


@pytest.mark.parametrize("argv", [
    ["evolve", "--cutoff", "40"], ["prob", "--tol", "1e-8"],
    ["observable", "--cutoff", "40"], ["sweep", "--param", "k2", "--values", "1",
                                       "--tol", "1e-8"],
    ["oracle-check", "--steps", "5"], ["oracle-check", "--out", "x.csv"],
    ["sweep", "--param", "k2", "--values", "1", "--name", "coefficients"]])
def test_verbs_reject_options_they_do_not_read(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_readme_examples_parse(tmp_path, capsys):
    # each example runs through main and exits 0, its CSV written into tmp_path
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
                if line.startswith("ndpa ")]
    assert len(commands) >= 6
    for i, argv in enumerate(commands):
        build_parser().parse_args(argv)
        out = tmp_path / f"example_{i}.csv"
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(out)
        elif argv[0] != "oracle-check":  # the one verb that writes no CSV
            argv += ["--out", str(out)]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert argv[0] == "oracle-check" or out.stat().st_size > 0, argv


@pytest.mark.parametrize("model, params", [
    (["--k2", "0.5"], params_for(0.5)),
    (["--omega", "5.0"], ModelParams(omega_a=3.0, omega_b=2.0, g=1.0, omega=5.0))],
    ids=["k2", "omega"])
@pytest.mark.parametrize("verb, spec, header, columns", [
    (["observable", "--name", "mean"], "fock:2,1", ["mean_a", "mean_b"],
     lambda s, state: mean_photon_fock(s, state)),
    (["observable", "--name", "mean"], "coherent:0.8,0.5j", ["mean_a", "mean_b"],
     lambda s, state: coherent_mean_numbers(s, s, state)),
    (["observable", "--name", "mandel_q"], "fock:2,1", ["mandel_q"],
     lambda s, state: [mandel_q_fock(s, state)]),
    (["observable", "--name", "mandel_q"], "coherent:0.8,0.5j", ["mandel_q"],
     lambda s, state: [mandel_q_coherent(s, state)]),
    (["observable", "--name", "correlation"], "fock:2,1", ["f", "F"],
     lambda s, state: cross_correlation_fock(s, state)),
    (["observable", "--name", "correlation"], "coherent:0.8,0.5j", ["f", "F"],
     lambda s, state: cross_correlation_coherent(s, state)),
    (["prob"], "coherent:0.8,0.5j", ["p_return"],
     lambda s, state: [coherent_revival_prob(s, state)[0]]),
    (["observable", "--name", "variance", "--theta", "0.4"], "fock:2,1", ["var_x"],
     lambda s, state: [quadrature_variance(squeezing_kernel(s, 0.4), state)]),
    (["observable", "--name", "variance", "--theta", "0.4"], "coherent:0.8,0.5j", ["var_x"],
     lambda s, state: [quadrature_variance(squeezing_kernel(s, 0.4), state)]),
    (["observable", "--name", "eta"], "coherent:0.8,0.5j", ["eta", "yuen_bound"],
     lambda s, state: attrgetter("eta", "yuen_bound")(snr_eta_coherent(s, state)))],
    ids=["mean-fock", "mean-coherent", "mandel_q-fock", "mandel_q-coherent", "correlation-fock", "correlation-coherent",
         "prob-coherent", "variance-fock", "variance-coherent", "eta"])
def test_cli_columns_are_the_library_calls(model, params, verb, spec, header, columns, tmp_path):
    out = tmp_path / "columns.csv"
    argv = verb + model + ["--initial", spec, "--tmax", "2", "--steps", "5", "--out", str(out)]
    assert ndpa.cli._scenario_from_args(build_parser().parse_args(argv)).params == params
    assert main(argv) == 0
    times = np.linspace(0.0, 2.0, 5)
    state = ndpa.cli._parse_state(build_parser().parse_args(argv))
    want = [times] + list(columns(solve_analytic(params, times), state))
    file_header, rows = read_csv(out)
    assert file_header == ["gt"] + header
    got = np.array(rows, dtype=float).T
    assert len(got) == len(want)
    for label, column, value in zip(file_header, got, want):
        np.testing.assert_array_equal(column, value, err_msg=label)


@pytest.mark.parametrize("argv, solves", [
    (["figure", "fig7"], 1),
    (["figure", "fig5"], 2),  # two k^2 values
    (["observable", "--name", "variance", "--theta", "0.4", "--steps", "5"], 1),
    (["sweep", "--name", "variance", "--param", "theta", "--values", "0,0.4,1", "--steps", "5"],
     1),  # every theta column reads the one record of the grid
    (["sweep", "--param", "k2", "--values", "0.5,1,1.5", "--steps", "5"], 3)])
def test_each_grid_is_solved_once(argv, solves, monkeypatch, tmp_path):
    # every column reads the one record of its grid: no observable solves again
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_analytic(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ndpa"]:
        for name, value in list(vars(module).items()):
            if value is solve_analytic:
                monkeypatch.setattr(module, name, counted)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == solves


def test_main_builds_its_parser_once(monkeypatch, tmp_path):
    built = []

    def counted():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(ndpa.cli, "build_parser", counted)
    ndpa.cli._parser.cache_clear()  # as if main had never run in this process
    argv = ["prob", "--tmax", "1", "--steps", "3", "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 0
    assert main(argv) == 0
    assert len(built) == 1


def test_infinite_rho_serialized_as_inf(tmp_path):
    out = tmp_path / "rho.csv"
    params = params_for(1.5)
    scn = Scenario(params=params, initial=FockPair(2, 1), observable="rho",
                   grid=(0.0, 1.0, 2), output=str(out))
    run(scn)
    _, rows = read_csv(out)
    assert rows[0][1] == "inf"
    assert float(rows[0][1]) == math.inf


def test_sweep_k2(tmp_path):
    out = tmp_path / "sweep.csv"
    params = params_for(1.5)
    scn = Scenario(params=params, initial=FockPair(1, 1),
                   observable="probability", grid=(0.0, 2.0, 5),
                   output=str(out), outcome=(1, 1))
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


def test_unknown_figure_preset_is_named():
    with pytest.raises(ScenarioError, match="unknown figure preset 'fig0'"):
        run_figure("fig0")


@pytest.mark.parametrize("argv, code", [
    (["evolve", "--steps", "3"], 0),
    (["observable", "--name", "rho", "--initial", "coherent:1,1", "--steps", "3"], 1)])
def test_module_entry_point_exits_with_the_code_of_main(argv, code, monkeypatch, capsys):
    # python -m ndpa.cli, as the benchmark's cold run starts it; a fresh module, so
    # runpy does not warn that ndpa.cli is already imported
    monkeypatch.delitem(sys.modules, "ndpa.cli")
    monkeypatch.setattr(sys, "argv", ["ndpa"] + argv)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("ndpa.cli", run_name="__main__")
    assert exit_info.value.code == code
    out, err = capsys.readouterr()
    assert out.startswith("gt,re_a_plus") if code == 0 else err.startswith("error:")


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
    params = params_for(1.5)
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
     "theta must be finite, got nan"),
    (["evolve", "--omega", "1e300", "--steps", "3"], "omega = 1e+300, g = 1.0")])
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


def test_main_oracle_check_names_a_cutoff_too_small_for_its_coherent_start(capsys):
    # the coherent start (0.8, 0.5) leaves 5.3e-4 of its norm past cutoff 4
    assert main(["oracle-check", "--cutoff", "4", "--tmax", "0.1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --cutoff 4 is too small for the coherent start")
    assert "5.337e-04" in err and "starts[" not in err


_FLOAT_RANGE = ["--k2", "0", "--tmax", "800", "--steps", "3"]  # n0 past the float range at 400


@pytest.mark.parametrize("argv", [
    ["observable", "--name", name, *_FLOAT_RANGE, "--initial", spec]
    for name in ("correlation", "variance") for spec in ("fock:1,1", "coherent:1,1")] + [
    ["observable", "--name", "correlation", "--initial", "coherent:1e100,1e100"],
    ["sweep", "--name", "correlation", "--param", "k2", "--values", "0,0.5",
     "--initial", "coherent:1,1", "--tmax", "800", "--steps", "3"]])
def test_main_writes_no_nan_past_the_float_range(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0  # a RuntimeWarning is an error here
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    values = np.array(rows, dtype=float)
    assert len(rows) == (1001 if "1e100" in argv[-1] else 3) and not np.isnan(values).any()


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


_STARTS = ["fock:2,1", "coherent:0.8,0.5j", "poisson:0.85"]
# (sweep options, the options of one value's run); for k < 0, from_k2 of 0.25, 1 and 2.25
# with the sign of k gives omega 4, 3 and 2 exactly
_SWEEPS = {
    "k2": (["--param", "k2", "--values", "0.5,1,1.8"], lambda v: ["--k2", v]),
    "k2-negative-k": (["--param", "k2", "--values", "0.25,1,2.25", "--omega", "4.0"],
                      lambda v: ["--omega", repr(5.0 - 2.0 * math.sqrt(float(v)))]),
    "theta": (["--param", "theta", "--values", "0,0.4,2"], lambda v: ["--theta", v])}


@pytest.mark.parametrize("name, spec, swept", [
    *((name, spec, swept) for name in ("probability",) + ndpa.cli._OBSERVABLES
      for spec in _STARTS for swept in ("k2", "k2-negative-k")),
    *(("variance", spec, "theta") for spec in _STARTS)])
def test_each_swept_value_is_the_run_of_its_scenario(name, spec, swept, tmp_path, capsys):
    # every column of a sweep is run's column for that value's scenario, under a header
    # "k2=0.5" for one column and "eta k2=0.5", "yuen_bound k2=0.5", ... for several; a
    # start the observable refuses fails the sweep as it fails the run
    sweep_argv, value_argv = _SWEEPS[swept]
    param, values = sweep_argv[1], sweep_argv[3].split(",")
    verb = ["prob"] if name == "probability" else ["observable", "--name", name]
    common = ["--initial", spec, "--tmax", "2", "--steps", "5"]
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--name", name, *sweep_argv, *common, "--out", str(out)])
    err = capsys.readouterr().err
    want_header, want = ["gt"], []
    for i, value in enumerate(values):
        path = tmp_path / f"run{i}.csv"
        argv = verb + value_argv(value) + common + ["--out", str(path)]
        scenario = ndpa.cli._scenario_from_args(build_parser().parse_args(argv))
        assert main(argv) == code and capsys.readouterr().err == err
        if code:
            assert err.startswith("error:") and not out.exists()
            return
        if param == "k2":  # run's params are the swept value's, the sign of k kept
            sign = -1 if "--omega" in sweep_argv else 1
            assert scenario.params == params_for(float(value), sign=sign)
        labels, rows = read_csv(path)
        columns = list(np.array(rows, dtype=float).T)
        want += columns if i == 0 else columns[1:]
        want_header += ([f"{param}={float(value)}"] if len(labels) == 2 else
                        [f"{label} {param}={float(value)}" for label in labels[1:]])
    header, rows = read_csv(out)
    got = list(np.array(rows, dtype=float).T)
    assert header == want_header and len(got) == len(want)
    for label, column, value in zip(header, got, want):
        assert np.array_equal(column, value, equal_nan=True), label


def test_sweep_keeps_the_sign_of_k(tmp_path):
    # --omega 4.0 sets k = -0.5: the swept k2 = 0.25 is that scenario, not k = +0.5's
    common = ["--initial", "coherent:0.8,0.5j", "--omega", "4.0"]
    sweep_out, prob_out = tmp_path / "sweep.csv", tmp_path / "prob.csv"
    assert main(["sweep", "--param", "k2", "--values", "0.25", *common,
                 "--out", str(sweep_out)]) == 0
    assert main(["prob", *common, "--out", str(prob_out)]) == 0
    (header, rows), (_, want) = read_csv(sweep_out), read_csv(prob_out)
    assert header == ["gt", "k2=0.25"] and rows == want
    assert rows[100] == ["1.0", "0.21166881635392595"]


@pytest.mark.parametrize("name", ["probability", "mandel_q"])
def test_main_sweep_theta_needs_variance(name, tmp_path, capsys):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--name", name, "--param", "theta", "--values", "0,1",
                 "--initial", "fock:1,1", "--tmax", "1", "--steps", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(name) in err
    assert not out.exists()
