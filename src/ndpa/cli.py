"""Command-line scenario runner emitting plot-ready CSV.

Verbs: evolve, prob, observable, figure <name>, sweep, oracle-check.
Every output table uses the dimensionless time ``gt`` as its first column;
infinities are written as the literal token ``inf`` so the files round-trip
through standard plotting tools.  Each table is evaluated column by column
over its whole time grid from one set of grid coefficients.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .amplitudes import (CoherentPair, FockOutcome, FockPair, PureAModeState,
                         amode_prob, coherent_revival_prob, fock11_prob,
                         fock_amplitude, vacuum_prob)
from .model import HarmonicPump, ModelParams
from .moments import second_moments
from .observables import (cross_correlation_fock, cross_correlation_general,
                          mandel_q_coherent, mandel_q_fock, mean_photon_fock,
                          quadrature_variance, snr_eta_coherent, snr_rho_fock,
                          squeezing_kernel)
from .oracle import (OracleConfig, coherent_state, edge_mass,
                     evolve_truncated, fock_state, oracle_probability)
from .weinorman import derived_scalars, solve_analytic


class ScenarioError(ValueError):
    """Invalid scenario definition (bad grid, selector/state mismatch, ...)."""


@dataclass(frozen=True)
class Scenario:
    """A runnable time-grid scenario.

    ``initial`` is a tagged state: FockPair, CoherentPair or PureAModeState,
    or None for the ``coefficients`` table of the evolve verb.
    ``observable`` selects what is evaluated at each grid time and must be
    compatible with the state type.
    """

    params: ModelParams
    initial: object
    observable: str
    grid: tuple[float, float, int]
    output: str | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        t0, t1, steps = self.grid
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ScenarioError(f"grid bounds must be finite, got {t0!r}, {t1!r}")
        if steps < 2:
            raise ScenarioError("grid needs at least 2 steps")
        if not t1 > t0:
            raise ScenarioError("grid end must exceed grid start")
        if not math.isfinite(self.options.get("theta", 0.0)):
            raise ScenarioError(f"theta must be finite, got {self.options['theta']!r}")

    def times(self) -> np.ndarray:
        t0, t1, steps = self.grid
        return np.linspace(t0, t1, steps)


def write_csv(path, header, rows):
    def emit(fh):  # rows hold numbers, which csv.writer writes as their repr
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)

    if path is None or path == "-":
        emit(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            emit(fh)


def _write(path, header, columns):
    """Write equal-length value columns as CSV rows; returns (header, rows)."""
    rows = np.column_stack(columns).tolist()
    write_csv(path, header, rows)
    return header, rows


def _grid(params: ModelParams, times):
    """Coefficients and derived scalars over a whole time grid."""
    return solve_analytic(params, times), derived_scalars(params, times)


def _default_params(args) -> ModelParams:
    if args.omega is not None:
        return ModelParams(omega_a=args.omega_a, omega_b=args.omega_b,
                           g=args.g, omega=args.omega)
    return ModelParams.from_k2(args.k2, g=args.g, omega_a=args.omega_a,
                               omega_b=args.omega_b)


def _parse_state(args):
    spec = args.initial
    kind, _, rest = spec.partition(":")
    try:
        if kind == "fock":
            r, s = (int(v) for v in rest.split(","))
            return FockPair(r, s)
        if kind == "coherent":
            alpha, beta = (complex(v) for v in rest.split(","))
            return CoherentPair(alpha, beta)
        if kind == "poisson":
            return PureAModeState.poisson(float(rest))
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"bad state spec {spec!r}: {exc}") from exc
    raise ScenarioError(f"unknown state kind {kind!r} "
                        "(expected fock:r,s | coherent:a,b | poisson:alpha)")


# -- scenario columns --------------------------------------------------------


def _probability(scn: Scenario, c, d):
    state = scn.initial
    if isinstance(state, CoherentPair):
        return ["p_return"], [coherent_revival_prob(c, state)[0]]
    m, n = scn.options.get("outcome", (0, 0))
    outcome = FockOutcome(m, n)
    column = (np.abs(fock_amplitude(c, state, outcome)) ** 2
              if isinstance(state, FockPair) else amode_prob(d, state, outcome))
    return [f"p_{m}{n}"], [column]


_OBSERVABLES = ("correlation", "eta", "mandel_q", "mean", "rho", "variance")


def _columns(scn: Scenario):
    """(labels, value columns) of the scenario over its whole time grid."""
    name, state = scn.observable, scn.initial
    c, d = _grid(scn.params, scn.times())
    if name == "coefficients":  # the evolve table; reads no initial state
        return (["re_a_plus", "im_a_plus", "re_a_minus", "im_a_minus",
                 "re_a_zero", "im_a_zero", "x", "y", "n0"],
                [c.a_plus.real, c.a_plus.imag, c.a_minus.real, c.a_minus.imag,
                 c.a_zero.real, c.a_zero.imag, d.x, d.y, d.n0])
    if name == "probability":
        return _probability(scn, c, d)
    if name == "variance":
        kernel = squeezing_kernel(scn.params, scn.options.get("theta", 0.0), c.t)
        return ["var_x"], [quadrature_variance(kernel, state)]
    if name == "rho":
        if not isinstance(state, FockPair):
            raise ScenarioError("rho is defined for Fock initial states")
        return ["rho"], [snr_rho_fock(d, state)]
    if name == "eta":
        if not isinstance(state, CoherentPair):
            raise ScenarioError("eta is defined for coherent initial states")
        report = snr_eta_coherent(c, d, state)
        return ["eta", "yuen_bound"], [report.eta, report.yuen_bound]
    if name not in _OBSERVABLES:
        raise ScenarioError(f"unknown observable {name!r}")
    fock = isinstance(state, FockPair)
    if not (fock or isinstance(state, CoherentPair)):
        raise ScenarioError(f"{name} needs a Fock or coherent initial state, "
                            f"not {type(state).__name__}")
    tab = None if fock else second_moments(state, c)
    if name == "mean":
        means = mean_photon_fock(d, state) if fock else (tab.mean_a, tab.mean_b)
        return ["mean_a", "mean_b"], list(means)
    if name == "mandel_q":
        return ["mandel_q"], [mandel_q_fock(d, state) if fock
                              else mandel_q_coherent(tab)]
    return ["f", "F"], list(cross_correlation_fock(d, state) if fock
                            else cross_correlation_general(tab))


def run(scenario: Scenario):
    """Evaluate the scenario on its grid; returns (header, rows) and writes CSV."""
    labels, columns = _columns(scenario)
    return _write(scenario.output, ["gt"] + labels,
                  [scenario.params.g * scenario.times()] + columns)


def sweep(scenario: Scenario, parameter: str, values):
    """One output column per parameter value, sharing the time grid."""
    base = scenario.params
    if parameter == "theta" and scenario.observable != "variance":
        raise ScenarioError(f"theta does not enter {scenario.observable!r}; "
                            "only variance depends on it")
    subs = []
    for value in values:
        if parameter == "k2":
            params = ModelParams.from_k2(float(value), g=base.g,
                                         omega_a=base.omega_a,
                                         omega_b=base.omega_b)
            subs.append((f"k2={value}", replace(scenario, params=params)))
        elif parameter == "theta":
            options = dict(scenario.options, theta=float(value))
            subs.append((f"theta={value}", replace(scenario, options=options)))
        else:
            raise ScenarioError(f"unknown sweep parameter {parameter!r}")
    header = ["gt"] + [label for label, _ in subs]
    return _write(scenario.output, header, [base.g * scenario.times()]
                  + [_columns(sub)[1][0] for _, sub in subs])


# -- figure presets ----------------------------------------------------------
#
# A preset is a time grid (g = 1, so t = gt) and its columns.  A column is
# (label, k^2, function of the params, grid coefficients and derived scalars).


def _par(k2):
    return ModelParams.from_k2(k2, g=1.0, omega_a=3.0, omega_b=2.0)


def _fock11(k2, tmax):
    return np.linspace(0.0, tmax, 1201), [
        ("p_11", k2, lambda p, c, d: fock11_prob(d, 1)),
        ("p_33", k2, lambda p, c, d: fock11_prob(d, 3))]


def _t_sq(p, c, theta):
    return squeezing_kernel(p, theta, c.t).t_sq


def _squeezing(k2, tmax):
    return np.linspace(0.0, tmax, 1501), [
        ("dx_0", k2, lambda p, c, d: np.sqrt(_t_sq(p, c, 0.0))),
        ("dx_90", k2, lambda p, c, d: np.sqrt(_t_sq(p, c, math.pi / 2.0))),
        ("product", k2, lambda p, c, d: np.sqrt(_t_sq(p, c, 0.0)
                                                * _t_sq(p, c, math.pi / 2.0)))]


def _p12(p, c, d):
    return amode_prob(d, PureAModeState.poisson(0.85), FockOutcome(1, 2))


def _big_f(r, s):
    return lambda p, c, d: cross_correlation_fock(d, FockPair(r, s))[1]


def _rho(r, s):
    return lambda p, c, d: snr_rho_fock(d, FockPair(r, s))


def _eta(key):
    return lambda p, c, d: getattr(snr_eta_coherent(c, d, CoherentPair(0.0, 3.0)), key)


_FIGURES = {
    "fig1": _fock11(1.5, 12.0),
    "fig2": _fock11(0.5, 8.0),
    "fig3": (np.linspace(0.0, 20.0, 2001),
             [("p_12_k2_1.5", 1.5, _p12), ("p_12_k2_0.5", 0.5, _p12)]),
    "fig4": (np.linspace(0.01, 10.0, 1000), [
        ("F_50_10", 1.5, _big_f(50, 10)),
        ("F_50_0", 1.5, _big_f(50, 0)),
        ("F_1_1", 1.5, _big_f(1, 1))]),
    "fig5": (np.linspace(0.01, 50.0, 5000), [
        ("p_return_k2_1.8", 9.0 / 5.0,
         lambda p, c, d: coherent_revival_prob(c, CoherentPair(1.0, 1.0))[0]),
        ("p_return_k2_pi", math.pi,
         lambda p, c, d: coherent_revival_prob(c, CoherentPair(5.0, 5.0))[0])]),
    "fig6": (np.linspace(0.01, 10.0, 1000), [
        ("q_10", 1.5, lambda p, c, d: mandel_q_fock(d, FockPair(1, 0))),
        ("q_01", 1.5, lambda p, c, d: mandel_q_fock(d, FockPair(0, 1))),
        ("F_10", 1.5, _big_f(1, 0)),
        ("F_01", 1.5, _big_f(0, 1))]),
    "fig7": _squeezing(9.0 / 5.0, 15.0),
    "fig7log": _squeezing(0.5, 14.0),
    "fig8": (np.linspace(0.01, 14.0, 1400),
             [("eta", 10.0, _eta("eta")),
              ("yuen_bound", 10.0, _eta("yuen_bound"))]),
    "fig9": (np.linspace(0.01, 10.0, 1000), [
        ("rho_100_1_k2_1.5", 1.5, _rho(100, 1)),
        ("rho_1_100_k2_1.5", 1.5, _rho(1, 100)),
        ("rho_100_1_k2_0.5", 0.5, _rho(100, 1)),
        ("rho_1_100_k2_0.5", 0.5, _rho(1, 100))]),
}
FIGURE_NAMES = tuple(_FIGURES)


def run_figure(name: str, output=None):
    if name not in _FIGURES:
        raise ScenarioError(f"unknown figure preset {name!r}")
    times, columns = _FIGURES[name]
    grids = {k2: _grid(_par(k2), times) for k2 in {k2 for _, k2, _ in columns}}
    return _write(output, ["gt"] + [label for label, _, _ in columns],
                  [times] + [fn(_par(k2), *grids[k2]) for _, k2, fn in columns])


# -- oracle cross-check ------------------------------------------------------


def oracle_check(params: ModelParams, t: float, cutoff: int):
    """Compare closed-form probabilities against the truncated propagator.

    Returns a list of (label, closed_form, oracle, |difference|) and the
    largest ``edge_mass`` of the three evolved states.
    """
    pump = HarmonicPump.from_params(params)
    cfg = OracleConfig(cutoff=cutoff)  # exact propagation: cfg.tol does not enter
    pair = CoherentPair(0.8, 0.5)

    vacuum = evolve_truncated(pump, params, fock_state(cutoff, 0, 0), t, cfg)
    d = derived_scalars(params, t)  # after evolve_truncated has checked t
    results = [(f"vacuum p_{n}{n}", vacuum_prob(d, n),
                oracle_probability(vacuum, n, n)) for n in (0, 1, 3)]
    fock11 = evolve_truncated(pump, params, fock_state(cutoff, 1, 1), t, cfg)
    results += [(f"fock(1,1) p_{n}{n}", fock11_prob(d, n),
                 oracle_probability(fock11, n, n)) for n in (1, 2)]
    start = coherent_state(cutoff, pair.alpha, pair.beta)
    coherent = evolve_truncated(pump, params, start, t, cfg)
    results.append(("coherent p_return",
                    coherent_revival_prob(solve_analytic(params, t), pair)[0],
                    abs(start.overlap(coherent)) ** 2))
    return ([(label, a, b, abs(a - b)) for label, a, b in results],
            max(edge_mass(state) for state in (vacuum, fock11, coherent)))


# -- argument parsing --------------------------------------------------------

_MODEL = ("evolve", "prob", "observable", "sweep", "oracle-check")
_GRID = ("evolve", "prob", "observable", "sweep")

# (flag, verbs that read it, add_argument keywords); each verb takes only these
_OPTIONS = [
    ("--k2", _MODEL, dict(type=float, default=1.5,
                          help="squared detuning parameter (default 1.5)")),
    ("--g", _MODEL, dict(type=float, default=1.0, help="pump strength")),
    ("--omega-a", _MODEL, dict(type=float, default=3.0, dest="omega_a")),
    ("--omega-b", _MODEL, dict(type=float, default=2.0, dest="omega_b")),
    ("--omega", _MODEL, dict(type=float, default=None,
                             help="pump frequency (overrides --k2)")),
    ("--tmax", _MODEL, dict(type=float, default=10.0)),
    ("--steps", _GRID, dict(type=int, default=1001)),
    ("--out", _GRID + ("figure",), dict(default=None,
                                        help="output CSV path (default stdout)")),
    ("--initial", ("prob", "observable", "sweep"),
     dict(default="fock:1,1", help="fock:r,s | coherent:a,b | poisson:alpha")),
    ("--m", ("prob", "sweep"),
     dict(type=int, default=1, help="b-mode outcome occupation")),
    ("--n", ("prob", "sweep"),
     dict(type=int, default=1, help="a-mode outcome occupation")),
    ("--theta", ("observable", "sweep"), dict(type=float, default=0.0)),
    ("--cutoff", ("oracle-check",), dict(type=int, default=80)),
    ("--tol", ("oracle-check",), dict(type=float, default=1e-8)),
    ("--param", ("sweep",), dict(required=True, choices=("k2", "theta"))),
    ("--values", ("sweep",),
     dict(required=True, help="comma-separated parameter values")),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndpa",
        description="Two-mode parametric amplifier scenario runner (CSV output).")
    subs = parser.add_subparsers(dest="verb", required=True)
    verbs = {
        "evolve": subs.add_parser("evolve", help="tabulate the evolution coefficients"),
        "prob": subs.add_parser("prob", help="transition probability on a time grid"),
        "observable": subs.add_parser("observable", help="observable on a time grid"),
        "figure": subs.add_parser("figure", help="run a built-in figure preset"),
        "sweep": subs.add_parser("sweep", help="sweep one parameter of a scenario"),
        "oracle-check": subs.add_parser(
            "oracle-check", help="closed forms vs the truncated propagator"),
    }
    verbs["figure"].add_argument("name", choices=FIGURE_NAMES)
    verbs["observable"].add_argument("--name", default="mean", choices=_OBSERVABLES)
    verbs["sweep"].add_argument("--name", default="probability",
                                choices=("probability",) + _OBSERVABLES)
    for flag, readers, keywords in _OPTIONS:
        for verb in readers:
            verbs[verb].add_argument(flag, **keywords)
    return parser


def _scenario_from_args(args) -> Scenario:
    options = {}
    if hasattr(args, "m"):
        options["outcome"] = (args.m, args.n)
    if hasattr(args, "theta"):
        options["theta"] = args.theta
    return Scenario(params=_default_params(args),
                    initial=_parse_state(args),
                    observable="probability" if args.verb == "prob" else args.name,
                    grid=(0.0, args.tmax, args.steps),
                    output=args.out,
                    options=options)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "evolve":
            run(Scenario(params=_default_params(args), initial=None,
                         observable="coefficients",
                         grid=(0.0, args.tmax, args.steps), output=args.out))
        elif args.verb == "figure":
            run_figure(args.name, args.out)
        elif args.verb == "oracle-check":
            results, edge = oracle_check(_default_params(args), args.tmax, args.cutoff)
            worst = max(diff for _, _, _, diff in results)
            for label, a, b, diff in results:
                print(f"{label}: closed={a:.12g} oracle={b:.12g} diff={diff:.3e}")
            if not worst <= args.tol:  # a NaN deviation fails too
                print(f"worst deviation {worst:.3e} exceeds tolerance "
                      f"{args.tol:.3e} at cutoff {args.cutoff} (largest edge "
                      f"mass {edge:.3e})", file=sys.stderr)
                return 1
            print(f"worst deviation {worst:.3e} within tolerance")
        elif args.verb == "sweep":
            values = [float(v) for v in args.values.split(",")]
            sweep(_scenario_from_args(args), args.param, values)
        else:
            run(_scenario_from_args(args))
    except Exception as exc:  # argparse handles its own errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
