"""Command-line scenario runner emitting plot-ready CSV.

Verbs: evolve, prob, observable, figure <name>, sweep, oracle-check.  evolve, prob,
observable and sweep build one ``Scenario`` from their options and write its
``_columns``, a sweep those of that scenario at each value.  Every output table uses the
dimensionless time ``gt`` as its first column, and infinities as ``inf``: past the float
range f is +-inf, var_x inf and F finite, as ``ndpa.observables`` states.  Each table is
evaluated column by column over its whole time grid from one ``AnalyticSolution``:
every column, figure columns included, reads that one record and solves nothing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .amplitudes import (CoherentPair, FockOutcome, FockPair, PureAModeState,
                         amode_prob, coherent_mean_numbers, coherent_revival_prob,
                         fock11_prob, fock_amplitude, vacuum_prob)
from .model import HarmonicPump, ModelParams
from .observables import (cross_correlation_coherent, cross_correlation_fock,
                          mandel_q_coherent, mandel_q_fock, mean_photon_fock,
                          quadrature_variance, snr_eta_coherent, snr_rho_fock,
                          squeezing_kernel)
from .oracle import (_TAIL_LIMIT, OracleConfig, TruncationError, coherent_state, edge_mass,
                     evolve_starts, fock_state, oracle_probability)
from .weinorman import solve_analytic


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
    theta: float = 0.0
    outcome: tuple[int, int] = (0, 0)

    def __post_init__(self):
        t0, t1, steps = self.grid
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ScenarioError(f"grid bounds must be finite, got {t0!r}, {t1!r}")
        if steps < 2:
            raise ScenarioError("grid needs at least 2 steps")
        if not t1 > t0:
            raise ScenarioError("grid end must exceed grid start")
        if not math.isfinite(self.theta):
            raise ScenarioError(f"theta must be finite, got {self.theta!r}")

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


def _probability(scn: Scenario, s):
    state = scn.initial
    if isinstance(state, CoherentPair):
        return ["p_return"], [coherent_revival_prob(s, state)[0]]
    m, n = scn.outcome
    outcome = FockOutcome(m, n)
    column = (np.abs(fock_amplitude(s, state, outcome)) ** 2
              if isinstance(state, FockPair) else amode_prob(s, state, outcome))
    return [f"p_{m}{n}"], [column]


_OBSERVABLES = ("correlation", "eta", "mandel_q", "mean", "rho", "variance")


def _columns(scn: Scenario, s):
    """(labels, value columns) of the scenario over its whole time grid, read off the
    record s that ``solve_analytic`` returns for its params and grid."""
    name, state = scn.observable, scn.initial
    if name == "coefficients":  # the evolve table; reads no initial state
        return (["re_a_plus", "im_a_plus", "re_a_minus", "im_a_minus",
                 "re_a_zero", "im_a_zero", "x", "y", "n0"],
                [s.a_plus.real, s.a_plus.imag, s.a_minus.real, s.a_minus.imag,
                 s.a_zero.real, s.a_zero.imag, s.x, s.y, s.n0])
    if name == "probability":
        return _probability(scn, s)
    if name == "variance":
        return ["var_x"], [quadrature_variance(squeezing_kernel(s, scn.theta), state)]
    if name == "rho":
        if not isinstance(state, FockPair):
            raise ScenarioError("rho is defined for Fock initial states")
        return ["rho"], [snr_rho_fock(s, state)]
    if name == "eta":
        if not isinstance(state, CoherentPair):
            raise ScenarioError("eta is defined for coherent initial states")
        report = snr_eta_coherent(s, state)
        return ["eta", "yuen_bound"], [report.eta, report.yuen_bound]
    if name not in _OBSERVABLES:
        raise ScenarioError(f"unknown observable {name!r}")
    fock = isinstance(state, FockPair)
    if not (fock or isinstance(state, CoherentPair)):
        raise ScenarioError(f"{name} needs a Fock or coherent initial state, "
                            f"not {type(state).__name__}")
    if name == "mean":
        return ["mean_a", "mean_b"], list(mean_photon_fock(s, state) if fock
                                          else coherent_mean_numbers(s, s, state))
    if name == "mandel_q":
        return ["mandel_q"], [mandel_q_fock(s, state) if fock else mandel_q_coherent(s, state)]
    return ["f", "F"], list(cross_correlation_fock(s, state) if fock
                            else cross_correlation_coherent(s, state))


def run(scenario: Scenario):
    """Evaluate the scenario on its grid; returns (header, rows) and writes CSV."""
    labels, columns = _columns(scenario, solve_analytic(scenario.params, scenario.times()))
    return _write(scenario.output, ["gt"] + labels,
                  [scenario.params.g * scenario.times()] + columns)


def sweep(scenario: Scenario, parameter: str, values):
    """``run``'s columns of each value's scenario, headed ``k2=0.5`` or ``eta k2=0.5``, ...: theta
    set by ``replace``, k2 by ``ModelParams.from_k2`` with the sign of the scenario's k."""
    base = scenario.params
    if parameter not in ("k2", "theta"):
        raise ScenarioError(f"unknown sweep parameter {parameter!r}")
    if parameter == "theta" and scenario.observable != "variance":
        raise ScenarioError(f"theta does not enter {scenario.observable!r}; "
                            "only variance depends on it")
    solve = functools.cache(lambda params: solve_analytic(params, scenario.times()))
    header, columns = ["gt"], [base.g * scenario.times()]
    for value in values:
        if parameter == "theta":
            sub = replace(scenario, theta=float(value))
        else:
            sub = replace(scenario, params=ModelParams.from_k2(
                float(value), g=base.g, omega_a=base.omega_a, omega_b=base.omega_b,
                sign=-1 if base.k < 0 else 1))
        labels, sub_columns = _columns(sub, solve(sub.params))
        header += [f"{label} {parameter}={value}" if len(labels) > 1
                   else f"{parameter}={value}" for label in labels]
        columns += sub_columns
    return _write(scenario.output, header, columns)


# -- figure presets ----------------------------------------------------------
#
# A preset is a time grid (g = 1, so t = gt) and its columns.  A column is
# (label, k^2, function of the AnalyticSolution at that k^2 on the grid).


def _fock11(k2, tmax):
    return np.linspace(0.0, tmax, 1201), [
        ("p_11", k2, lambda sol: fock11_prob(sol, 1)),
        ("p_33", k2, lambda sol: fock11_prob(sol, 3))]


def _t_sq(sol, theta):
    return squeezing_kernel(sol, theta).t_sq


def _squeezing(k2, tmax):
    return np.linspace(0.0, tmax, 1501), [
        ("dx_0", k2, lambda sol: np.sqrt(_t_sq(sol, 0.0))),
        ("dx_90", k2, lambda sol: np.sqrt(_t_sq(sol, math.pi / 2.0))),
        ("product", k2, lambda sol: np.sqrt(_t_sq(sol, 0.0) * _t_sq(sol, math.pi / 2.0)))]


def _p12(sol):
    return amode_prob(sol, PureAModeState.poisson(0.85), FockOutcome(1, 2))


def _big_f(r, s):
    return lambda sol: cross_correlation_fock(sol, FockPair(r, s))[1]


def _rho(r, s):
    return lambda sol: snr_rho_fock(sol, FockPair(r, s))


def _eta(key):
    return lambda sol: getattr(snr_eta_coherent(sol, CoherentPair(0.0, 3.0)), key)


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
         lambda sol: coherent_revival_prob(sol, CoherentPair(1.0, 1.0))[0]),
        ("p_return_k2_pi", math.pi,
         lambda sol: coherent_revival_prob(sol, CoherentPair(5.0, 5.0))[0])]),
    "fig6": (np.linspace(0.01, 10.0, 1000), [
        ("q_10", 1.5, lambda sol: mandel_q_fock(sol, FockPair(1, 0))),
        ("q_01", 1.5, lambda sol: mandel_q_fock(sol, FockPair(0, 1))),
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
    grids = {k2: solve_analytic(ModelParams.from_k2(k2, g=1.0, omega_a=3.0, omega_b=2.0), times)
             for k2 in {k2 for _, k2, _ in columns}}
    return _write(output, ["gt"] + [label for label, _, _ in columns],
                  [times] + [fn(grids[k2]) for _, k2, fn in columns])


# -- oracle cross-check ------------------------------------------------------


def oracle_check(params: ModelParams, t: float, cutoff: int):
    """Compare closed-form probabilities against the truncated propagator.

    Returns a list of (label, closed_form, oracle, |difference|) and the
    largest ``edge_mass`` of the three evolved states.
    """
    pump = HarmonicPump.from_params(params)
    cfg = OracleConfig(cutoff=cutoff)  # exact propagation: cfg.tol does not enter
    pair = CoherentPair(0.8, 0.5)
    start = coherent_state(cutoff, pair.alpha, pair.beta)
    if start.norm_deficit > _TAIL_LIMIT:  # the one start that a cutoff cfg accepts can truncate
        raise TruncationError(f"--cutoff {cutoff} is too small for the coherent start {pair}: "
                              f"norm deficit {start.norm_deficit:.3e} > {_TAIL_LIMIT:.0e}")
    vacuum, fock11, coherent = evolve_starts(
        pump, params, [fock_state(cutoff, 0, 0), fock_state(cutoff, 1, 1), start], t, cfg)
    s = solve_analytic(params, t)  # after evolve_starts has checked t
    results = [(f"vacuum p_{n}{n}", vacuum_prob(s, n),
                oracle_probability(vacuum, n, n)) for n in (0, 1, 3)]
    results += [(f"fock(1,1) p_{n}{n}", fock11_prob(s, n),
                 oracle_probability(fock11, n, n)) for n in (1, 2)]
    results.append(("coherent p_return",
                    coherent_revival_prob(s, pair)[0],
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call rather than at import."""
    return build_parser()


def _scenario_from_args(args) -> Scenario:
    evolve = args.verb == "evolve"  # its coefficients table reads no state; prob has no --name
    return Scenario(params=_default_params(args),
                    initial=None if evolve else _parse_state(args),
                    observable="coefficients" if evolve else getattr(args, "name", "probability"),
                    grid=(0.0, args.tmax, args.steps),
                    output=args.out,
                    theta=getattr(args, "theta", 0.0),
                    outcome=(getattr(args, "m", 0), getattr(args, "n", 0)))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.verb == "figure":
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
            sweep(_scenario_from_args(args), args.param, [float(v) for v in args.values.split(",")])
        else:
            run(_scenario_from_args(args))
    except Exception as exc:  # argparse handles its own errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
