"""The workloads: their operations, generated inputs and output checks.

``closed_forms`` runs three parts (figures, coherent moments, general
Fock amplitudes) in one pass; ``oracle`` runs the truncated-Fock oracle.
Each builder takes a seeded ``numpy`` generator and an output directory
and returns the operations of one pass.  The two workload builders, and
``figures`` whose command ``closed_forms`` uses, also return the
arguments of the one CLI command that ``cold_run_s`` times in a fresh
interpreter.  The seed moves input values inside fixed bands and picks
the rows checked against references.  It never sets a time, a cutoff or
an occupation, which fix how much work an operation does, and it moves
the step count of the oracle's adaptive ODE by a few percent at most
(see ``oracle``), so that run time hardly depends on it.

Every call into the package goes through the ``ndpa`` namespace at call
time, so that a traced pass sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ndpa
import ndpa.cli
import references as ref

EPS = np.finfo(float).eps
OMEGAS = dict(g=1.0, omega_a=3.0, omega_b=2.0)  # the CLI's default modes


@dataclass
class Op:
    """One timed operation; ``check`` returns None or what is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    rows: int
    known_fault: bool = False


def params_for(k2: float):
    return ndpa.ModelParams.from_k2(k2, **OMEGAS)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * abs(b) + abs_


def cli_op(name: str, argv: list[str], path: str, header: list[str], rows: int,
           check: Callable[[np.ndarray], str | None]) -> Op:
    """A CLI invocation writing ``path``; the CSV is read back and checked."""
    def run():
        return ndpa.cli.main(argv)

    def verify(rc):
        if rc != 0:
            return f"exit code {rc}"
        got_header, data = read_csv(path)
        if got_header != header:
            return f"header {got_header} != {header}"
        if data.shape[0] != rows:
            return f"{data.shape[0]} rows, expected {rows}"
        return check(data)

    return Op(name, run, verify, rows)


def first_failure(*results):
    return next((r for r in results if r), None)


def in_unit_interval(data, cols) -> str | None:
    vals = data[:, cols]
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        return "probability outside [0, 1]"
    return None


def all_finite(data) -> str | None:
    return None if np.all(np.isfinite(data)) else "non-finite value"


def matches(label: str, got: float, want: float, rel: float, abs_: float) -> str | None:
    return None if close(got, want, rel, abs_) else f"{label}: {got!r} vs reference {want!r}"


def sample_rows(rng, gts, lo: float, hi: float, count: int) -> list[int]:
    eligible = np.flatnonzero((gts >= lo) & (gts <= hi))
    return sorted(int(i) for i in rng.choice(eligible, size=count, replace=False))


# -- figures ------------------------------------------------------------------

FIGURES = {
    "fig1": (["gt", "p_11", "p_33"], np.linspace(0.0, 12.0, 1201)),
    "fig2": (["gt", "p_11", "p_33"], np.linspace(0.0, 8.0, 1201)),
    "fig3": (["gt", "p_12_k2_1.5", "p_12_k2_0.5"], np.linspace(0.0, 20.0, 2001)),
    "fig4": (["gt", "F_50_10", "F_50_0", "F_1_1"], np.linspace(0.01, 10.0, 1000)),
    "fig5": (["gt", "p_return_k2_1.8", "p_return_k2_pi"], np.linspace(0.01, 50.0, 5000)),
    "fig6": (["gt", "q_10", "q_01", "F_10", "F_01"], np.linspace(0.01, 10.0, 1000)),
    "fig7": (["gt", "dx_0", "dx_90", "product"], np.linspace(0.0, 15.0, 1501)),
    "fig7log": (["gt", "dx_0", "dx_90", "product"], np.linspace(0.0, 14.0, 1501)),
    "fig8": (["gt", "eta", "yuen_bound"], np.linspace(0.01, 14.0, 1400)),
    "fig9": (["gt", "rho_100_1_k2_1.5", "rho_1_100_k2_1.5", "rho_100_1_k2_0.5",
              "rho_1_100_k2_0.5"], np.linspace(0.01, 10.0, 1000)),
}
PROBABILITY_FIGURES = ("fig1", "fig2", "fig3", "fig5")
GRID_SIDE = 1000


def figures(rng, outdir):
    # oracle references for sampled rows of fig1 (|1,1> at k^2 = 1.5) and
    # fig6 (|1,0> and |0,1> at k^2 = 1.5), where n0 <= 2
    p15 = params_for(1.5)
    gts1 = FIGURES["fig1"][1]
    fig1_refs = {}
    for i in sample_rows(rng, gts1, 0.5, 2.0, 2):
        st = ref.oracle_fock(p15, 1, 1, gts1[i])
        fig1_refs[i] = (ndpa.oracle_probability(st, 1, 1), ndpa.oracle_probability(st, 3, 3))
    gts6 = FIGURES["fig6"][1]
    fig6_refs = {}
    for i in sample_rows(rng, gts6, 0.5, 2.0, 1):
        m10 = ref.fock_moments(ref.oracle_fock(p15, 1, 0, gts6[i]))
        m01 = ref.fock_moments(ref.oracle_fock(p15, 0, 1, gts6[i]))
        fig6_refs[i] = (m10["mandel_q"], m01["mandel_q"], m10["F"], m01["F"])

    def check_figure(name, data):
        header, gts = FIGURES[name]
        result = first_failure(
            None if np.allclose(data[:, 0], gts, rtol=1e-15, atol=0) else "gt column",
            all_finite(data))
        if result:
            return result
        if name in PROBABILITY_FIGURES:
            result = in_unit_interval(data, slice(1, None))
        elif name in ("fig7", "fig7log"):
            if not np.all(data[:, 3] >= 1.0 - 1e-9):
                result = f"Heisenberg product below 1: {data[:, 3].min()!r}"
        elif name == "fig8":
            if not np.all(data[:, 1] <= data[:, 2] * (1.0 + 1e-12) + 1e-12):
                result = "eta exceeds the Yuen bound"
        if result:
            return result
        refs = fig1_refs if name == "fig1" else fig6_refs if name == "fig6" else {}
        for i, want in refs.items():
            for col, value in enumerate(want, start=1):
                result = result or matches(f"{name} row {i} {header[col]}",
                                           data[i, col], value, 1e-7, 1e-9)
        return result

    ops = []
    for name, (header, gts) in FIGURES.items():
        path = os.path.join(outdir, f"{name}.csv")
        ops.append(cli_op(f"figure {name}", ["figure", name, "--out", path], path,
                          header, gts.size, lambda data, name=name: check_figure(name, data)))

    # a (k, gt) grid over all three regimes: stratified k with the critical
    # points k = +-1 included exactly, gt on [0, 10]
    base = np.linspace(-1.8, 1.8, GRID_SIDE - 2)
    k = np.sort(np.concatenate([
        base + rng.uniform(-0.4, 0.4, base.size) * (base[1] - base[0]), [-1.0, 1.0]]))
    gt = np.linspace(0.0, 10.0, GRID_SIDE)
    gt[1:-1] += rng.uniform(-0.4, 0.4, GRID_SIDE - 2) * (gt[1] - gt[0])
    k, gt = k[:, None], gt[None, :]

    def grid():
        ap, am, a0 = ndpa.coefficients(k, gt)
        x, y, n0, _, _, _ = ndpa.scalars(k, gt)
        res = ndpa.unitarity_residuals(ndpa.WeiNormanCoefficients(
            t=gt, a_plus=ap, a_minus=am, a_zero=a0))
        return am, a0, x, y, n0, res

    def check_grid(out):
        am, a0, x, y, n0, (r1, r2, r3) = out
        if max(r1.max(), r2.max()) > 1e-12:
            return f"unitarity residual r1/r2 {max(r1.max(), r2.max()):.3e}"
        if not np.all(r3 <= 64 * EPS * x):
            return f"unitarity residual r3 exceeds 64 eps x: {np.max(r3 / x):.3e} x"
        if not np.all(np.abs(x - 1.0 - n0) <= 64 * EPS * x):
            return "x != 1 + n0"
        if not np.allclose(x, np.exp(-2.0 * a0.real), rtol=1e-12, atol=0):
            return "x != exp(-2 Re A0)"
        if not np.allclose(y, np.abs(am) ** 2, rtol=0, atol=1e-12):
            return "y != |A-|^2"
        return None

    ops.append(Op("grid coefficients+scalars+residuals", grid, check_grid, k.size * gt.size))
    return ops, ["figure", "fig6", "--out", os.path.join(outdir, "cold.csv")]


# -- coherent moments -----------------------------------------------------------

MOMENT_STEPS = 41
MOMENT_TMAX = 2.0


def _regime_k2(rng):
    """One k^2 below, at and above threshold."""
    return (("sub", float(rng.uniform(0.4, 0.6))), ("critical", 1.0),
            ("super", float(rng.uniform(1.4, 1.8))))


def _coherent_amp(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def coherent_moments(rng, outdir):
    gts = np.linspace(0.0, MOMENT_TMAX, MOMENT_STEPS)
    ops = []
    for regime, k2 in _regime_k2(rng):
        params = params_for(k2)
        alpha, beta = _coherent_amp(rng, 0.3, 0.6), _coherent_amp(rng, 0.3, 0.6)
        pair = ndpa.CoherentPair(alpha, beta)
        theta = float(rng.uniform(0.0, math.pi))
        row = sample_rows(rng, gts, 0.5, 0.8, 1)[0]
        want = ref.fock_moments(ref.oracle_coherent(params, alpha, beta, gts[row]))
        common = ["--initial", f"coherent:{alpha!r},{beta!r}", "--k2", repr(k2),
                  "--tmax", repr(MOMENT_TMAX), "--steps", str(MOMENT_STEPS)]
        closed = [(ndpa.solve_analytic(params, t), ndpa.derived_scalars(params, t))
                  for t in gts]

        def check_mean(data, pair=pair, closed=closed):
            for i, (c, d) in enumerate(closed):
                mean_a, _ = ndpa.coherent_mean_numbers(c, d, pair)
                result = first_failure(
                    matches(f"row {i} mean_a", data[i, 1], mean_a, 1e-9, 1e-12),
                    matches(f"row {i} n_a - n_b", data[i, 1] - data[i, 2],
                            abs(pair.alpha) ** 2 - abs(pair.beta) ** 2, 0.0,
                            1e-9 * (1.0 + data[i, 1])))
                if result:
                    return result
            return None

        def check_q(data, row=row, want=want):
            if not np.all(data[:, 1] >= -1.0 - 1e-9):
                return "Mandel Q below -1"
            return matches(f"row {row} mandel_q", data[row, 1], want["mandel_q"], 1e-7, 1e-9)

        def check_corr(data, row=row, want=want):
            return first_failure(
                matches(f"row {row} f", data[row, 1], want["f"], 1e-7, 1e-9),
                matches(f"row {row} F", data[row, 2], want["F"], 1e-7, 1e-9))

        def check_eta(data):
            if not np.all(data[:, 1] <= data[:, 2] * (1.0 + 1e-12) + 1e-12):
                return "eta exceeds the Yuen bound"
            return all_finite(data)

        def check_variance(data):
            if not np.all(data[:, 1:] > 0.0):
                return "non-positive quadrature variance"
            if not np.all(data[:, 1] * data[:, 2] >= 1.0 - 1e-9):
                return "quadrature variances violate Heisenberg"
            return None

        for name, header, check in (("mean", ["gt", "mean_a", "mean_b"], check_mean),
                                    ("mandel_q", ["gt", "mandel_q"], check_q),
                                    ("correlation", ["gt", "f", "F"], check_corr),
                                    ("eta", ["gt", "eta", "yuen_bound"], check_eta)):
            path = os.path.join(outdir, f"{regime}-{name}.csv")
            argv = ["observable", "--name", name, *common, "--out", path]
            ops.append(cli_op(f"observable {name} {regime}", argv, path, header,
                              MOMENT_STEPS, check))
        path = os.path.join(outdir, f"{regime}-variance.csv")
        values = f"{theta!r},{theta + math.pi / 2.0!r}"
        ops.append(cli_op(f"sweep variance {regime}",
                          ["sweep", "--name", "variance", "--param", "theta",
                           "--values", values, *common, "--out", path], path,
                          ["gt"] + [f"theta={float(v)}" for v in values.split(",")],
                          MOMENT_STEPS, check_variance))
    return ops


# -- oracle -------------------------------------------------------------------

ORACLE_CUTOFF = 40
ORACLE_TOL = 1e-8
CHECK_PAIR = ndpa.CoherentPair(0.8, 0.5)  # the pair cli.oracle_check compares
COHERENT_PHASE = 1.0  # arg(alpha * beta) of the propagated coherent start


def _oracle_check_op(k2: float, tmax: float):
    argv = ["oracle-check", "--k2", repr(k2), "--tmax", repr(tmax),
            "--cutoff", str(ORACLE_CUTOFF), "--tol", repr(ORACLE_TOL)]
    params = params_for(k2)
    c, d = ndpa.solve_analytic(params, tmax), ndpa.derived_scalars(params, tmax)
    closed = ([ndpa.vacuum_prob(d, n) for n in (0, 1, 3)]
              + [ndpa.fock11_prob(d, n) for n in (1, 2)]
              + [ndpa.coherent_revival_prob(c, CHECK_PAIR)[0]])

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ndpa.cli.main(argv)
        return rc, buf.getvalue()

    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}: {text.strip().splitlines()[-1:]}"
        lines = text.strip().splitlines()
        if len(lines) != len(closed) + 1 or "within tolerance" not in lines[-1]:
            return f"unexpected output {lines[-1:]}"
        for line, want in zip(lines, closed):
            fields = dict(f.split("=") for f in line.split(": ", 1)[1].split())
            result = first_failure(
                matches(f"{line.split(':')[0]} closed", float(fields["closed"]), want,
                        1e-11, 1e-14),
                matches(f"{line.split(':')[0]} oracle", float(fields["oracle"]), want,
                        0.0, ORACLE_TOL))
            if result:
                return result
        return None

    return Op(f"oracle-check k2={k2}", run, check, len(closed)), argv


def oracle(rng, outdir):
    ops = []
    cold = None
    for k2 in (0.5, 1.0, 1.5):
        op, argv = _oracle_check_op(k2, 1.0)
        ops.append(op)
        if k2 == 1.5:
            cold = argv

    # a coherent start with 45 charge blocks, propagated at three cutoffs.
    # The seed turns alpha and beta by opposite phases.  That multiplies
    # each charge block by one phase, so the ODE takes the same steps for
    # every seed; the phase of alpha * beta would change them by up to a third.
    p15 = params_for(1.5)
    pump = ndpa.HarmonicPump.from_params(p15)
    turn = float(rng.uniform(0.0, 2.0 * math.pi))
    alpha, beta = 1.5 * np.exp(1j * turn), 1.5 * np.exp(1j * (COHERENT_PHASE - turn))
    pair = ndpa.CoherentPair(alpha, beta)
    t = 0.5
    c, d = ndpa.solve_analytic(p15, t), ndpa.derived_scalars(p15, t)
    p_return = ndpa.coherent_revival_prob(c, pair)[0]
    mean_a = ndpa.coherent_mean_numbers(c, d, pair)[0]
    for cutoff in (40, 48, 56):
        def run(cutoff=cutoff):
            initial = ndpa.coherent_state(cutoff, alpha, beta)
            cfg = ndpa.OracleConfig(cutoff=cutoff, tol=1e-11)
            return initial, ndpa.evolve_truncated(pump, p15, initial, t, cfg)

        def check(out):
            initial, state = out
            amp = sum(np.vdot(initial.blocks[q], v) for q, v in state.blocks.items())
            return first_failure(
                matches("norm", state.total_norm(), 1.0, 0.0, 1e-9),
                matches("p_return", abs(amp) ** 2, p_return, 0.0, 1e-9),
                matches("mean_a", ndpa.oracle_moment(state, 1, 1, 0, 0).real, mean_a,
                        1e-8, 1e-10))

        ops.append(Op(f"evolve coherent cutoff={cutoff}", run, check, 2))

    # cutoff doubling for |1,1> at the critical point
    p1 = params_for(1.0)
    t1 = 1.0
    p11 = ndpa.fock11_prob(ndpa.derived_scalars(p1, t1), 1)

    def converged():
        return ndpa.evolve_converged(
            ndpa.HarmonicPump.from_params(p1), p1, lambda cut: ndpa.fock_state(cut, 1, 1),
            t1, lambda st: ndpa.oracle_probability(st, 1, 1),
            ndpa.OracleConfig(cutoff=8, tol=1e-11))[0]

    ops.append(Op("evolve_converged fock(1,1)", converged,
                  lambda value: matches("p_11", value, p11, 0.0, 1e-8), 1))

    # a Fock start under a tabulated pump: a modulated harmonic pump sampled
    # 101 times, compared with the Wei-Norman ODE under the same pump.  The
    # seeded depth moves the ODE's step count by about 2 % either way.
    t_tab = 0.5
    samples = np.linspace(0.0, t_tab, 101)
    depth = float(rng.uniform(0.0, 0.2))
    tab = ndpa.TabulatedPump(
        times=tuple(samples),
        values=tuple(pump.value(samples) * (1.0 + depth * np.sin(2 * math.pi * samples / t_tab))))
    c_tab = ndpa.solve_ode(tab, p15, [0.0, t_tab])[-1]
    outcomes = range(1, 21)
    want_tab = [abs(ref.fock_amplitude_mp(c_tab, 2, 1, n - 1, n)) ** 2 for n in outcomes]

    def tabulated():
        return ndpa.evolve_truncated(tab, p15, ndpa.fock_state(24, 2, 1), t_tab,
                                     ndpa.OracleConfig(cutoff=24, tol=1e-11))

    def check_tab(state):
        for n, want in zip(outcomes, want_tab):
            result = matches(f"p_{n - 1}{n}", ndpa.oracle_probability(state, n - 1, n),
                             want, 0.0, 1e-7)
            if result:
                return result
        return None

    ops.append(Op("evolve tabulated fock(2,1)", tabulated, check_tab, len(outcomes)))

    # known fault: norm_deficit is conserved at any cutoff, so an undersized
    # cutoff returns a wrong p_00 without raising TruncationError
    p05 = params_for(0.5)
    p00 = ndpa.vacuum_prob(ndpa.derived_scalars(p05, 3.0), 0)

    def undersized():
        try:
            state = ndpa.evolve_truncated(ndpa.HarmonicPump.from_params(p05), p05,
                                          ndpa.fock_state(8, 0, 0), 3.0,
                                          ndpa.OracleConfig(cutoff=8))
        except ndpa.TruncationError:
            return None
        return ndpa.oracle_probability(state, 0, 0)

    ops.append(Op("evolve vacuum k2=0.5 gt=3 cutoff=8", undersized,
                  lambda value: None if value is None else matches(
                      "p_00 (no TruncationError)", value, p00, 0.0, 1e-6),
                  1, known_fault=True))
    return ops, cold


# -- general Fock amplitudes ----------------------------------------------------

PROB_STEPS = 401
PROB_TMAX = 1.5


def _distribution_op(name, params, gt, r, s, n_max, samples, known_fault=False):
    c = ndpa.solve_analytic(params, gt)
    q = r - s
    ns = range(max(q, 0), n_max + 1)
    initial = ndpa.FockPair(r, s)
    want = {n: abs(ref.fock_amplitude_mp(c, r, s, n - q, n)) ** 2 for n in samples}

    def run():
        return np.array([abs(ndpa.fock_amplitude(c, initial, ndpa.FockOutcome(n - q, n))) ** 2
                         for n in ns])

    def check(probs):
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            return f"sum of outcome probabilities - 1 = {total - 1.0:.3e}"
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            return "probability outside [0, 1]"
        for n, p in want.items():
            result = matches(f"p(n={n})", probs[n - max(q, 0)], p, 1e-8, 1e-15)
            if result:
                return result
        return None

    return Op(name, run, check, len(ns), known_fault)


def fock_amplitudes(rng, outdir):
    regimes = _regime_k2(rng)
    k2s = [regimes[0][1], regimes[1][1], regimes[2][1], float(rng.uniform(1.4, 1.8))]
    gts = np.linspace(0.0, PROB_TMAX, PROB_STEPS)
    ops = []
    for (r, s), k2 in zip(((2, 1), (3, 3), (5, 2), (8, 6)), k2s):
        params = params_for(k2)
        m, n = s + 1, r + 1
        rows = sample_rows(rng, gts, 0.0, PROB_TMAX, 3)
        want = {i: abs(ref.fock_amplitude_mp(ndpa.solve_analytic(params, gts[i]),
                                             r, s, m, n)) ** 2 for i in rows}
        oracle_row = sample_rows(rng, gts, 0.5, 0.8, 1)[0]
        oracle_p = ndpa.oracle_probability(ref.oracle_fock(params, r, s, gts[oracle_row]),
                                           m, n)
        path = os.path.join(outdir, f"prob-{r}-{s}.csv")
        argv = ["prob", "--initial", f"fock:{r},{s}", "--m", str(m), "--n", str(n),
                "--k2", repr(k2), "--tmax", repr(PROB_TMAX), "--steps", str(PROB_STEPS),
                "--out", path]

        def check(data, want=want, oracle_row=oracle_row, oracle_p=oracle_p):
            result = in_unit_interval(data, slice(1, None))
            for i, p in want.items():
                result = result or matches(f"row {i} (mpmath)", data[i, 1], p, 1e-9, 1e-15)
            return result or matches(f"row {oracle_row} (oracle)", data[oracle_row, 1],
                                      oracle_p, 0.0, 1e-9)

        ops.append(cli_op(f"prob fock:{r},{s}", argv, path, ["gt", f"p_{m}{n}"],
                          PROB_STEPS, check))

    for (r, s), k2 in zip(((1, 2), (4, 3), (7, 7), (12, 10)), k2s):
        gt = float(rng.uniform(0.5, 1.5))
        samples = [int(v) for v in rng.integers(max(r - s, 0), r + 12, size=3)]
        ops.append(_distribution_op(f"distribution |{r},{s}>", params_for(k2), gt,
                                    r, s, r + 400, samples))

    # known fault: the double-precision alternating sum cancels catastrophically
    for r, s in ((40, 40), (120, 100)):
        ops.append(_distribution_op(f"distribution |{r},{s}> k2=1.5 gt=1",
                                    params_for(1.5), 1.0, r, s, 2000, [], known_fault=True))
    return ops


def closed_forms(rng, outdir):
    """The figure, coherent-moment and Fock-amplitude parts in one pass."""
    ops, cold = figures(rng, outdir)
    for part in (coherent_moments, fock_amplitudes):
        ops += part(rng, outdir)
    return ops, cold


WORKLOADS = {"closed_forms": closed_forms, "oracle": oracle}
