"""Brute-force propagator on a truncated two-mode Fock space.

Independent of every closed form in the library, it solves the
interaction-picture Schrodinger equation from the Hamiltonian's matrix
elements.  The charge q = n_a - n_b is conserved, so the state splits into
blocks q spanned by (j + max(q,0), j + max(-q,0)), j = 0..dim-1, on which
y' = G(t) K- y - conj(G(t)) K+ y, G(t) = g(t) exp(-i (omega_a + omega_b) t),
and <j+1| K+ |j> = <j| K- |j+1> = sqrt((n_a+1)(n_b+1)).

A ``HarmonicPump`` g exp(i omega t) is propagated exactly: in the frame
y_j = exp(i W j t) z_j, W = omega_a + omega_b - omega, the generator of
z' = (-i W j + g K- - conj(g) K+) z is constant, and the gauge z_j = s^j w_j,
s = i conj(g)/|g|, makes it i M, M real symmetric tridiagonal (diagonal
-W j, off-diagonal |g| sqrt((n_a+1)(n_b+1)), alike for q and -q), so with
M = V diag(lam) V^T, found once per |q|, z(t) = S V exp(i lam t) V^T S^-1 z(0).
Any other pump is integrated by ``_integrate``, the stretch loop that ``weinorman.solve_ode``
also runs on, here with all blocks zero-padded to cutoff + 1 entries and raveled into one
flat row.  One flat coefficient array serves K- and, one slot down, K+; it holds 0 at each
block's last entry and in the padding, so no amplitude crosses a block edge.  On each
kink-free stretch, where a tabulated pump is linear, ``_dop853`` steps the Dormand-Prince
8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10) with scipy's ``DOP853``
tableau and step-size control but no solver object, keeping only the current state; an
output time inside comes off the 7th-order interpolant of its step (3 more RHS calls).
A failed step or a non-finite state raises ``IntegrationError``.

A start is validated by ``model``'s state types and built by ``_product_state``, which
drops each block of weight <= 1e-16 into ``norm_deficit`` and loads no scipy.  The
harmonic path calls LAPACK's divide-and-conquer ``dstevd`` from ``scipy.linalg``; the
ODE path reads the tableau off ``DOP853`` from ``scipy.integrate``.  ``__getattr__``
(PEP 562) imports each on its first read; both read them through the module, as rebound.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (CoherentPair, FockPair, HarmonicPump, ModelParams, PumpProfile,
                    PureAModeState, TabulatedPump)


# scipy primitives imported on first read and kept as module globals, so that they can be
# rebound; solve_ivp is not called here: perfbench/tracing.py rebinds it, tests use it
_LAZY = {"DOP853": "scipy.integrate", "solve_ivp": "scipy.integrate",
         "dstevd": "scipy.linalg.lapack"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_LAZY[name], fromlist=[name]), name)
    return value


class TruncationError(RuntimeError):
    """Norm leaked past the cutoff; increase the cutoff."""


class IntegrationError(RuntimeError):
    """The integrator failed on a stretch; the message names it and scipy's reason."""


_TAIL_LIMIT = 1e-9  # largest norm deficit accepted before or after evolution


@dataclass(frozen=True)
class OracleConfig:
    cutoff: int = 32
    tol: float = 1e-11

    def __post_init__(self):
        if not isinstance(self.cutoff, numbers.Integral) or self.cutoff < 4:  # bools are < 4
            raise ValueError(f"cutoff must be at least 4 and an integer, got {self.cutoff!r}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")


@dataclass
class TruncatedState:
    """Amplitudes over charge blocks of the truncated two-mode Fock basis."""

    cutoff: int
    blocks: dict[int, np.ndarray] = field(default_factory=dict)
    norm_deficit: float = 0.0

    def occupations(self, q: int):
        """(n_a, n_b) index arrays for block q."""
        j = np.arange(self.cutoff + 1 - abs(q))
        return j + max(q, 0), j + max(-q, 0)

    def total_norm(self) -> float:
        return float(sum(np.vdot(v, v).real for v in self.blocks.values()))

    def overlap(self, other: "TruncatedState") -> complex:
        """<self|other>, summed over the charge blocks both states hold."""
        return complex(sum(np.vdot(vec, other.blocks[q])
                           for q, vec in self.blocks.items() if q in other.blocks))

    def amplitude(self, n_a: int, n_b: int) -> complex:
        if n_a < 0 or n_b < 0:
            raise ValueError(f"occupations must be non-negative, got ({n_a}, {n_b})")
        q = n_a - n_b
        vec = self.blocks.get(q)
        if vec is None:
            return 0j
        j = min(n_a, n_b)
        if j >= vec.size:
            return 0j
        return complex(vec[j])

    def dense(self) -> np.ndarray:
        """Amplitudes as a (cutoff+1, cutoff+1) array indexed [n_a, n_b]."""
        out = np.zeros((self.cutoff + 1, self.cutoff + 1), dtype=complex)
        for q, vec in self.blocks.items():
            na, nb = self.occupations(q)
            out[na, nb] = vec
        return out


def _pair_amplitudes(cutoff: int, q: int) -> np.ndarray:
    """<j+1| K+ |j> = sqrt((n_a+1)(n_b+1)) within block q, for j = 0..dim-2."""
    if abs(q) > cutoff:
        raise ValueError("block charge exceeds cutoff")
    j = np.arange(cutoff - abs(q))
    return np.sqrt((j + max(q, 0) + 1.0) * (j + max(-q, 0) + 1.0))


def _product_state(cutoff: int, a: np.ndarray, b: np.ndarray) -> TruncatedState:
    """|a> (x) |b> from amplitudes a[n_a], b[n_b], n = 0..cutoff, over the charges their
    supports reach; a block of weight <= 1e-16 is dropped, its weight left to norm_deficit."""
    state = TruncatedState(cutoff=cutoff)
    na, nb = np.flatnonzero(a), np.flatnonzero(b)
    if na.size and nb.size:  # else nothing lies inside the cutoff
        for q in range(na[0] - nb[-1], na[-1] - nb[0] + 1):  # block q: n_a - n_b = q
            vec = a[q:] * b[:b.size - q] if q >= 0 else a[:a.size + q] * b[-q:]
            if np.vdot(vec, vec).real > 1e-16:
                state.blocks[q] = vec
    state.norm_deficit = max(0.0, 1.0 - state.total_norm())
    return state


def fock_state(cutoff: int, r: int, s: int) -> TruncatedState:
    if not (0 <= r <= cutoff and 0 <= s <= cutoff):
        raise ValueError(f"initial occupations ({r}, {s}) outside 0..{cutoff}")
    f, n = FockPair(r, s), np.arange(cutoff + 1)
    return _product_state(cutoff, (n == f.r).astype(complex), (n == f.s).astype(complex))


def _coherent_amps(alpha: complex, n: np.ndarray) -> np.ndarray:
    if alpha == 0:
        return (n == 0).astype(complex)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n.tolist()])
    log_mod = n * math.log(abs(alpha)) - 0.5 * log_fact - 0.5 * abs(alpha) ** 2
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mod) * phase


def coherent_state(cutoff: int, alpha: complex, beta: complex) -> TruncatedState:
    """Truncated product coherent state |alpha>_a (x) |beta>_b."""
    pair, n = CoherentPair(alpha, beta), np.arange(cutoff + 1)
    return _product_state(cutoff, _coherent_amps(pair.alpha, n), _coherent_amps(pair.beta, n))


def amode_state(cutoff: int, probs, phases=None) -> TruncatedState:
    """|psi>_a (x) |0>_b from a-mode occupation probabilities and phases (zeros if None)."""
    probs = np.asarray(probs, dtype=float)
    if probs.size - 1 > cutoff:
        raise ValueError("distribution support exceeds cutoff")
    psi = PureAModeState(tuple(probs), tuple(np.zeros(probs.size) if phases is None else phases))
    a, n = np.zeros(cutoff + 1, dtype=complex), np.arange(cutoff + 1)
    a[:probs.size] = np.sqrt(probs) * np.exp(1j * np.asarray(psi.phases, dtype=float))
    return _product_state(cutoff, a, (n == 0).astype(complex))


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray):
    """Eigenvalues and eigenvectors of the real symmetric tridiagonal matrix with diagonal d
    and off-diagonal e, by ``dstevd``; its wrapper wants one off-diagonal slot even for a
    single level, where e is empty."""
    lam, v, info = sys.modules[__name__].dstevd(d, e if e.size else np.zeros(1))
    if info:
        raise np.linalg.LinAlgError(f"dstevd failed on a block of {d.size} levels: info = {info}")
    return lam, v


def _propagate_harmonic(pump: HarmonicPump, w: float, initial: TruncatedState, t):
    """Exact propagation of every block; w is W of the module docstring."""
    turn = 0.5 * np.pi - np.angle(pump.g)  # arg s of the gauge s = i conj(g)/|g|
    cut = initial.cutoff
    eig = {a: _tridiagonal_eigh(-w * np.arange(cut + 1 - a),
                                abs(pump.g) * _pair_amplitudes(cut, a))
           for a in {abs(q) for q in initial.blocks}}  # blocks q and -q share one generator
    out = {}
    for q, vec in initial.blocks.items():
        lam, v = eig[abs(q)]
        j = np.arange(vec.size)
        rotated = v @ (np.exp(1j * lam * t) * (v.T @ (np.exp(-1j * turn * j) * vec)))
        out[q] = np.exp(1j * (w * t + turn) * j) * rotated
    return out


def _dop853(fun, t0, y, t1, times, rtol, atol, tableau):
    """Step y' = fun(t, y) from y(t0) = y to t1 on ``_integrate``'s ``tableau``, first trying
    one step; the states at the ``times`` in (t0, t1], and the end state."""
    (a, c, e, d), k, way = tableau, np.empty((16, y.size), complex), math.copysign(1, t1 - t0)
    k[0], got, t, h_abs = fun(t0, y), [], t0, abs(t1 - t0)
    due, stretch = [s for s in times if (s - t0) * (s - t1) < 0.0], f"[{t0:.6g}, {t1:.6g}]: "

    def stages(first, last):  # stages first, ..., last - 1 of the step h from (t, y)
        for s in range(first, last):
            k[s] = fun(t + c[s] * h, z := y + np.dot(ah[s, :s], k[:s]))
        return z

    while t != t1:
        min_step = 10 * abs(math.nextafter(t, way * math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise IntegrationError("integrator failed on " + stretch +
                                       "Required step size is less than spacing between numbers.")
            t_new = t1 if way * (t + way * h_abs - t1) > 0 else t + way * h_abs
            h, h_abs = t_new - t, abs(t_new - t)
            ah = a * h
            y_new = stages(1, 13)  # row 12 is the step's end
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5, e3 = np.linalg.norm(np.dot(e, k[:13]) / scale, axis=1) ** 2
            err = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * y.size) if e5 or e3 else 0.0
            factor = 0.9 * err ** -0.125 if err else 10.0
            if err < 1:  # grow the step at most 10-fold, and not after a rejection
                h_abs *= min(1.0 if rejected else 10.0, factor)
                break
            h_abs, rejected = h_abs * max(0.2, factor), True
        n = next((i for i in range(len(got), len(due)) if (due[i] - t_new) * way > 0), len(due))
        if n > len(got):  # this step holds output times: its 7th-order interpolant
            stages(13, 16)
            dy, x, out = y_new - y, (np.array(due[len(got):n])[:, None] - t) / h, 0
            rows = [dy, h * k[0] - dy, 2 * dy - h * (k[12] + k[0]), *h * np.dot(d, k)]
            for i, row in enumerate(reversed(rows)):
                out = (out + row) * (x if i % 2 == 0 else 1 - x)
            got.extend(out + y)
        t, y, k[0] = t_new, y_new, k[12]
    if not np.isfinite([*got, y]).all():  # a step may be accepted on nan
        raise IntegrationError("integrator failed on " + stretch + "the state is not finite")
    return got + [y] * (t1 in times), y


def _integrate(pump: PumpProfile, wsum: float, f, y0: np.ndarray, times, rtol, atol):
    """States of y' = f(G(t), y), y(0) = y0, G(t) = g(t) exp(-i wsum t), at the monotone
    float list ``times`` from 0 to its end, by ``_dop853`` on each kink-free stretch."""
    end = times[-1]

    def rhs(time, y):
        g = line[0] + line[1] * (time - line[2]) if tabulated else pump.value(time)
        return f(g * cmath.exp(-1j * wsum * time), y)

    # each kink ends a stretch: stepping across one costs rejected steps and accuracy
    tabulated = isinstance(pump, TabulatedPump)
    kinks = np.asarray(pump.times) if tabulated else np.empty(0)
    knots = [0.0, *kinks[(kinks > 0.0) & (kinks < end)].tolist(), end] if end else [0.0]
    ends = pump.value(knots).tolist() if tabulated else None  # g is straight between knots
    d = sys.modules[__name__].DOP853  # stage weights: 12 stages, the step's end, 3 for dense
    a = np.vstack((np.pad(d.A, ((0, 0), (0, 4))), np.pad(d.B, (0, 4)), d.A_EXTRA)) + 0j
    tableau = (a, np.hstack((d.C, 1.0, d.C_EXTRA)).tolist(), np.array([d.E5, d.E3]), d.D)
    if rtol < 100 * np.finfo(float).eps:  # scipy's floor, with its warning
        rtol = 100 * np.finfo(float).eps
        warnings.warn(f"At least one element of `rtol` is too small. Setting `rtol = "
                      f"np.maximum(rtol, {rtol})`.", stacklevel=3)
    y, states = y0, [y0] * int(times[0] == 0.0)
    for i, (t0, t1) in enumerate(zip(knots, knots[1:])):
        if tabulated:  # (g0, slope, t0) on this stretch
            line = (ends[i], (ends[i + 1] - ends[i]) / (t1 - t0), t0)
        got, y = _dop853(rhs, t0, y, t1, times, rtol, atol, tableau)
        states.extend(got)
    return states


def _propagate_ode(pump: PumpProfile, wsum: float, initial: TruncatedState, t, tol):
    """All blocks as one flat ODE system (module docstring) on the stretches of ``_integrate``."""
    up = np.zeros((len(initial.blocks), initial.cutoff + 1))  # <k| K- |k+1> = <k+1| K+ |k>
    y = np.zeros_like(up, dtype=complex)
    for row, (q, vec) in enumerate(initial.blocks.items()):
        up[row, :vec.size - 1], y[row, :vec.size] = _pair_amplitudes(initial.cutoff, q), vec
    up = up.ravel()[:-1]  # 0 at each block's last entry and in the padding
    pairs = np.zeros((2, up.size + 1), dtype=complex)  # K- y and K+ y, their slots kept 0

    def rhs(gt, y):
        np.multiply(up, y[1:], out=pairs[0, :-1])
        np.multiply(up, y[:-1], out=pairs[1, 1:])
        return np.dot((gt, -gt.conjugate()), pairs)

    y = _integrate(pump, wsum, rhs, y.ravel(), [float(t)], tol, tol * 1e-2)[-1].reshape(y.shape)
    return {q: y[row, :vec.size].copy() for row, (q, vec) in enumerate(initial.blocks.items())}


def evolve_truncated(pump: PumpProfile, params: ModelParams,
                     initial: TruncatedState, t: float,
                     cfg: OracleConfig = OracleConfig()) -> TruncatedState:
    """Solve i d/dt psi = H_I(t) psi for every charge block up to time t.

    Exact for a ``HarmonicPump``: one eigendecomposition per pair +-q of the
    gauged rotating-frame generator (module docstring); ``cfg.tol`` unused.
    Other pumps: ``_integrate`` at relative tolerance ``cfg.tol``.  The start must
    be built at ``cfg.cutoff``.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if initial.cutoff != cfg.cutoff:
        raise ValueError(f"the start's cutoff {initial.cutoff} differs from "
                         f"cfg.cutoff = {cfg.cutoff}")
    if initial.norm_deficit > _TAIL_LIMIT:
        raise TruncationError(
            f"initial norm deficit {initial.norm_deficit:.3e} exceeds {_TAIL_LIMIT:.0e}")
    if t == 0.0:
        return replace(initial, blocks={q: v.copy() for q, v in initial.blocks.items()})
    wsum = params.omega_a + params.omega_b
    result = TruncatedState(cutoff=initial.cutoff)
    if isinstance(pump, HarmonicPump):
        result.blocks = _propagate_harmonic(pump, wsum - pump.omega, initial, t)
    else:
        result.blocks = _propagate_ode(pump, wsum, initial, t, cfg.tol)

    result.norm_deficit = deficit = max(0.0, 1.0 - result.total_norm())
    if deficit > _TAIL_LIMIT:
        raise TruncationError(
            f"norm deficit {deficit:.3e} exceeds {_TAIL_LIMIT:.0e}; increase the cutoff")
    return result


def oracle_probability(state: TruncatedState, m: int, n: int) -> float:
    """Probability of finding n quanta in mode a and m in mode b."""
    return abs(state.amplitude(n, m)) ** 2


def _apply_lowering(arr: np.ndarray, q: int, s: int) -> np.ndarray:
    """a^q b^s acting on dense amplitudes arr[n_a, n_b]."""
    for _ in range(q):
        arr = arr[1:, :] * np.sqrt(np.arange(1, arr.shape[0]))[:, None]
    for _ in range(s):
        arr = arr[:, 1:] * np.sqrt(np.arange(1, arr.shape[1]))[None, :]
    return arr


def oracle_moment(state: TruncatedState, p: int, q: int, r: int, s: int) -> complex:
    """Normal-ordered moment <a+^p a^q b+^r b^s> in the truncated basis."""
    dense = state.dense()
    bra, ket = _apply_lowering(dense, p, r), _apply_lowering(dense, q, s)
    rows, cols = min(bra.shape[0], ket.shape[0]), min(bra.shape[1], ket.shape[1])
    return complex(np.sum(np.conj(bra[:rows, :cols]) * ket[:rows, :cols]))


def edge_mass(state: TruncatedState) -> float:
    """Probability mass on the three levels nearest the cutoff in either mode.

    The blockwise generators are anti-Hermitian even after truncation, so
    the integrated norm is conserved exactly and norm_deficit alone cannot
    flag an undersized cutoff; mass piling up at the edge can.  Entry j of
    block q has max(n_a, n_b) = j + |q| and the block ends at j = cutoff - |q|,
    so the levels with max(n_a, n_b) >= cutoff - 2 are its last three entries
    (all of a block shorter than three).
    """
    return float(sum(np.vdot(v[-3:], v[-3:]).real for v in state.blocks.values()))


def evolve_converged(pump: PumpProfile, params: ModelParams, make_initial,
                     t: float, probe, cfg: OracleConfig = OracleConfig()):
    """Double the cutoff, from ``cfg.cutoff``, until ``probe(state)`` stabilizes.

    ``make_initial(cutoff)`` builds the initial state at a given cutoff and
    ``probe`` maps an evolved state to the scalar being converged.  Two
    successive values must agree to 1e-9 * max(1, |value|) before the
    cutoff passes 4096.  Returns (value, state, cutoff).
    """
    cutoff = cfg.cutoff
    prev = None
    while cutoff <= 4096:
        state = evolve_truncated(pump, params, make_initial(cutoff), t,
                                 replace(cfg, cutoff=cutoff))
        value = probe(state)
        if prev is not None and abs(value - prev) <= 1e-9 * max(1.0, abs(value)):
            return value, state, cutoff
        prev = value
        cutoff *= 2
    raise TruncationError("no convergence below cutoff 4096")
