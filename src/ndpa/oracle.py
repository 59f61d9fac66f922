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
Any other pump is integrated with DOP853 by ``_integrate``, the stretch loop
that ``weinorman.solve_ode`` also runs on, here with all blocks zero-padded to
cutoff + 1 entries and raveled into one flat row.  One flat coefficient array
serves K- and, one slot down, K+; it holds 0 at each block's last entry and in
the padding, so no amplitude crosses a block edge.  It makes one solve per
kink-free stretch, on which a tabulated pump is linear.  A tabulated stretch
spans one sample interval, one step or a few, so its solve keeps its steps and
the state is read off the last (``t_eval`` would build a dense output, 3 more
RHS calls per step); any other solve keeps only its output states
(``t_eval``).  Each spent solver is collected at once; a failed solve raises
``IntegrationError``.

A start is validated by ``model``'s state types and built by ``_product_state``, which
drops each block of weight <= 1e-16 into ``norm_deficit`` and loads no scipy.  The
harmonic path loads ``scipy.linalg``; the ODE path ``scipy.integrate``, whose
``solve_ivp`` the PEP 562 ``__getattr__`` imports; each ODE run reads it, as rebound.
"""

from __future__ import annotations

import cmath
import gc
import math
import numbers
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (CoherentPair, FockPair, HarmonicPump, ModelParams, PumpProfile,
                    PureAModeState, TabulatedPump)


def __getattr__(name):
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import solve_ivp
    globals()[name] = solve_ivp
    return solve_ivp


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


def _propagate_harmonic(pump: HarmonicPump, w: float, initial: TruncatedState, t):
    """Exact propagation of every block; w is W of the module docstring."""
    from scipy.linalg import eigh_tridiagonal
    turn = 0.5 * np.pi - np.angle(pump.g)  # arg s of the gauge s = i conj(g)/|g|
    cut = initial.cutoff
    eig = {a: eigh_tridiagonal(-w * np.arange(cut + 1 - a), abs(pump.g) * _pair_amplitudes(cut, a))
           for a in {abs(q) for q in initial.blocks}}  # blocks q and -q share one generator
    out = {}
    for q, vec in initial.blocks.items():
        lam, v = eig[abs(q)]
        j = np.arange(vec.size)
        rotated = v @ (np.exp(1j * lam * t) * (v.T @ (np.exp(-1j * turn * j) * vec)))
        out[q] = np.exp(1j * (w * t + turn) * j) * rotated
    return out


def _integrate(pump: PumpProfile, wsum: float, f, y0: np.ndarray, times, rtol, atol):
    """States of y' = f(G(t), y), y(0) = y0, G(t) = g(t) exp(-i wsum t), at the
    monotone float list ``times`` from 0 to its end; the module docstring's loop."""
    end = times[-1]

    def rhs(time, y):
        g = line[0] + line[1] * (time - line[2]) if tabulated else pump.value(time)
        return f(g * cmath.exp(-1j * wsum * time), y)

    # stepping across a kink costs the integrator rejected steps and accuracy;
    # error control shrinks a first step spanning the whole stretch if it must;
    # an output strictly inside a stretch goes into its t_eval
    tabulated = isinstance(pump, TabulatedPump)
    kinks = np.asarray(pump.times) if tabulated else np.empty(0)
    knots = [0.0, *kinks[(kinks > 0.0) & (kinks < end)], end] if end else [0.0]
    ends = pump.value(knots).tolist() if tabulated else None  # g is straight between knots
    y, states = y0, [y0] * int(times[0] == 0.0)
    for i, (t0, t1) in enumerate(zip(knots, knots[1:])):
        if tabulated:  # (g0, slope, t0) on this stretch
            line = (ends[i], (ends[i + 1] - ends[i]) / (t1 - t0), t0)
        inside = [t for t in times if (t - t0) * (t - t1) < 0.0]
        res = sys.modules[__name__].solve_ivp(
            rhs, (t0, t1), y, method="DOP853",
            t_eval=None if tabulated and not inside else (*inside, t1),
            first_step=abs(t1 - t0), rtol=rtol, atol=atol)
        gc.collect(0)  # the spent solver is cyclic garbage holding its stage arrays
        if not (res.success and np.isfinite(res.y).all()):  # scipy may "succeed" on nan
            why = res.message if not res.success else "the state is not finite"
            raise IntegrationError(f"integrator failed on [{t0:.6g}, {t1:.6g}]: {why}")
        states.extend(res.y.T[:len(inside)])
        y = res.y[:, -1]
        if t1 in times:
            states.append(y)
    return states


def _propagate_ode(pump: PumpProfile, wsum: float, initial: TruncatedState, t, tol):
    """All blocks as one flat ODE system (module docstring) on the stretches of ``_integrate``."""
    up = np.zeros((len(initial.blocks), initial.cutoff + 1))  # <k| K- |k+1> = <k+1| K+ |k>
    y = np.zeros_like(up, dtype=complex)
    for row, (q, vec) in enumerate(initial.blocks.items()):
        up[row, :vec.size - 1], y[row, :vec.size] = _pair_amplitudes(initial.cutoff, q), vec
    up = up.ravel()[:-1]  # 0 at each block's last entry and in the padding

    def rhs(gt, y):
        dy = np.empty_like(y)
        np.multiply(gt * up, y[1:], out=dy[:-1])
        dy[-1] = 0
        dy[1:] -= gt.conjugate() * up * y[:-1]
        return dy

    y = _integrate(pump, wsum, rhs, y.ravel(), [float(t)], tol, tol * 1e-2)[-1].reshape(y.shape)
    return {q: y[row, :vec.size].copy() for row, (q, vec) in enumerate(initial.blocks.items())}


def evolve_truncated(pump: PumpProfile, params: ModelParams,
                     initial: TruncatedState, t: float,
                     cfg: OracleConfig = OracleConfig()) -> TruncatedState:
    """Solve i d/dt psi = H_I(t) psi for every charge block up to time t.

    Exact for a ``HarmonicPump``: one eigendecomposition per pair +-q of the
    gauged rotating-frame generator (module docstring); ``cfg.tol`` unused.
    Other pumps: ``_integrate`` at relative tolerance ``cfg.tol``.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
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
