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
-W j, off-diagonal |g| sqrt((n_a+1)(n_b+1))), so with M = V diag(lam) V^T,
z(t) = S V exp(i lam t) V^T S^-1 z(0).  Other pumps are integrated with
DOP853, all blocks zero-padded into one banded system, per kink-free stretch.

scipy loads on first use: for general-Fock and Poisson ``prob``, ``fig3``,
``oracle-check``, ``solve_ode`` and ``squeezing_extrema``.  The PEP 562
``__getattr__`` imports ``solve_ivp``; each ODE run reads it, as rebound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .model import HarmonicPump, ModelParams, PumpProfile, TabulatedPump


def __getattr__(name):
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import solve_ivp
    globals()[name] = solve_ivp
    return solve_ivp


class TruncationError(RuntimeError):
    """Norm leaked past the cutoff; increase the cutoff."""


_TAIL_LIMIT = 1e-9  # largest norm deficit accepted before or after evolution


@dataclass(frozen=True)
class OracleConfig:
    cutoff: int = 32
    tol: float = 1e-11

    def __post_init__(self):
        if self.cutoff < 4:
            raise ValueError("cutoff must be at least 4")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


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


def fock_state(cutoff: int, r: int, s: int) -> TruncatedState:
    if not (0 <= r <= cutoff and 0 <= s <= cutoff):
        raise ValueError(f"initial occupations ({r}, {s}) outside 0..{cutoff}")
    state = TruncatedState(cutoff=cutoff)
    q = r - s
    vec = np.zeros(cutoff + 1 - abs(q), dtype=complex)
    vec[min(r, s)] = 1.0
    state.blocks[q] = vec
    return state


def _coherent_amps(alpha: complex, n: np.ndarray) -> np.ndarray:
    from scipy.special import gammaln
    if alpha == 0:
        out = np.zeros(n.size, dtype=complex)
        out[n == 0] = 1.0
        return out
    log_mod = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) \
        - 0.5 * abs(alpha) ** 2
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mod) * phase


def coherent_state(cutoff: int, alpha: complex, beta: complex) -> TruncatedState:
    """Truncated product coherent state; blocks of weight <= 1e-16 are dropped."""
    n = np.arange(cutoff + 1)
    ca = _coherent_amps(alpha, n)
    cb = _coherent_amps(beta, n)
    state = TruncatedState(cutoff=cutoff)
    for q in range(-cutoff, cutoff + 1):
        na, nb = state.occupations(q)
        vec = ca[na] * cb[nb]
        if np.vdot(vec, vec).real > 1e-16:
            state.blocks[q] = vec.astype(complex)
    state.norm_deficit = max(0.0, 1.0 - state.total_norm())
    return state


def amode_state(cutoff: int, probs, phases=None) -> TruncatedState:
    """|psi>_a (x) |0>_b from a-mode occupation probabilities and phases."""
    probs = np.asarray(probs, dtype=float)
    if probs.size - 1 > cutoff:
        raise ValueError("distribution support exceeds cutoff")
    if phases is None:
        phases = np.zeros(probs.size)
    phases = np.asarray(phases, dtype=float)
    state = TruncatedState(cutoff=cutoff)
    for s_occ, p in enumerate(probs):
        if p == 0.0:
            continue
        q = s_occ  # n_a = s_occ, n_b = 0
        vec = np.zeros(cutoff + 1 - abs(q), dtype=complex)
        vec[0] = math.sqrt(p) * np.exp(1j * phases[s_occ])
        state.blocks[q] = vec
    state.norm_deficit = max(0.0, 1.0 - state.total_norm())
    return state


def _propagate_harmonic(pump: HarmonicPump, w: float, initial: TruncatedState, t):
    """Exact propagation of every block; w is W of the module docstring."""
    from scipy.linalg import eigh_tridiagonal
    turn = 0.5 * np.pi - np.angle(pump.g)  # arg s of the gauge s = i conj(g)/|g|
    out = {}
    for q, vec in initial.blocks.items():
        amp = _pair_amplitudes(initial.cutoff, q)
        j = np.arange(amp.size + 1)
        lam, v = eigh_tridiagonal(-w * j, abs(pump.g) * amp)
        rotated = v @ (np.exp(1j * lam * t) * (v.T @ (np.exp(-1j * turn * j) * vec)))
        out[q] = np.exp(1j * (w * t + turn) * j) * rotated
    return out


def _propagate_ode(pump: PumpProfile, wsum: float, initial: TruncatedState, t, tol):
    """All blocks as one zero-padded ODE system, one solve per kink-free stretch."""
    blocks, cutoff = initial.blocks, initial.cutoff
    amp = np.zeros((len(blocks), cutoff))  # zero past each block's last pair
    y = np.zeros((len(blocks), cutoff + 1), dtype=complex)
    for row, (q, vec) in enumerate(blocks.items()):
        amp[row, :vec.size - 1] = _pair_amplitudes(cutoff, q)
        y[row, :vec.size] = vec

    def rhs(time, flat):
        y = flat.reshape(amp.shape[0], cutoff + 1)
        gt = pump.value(time) * np.exp(-1j * wsum * time)
        dy = np.zeros_like(y)
        dy[:, :-1] = gt * amp * y[:, 1:]
        dy[:, 1:] -= np.conj(gt) * amp * y[:, :-1]
        return dy.ravel()

    # stepping across a kink costs the integrator rejected steps and accuracy;
    # t_eval keeps only each solve's end state, not all its steps, in memory
    kinks = np.asarray(pump.times) if isinstance(pump, TabulatedPump) else np.empty(0)
    knots = [0.0, *kinks[(kinks > 0.0) & (kinks < t)], float(t)]
    flat = y.ravel()
    for t0, t1 in zip(knots, knots[1:]):
        res = sys.modules[__name__].solve_ivp(rhs, (t0, t1), flat, method="DOP853",
                                              t_eval=(t1,), rtol=tol, atol=tol * 1e-2)
        if not res.success:
            raise TruncationError(
                f"integrator failed on [{t0:.6g}, {t1:.6g}]: {res.message}")
        flat = res.y[:, -1]
    y = flat.reshape(y.shape)
    return {q: y[row, :vec.size].copy() for row, (q, vec) in enumerate(blocks.items())}


def evolve_truncated(pump: PumpProfile, params: ModelParams,
                     initial: TruncatedState, t: float,
                     cfg: OracleConfig = OracleConfig()) -> TruncatedState:
    """Solve i d/dt psi = H_I(t) psi for every charge block up to time t.

    Exact for a ``HarmonicPump``: one eigendecomposition per block of the
    gauged rotating-frame generator (module docstring); ``cfg.tol`` unused.
    Other pumps: DOP853 at relative tolerance ``cfg.tol``, one ``solve_ivp``
    call per stretch between ``TabulatedPump`` sample times in (0, t).
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if initial.norm_deficit > _TAIL_LIMIT:
        raise TruncationError(
            f"initial norm deficit {initial.norm_deficit:.3e} exceeds {_TAIL_LIMIT:.0e}")
    wsum = params.omega_a + params.omega_b
    result = TruncatedState(cutoff=initial.cutoff)
    if t == 0.0:
        result.blocks = {q: v.copy() for q, v in initial.blocks.items()}
        result.norm_deficit = initial.norm_deficit
        return result

    if isinstance(pump, HarmonicPump):
        result.blocks = _propagate_harmonic(pump, wsum - pump.omega, initial, t)
    else:
        result.blocks = _propagate_ode(pump, wsum, initial, t, cfg.tol)

    deficit = max(0.0, 1.0 - result.total_norm())
    result.norm_deficit = deficit
    if deficit > _TAIL_LIMIT:
        raise TruncationError(
            f"norm deficit {deficit:.3e} exceeds {_TAIL_LIMIT:.0e}; increase the cutoff")
    return result


def oracle_probability(state: TruncatedState, m: int, n: int) -> float:
    """Probability of finding n quanta in mode a and m in mode b."""
    return abs(state.amplitude(n, m)) ** 2


def _apply_lowering(arr: np.ndarray, q: int, s: int) -> np.ndarray:
    """a^q b^s acting on dense amplitudes arr[n_a, n_b]."""
    out = arr
    for _ in range(q):
        n = np.arange(1, out.shape[0])
        out = out[1:, :] * np.sqrt(n)[:, None]
    for _ in range(s):
        n = np.arange(1, out.shape[1])
        out = out[:, 1:] * np.sqrt(n)[None, :]
    return out


def oracle_moment(state: TruncatedState, p: int, q: int, r: int, s: int) -> complex:
    """Normal-ordered moment <a+^p a^q b+^r b^s> in the truncated basis."""
    dense = state.dense()
    bra = _apply_lowering(dense, p, r)
    ket = _apply_lowering(dense, q, s)
    rows = min(bra.shape[0], ket.shape[0])
    cols = min(bra.shape[1], ket.shape[1])
    return complex(np.sum(np.conj(bra[:rows, :cols]) * ket[:rows, :cols]))


def edge_mass(state: TruncatedState) -> float:
    """Probability mass on the three levels nearest the cutoff in either mode.

    The blockwise generators are anti-Hermitian even after truncation, so
    the integrated norm is conserved exactly and norm_deficit alone cannot
    flag an undersized cutoff; mass piling up at the edge can.
    """
    total = 0.0
    for q, vec in state.blocks.items():
        na, nb = state.occupations(q)
        near = (na >= state.cutoff - 2) | (nb >= state.cutoff - 2)
        total += float(np.sum(np.abs(vec[near]) ** 2))
    return total


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
