"""Brute-force propagator on a truncated two-mode Fock space.

Independent of every closed form in the library: the interaction-picture
Schrodinger equation is integrated directly in a photon-number-bounded
basis.  The interaction conserves the charge q = n_a - n_b, so the state
decomposes into independent blocks indexed by q, each spanned by
{(j + max(q,0), j + max(-q,0)) : j = 0..dim-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln

from .model import ModelParams, PumpProfile


class TruncationError(RuntimeError):
    """Norm leaked past the cutoff; increase the cutoff."""


@dataclass(frozen=True)
class OracleConfig:
    cutoff: int = 32
    tol: float = 1e-11
    tail_limit: float = 1e-9

    def __post_init__(self):
        if self.cutoff < 4:
            raise ValueError("cutoff must be at least 4")
        if self.tol <= 0 or self.tail_limit <= 0:
            raise ValueError("tol and tail_limit must be positive")


@dataclass
class TruncatedState:
    """Amplitudes over charge blocks of the truncated two-mode Fock basis."""

    cutoff: int
    blocks: dict[int, np.ndarray] = field(default_factory=dict)
    norm_deficit: float = 0.0

    def block_dim(self, q: int) -> int:
        return self.cutoff + 1 - abs(q)

    def occupations(self, q: int):
        """(n_a, n_b) index arrays for block q."""
        j = np.arange(self.block_dim(q))
        return j + max(q, 0), j + max(-q, 0)

    def total_norm(self) -> float:
        return float(sum(np.vdot(v, v).real for v in self.blocks.values()))

    def overlap(self, other: "TruncatedState") -> complex:
        """<self|other>, summed over the charge blocks both states hold."""
        return complex(sum(np.vdot(vec, other.blocks[q])
                           for q, vec in self.blocks.items() if q in other.blocks))

    def amplitude(self, n_a: int, n_b: int) -> complex:
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


def build_generators(cutoff: int, q: int):
    """Sparse (bidiagonal) pair-creation/annihilation matrices within block q.

    Returned as dense arrays; the raising operator has
    <j+1| K+ |j> = sqrt((n_a+1)(n_b+1)).
    """
    if abs(q) > cutoff:
        raise ValueError("block charge exceeds cutoff")
    dim = cutoff + 1 - abs(q)
    j = np.arange(dim - 1)
    na = j + max(q, 0)
    nb = j + max(-q, 0)
    amp = np.sqrt((na + 1.0) * (nb + 1.0))
    k_plus = np.zeros((dim, dim))
    k_plus[j + 1, j] = amp
    return k_plus, k_plus.T.copy()


def fock_state(cutoff: int, r: int, s: int) -> TruncatedState:
    if r > cutoff or s > cutoff:
        raise ValueError("initial occupation exceeds cutoff")
    state = TruncatedState(cutoff=cutoff)
    q = r - s
    vec = np.zeros(cutoff + 1 - abs(q), dtype=complex)
    vec[min(r, s)] = 1.0
    state.blocks[q] = vec
    return state


def _coherent_amps(alpha: complex, n: np.ndarray) -> np.ndarray:
    if alpha == 0:
        out = np.zeros(n.size, dtype=complex)
        out[n == 0] = 1.0
        return out
    log_mod = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) \
        - 0.5 * abs(alpha) ** 2
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mod) * phase


def coherent_state(cutoff: int, alpha: complex, beta: complex,
                   weight_floor: float = 1e-16) -> TruncatedState:
    """Truncated product coherent state; blocks below weight_floor are dropped."""
    n = np.arange(cutoff + 1)
    ca = _coherent_amps(alpha, n)
    cb = _coherent_amps(beta, n)
    state = TruncatedState(cutoff=cutoff)
    for q in range(-cutoff, cutoff + 1):
        na, nb = state.occupations(q)
        vec = ca[na] * cb[nb]
        if np.vdot(vec, vec).real > weight_floor:
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


def evolve_truncated(pump: PumpProfile, params: ModelParams,
                     initial: TruncatedState, t: float,
                     cfg: OracleConfig = OracleConfig()) -> TruncatedState:
    """Integrate i d/dt psi = H_I(t) psi blockwise up to time t."""
    if initial.norm_deficit > cfg.tail_limit:
        raise TruncationError("initial state is not normalized within tail_limit")
    wsum = params.omega_a + params.omega_b
    result = TruncatedState(cutoff=initial.cutoff)
    if t == 0.0:
        result.blocks = {q: v.copy() for q, v in initial.blocks.items()}
        result.norm_deficit = initial.norm_deficit
        return result

    for q, vec in initial.blocks.items():
        k_plus, k_minus = build_generators(initial.cutoff, q)

        def rhs(time, y):
            gt = pump.value(time) * np.exp(-1j * wsum * time)
            return gt * (k_minus @ y) - np.conj(gt) * (k_plus @ y)

        res = solve_ivp(rhs, (0.0, float(t)), vec.astype(complex),
                        method="DOP853", rtol=cfg.tol, atol=cfg.tol * 1e-2)
        if not res.success:
            raise TruncationError(f"integrator failed in block q={q}: {res.message}")
        result.blocks[q] = res.y[:, -1]

    deficit = max(0.0, 1.0 - result.total_norm())
    result.norm_deficit = deficit
    if deficit > cfg.tail_limit:
        raise TruncationError(
            f"norm deficit {deficit:.3e} exceeds tail_limit {cfg.tail_limit:.3e}; "
            "increase the cutoff")
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


def auto_cutoff(expected_mean: float) -> int:
    """Starting cutoff heuristic: generous multiple of the expected photon number."""
    return max(16, int(math.ceil(4.0 * expected_mean)))


def edge_mass(state: TruncatedState, margin: int = 2) -> float:
    """Probability mass within ``margin`` levels of the cutoff edge.

    The blockwise generators are anti-Hermitian even after truncation, so
    the integrated norm is conserved exactly and norm_deficit alone cannot
    flag an undersized cutoff; mass piling up at the edge can.
    """
    total = 0.0
    for q, vec in state.blocks.items():
        na, nb = state.occupations(q)
        near = (na >= state.cutoff - margin) | (nb >= state.cutoff - margin)
        total += float(np.sum(np.abs(vec[near]) ** 2))
    return total


def evolve_converged(pump: PumpProfile, params: ModelParams, make_initial,
                     t: float, probe, cfg: OracleConfig = OracleConfig(),
                     rel_change: float = 1e-9, max_cutoff: int = 4096):
    """Double the cutoff until ``probe(state)`` stabilizes.

    ``make_initial(cutoff)`` builds the initial state at a given cutoff and
    ``probe`` maps an evolved state to the scalar being converged.  Returns
    (value, state, cutoff).
    """
    cutoff = cfg.cutoff
    prev = None
    while cutoff <= max_cutoff:
        run_cfg = OracleConfig(cutoff=cutoff, tol=cfg.tol,
                               tail_limit=cfg.tail_limit)
        state = evolve_truncated(pump, params, make_initial(cutoff), t, run_cfg)
        value = probe(state)
        if prev is not None and abs(value - prev) <= rel_change * max(1.0, abs(value)):
            return value, state, cutoff
        prev = value
        cutoff *= 2
    raise TruncationError(f"no convergence below cutoff {max_cutoff}")
