"""Transition amplitudes, probabilities and reduced density matrices.

All combinatorial factors go through log-gamma so that outcomes with
photon numbers ~10^3 (needed for normalization checks) stay finite, and
every probability is assembled in the log domain before the final exp.

For an a-mode pure state with the b mode in vacuum, one log term,
log p_mn = log P_(n-m) + log C(n, m) + m log y - (n-m+1) log x, gives
``amode_prob`` (its exp), both reduced densities (its logsumexp over n or
over m) and ``amode_norm`` (its sum per source occupation n - m).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .weinorman import (DerivedScalars, WeiNormanCoefficients, _real,
                        bogoliubov_pair)


@dataclass(frozen=True)
class FockPair:
    """Initial occupations: r in mode a, s in mode b."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError("occupations must be non-negative")


@dataclass(frozen=True)
class FockOutcome:
    """Final occupations: m in mode b, n in mode a."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("occupations must be non-negative")


@dataclass(frozen=True)
class CoherentPair:
    alpha: complex
    beta: complex

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PureAModeState:
    """Pure a-mode state sqrt(P_s) exp(i phi_s) |s>, with the b mode in vacuum."""

    probs: tuple
    phases: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to one")
        if len(self.phases) != p.size:
            raise ValueError("probs and phases must have equal length")

    @classmethod
    def poisson(cls, alpha: complex) -> "PureAModeState":
        """Poisson distribution with mean mu = |alpha|^2, cut at
        n = max(24, mu + 12 sqrt(mu + 1)) and renormalized."""
        from scipy.special import gammaln
        mu = abs(alpha) ** 2
        n = np.arange(max(24, int(mu + 12.0 * math.sqrt(mu + 1.0))) + 1)
        logp = n * math.log(mu) - gammaln(n + 1.0) - mu if mu > 0 else \
            np.where(n == 0, 0.0, -np.inf)
        p = np.exp(logp)
        p /= p.sum()
        phases = n * np.angle(alpha) if alpha != 0 else np.zeros(n.size)
        return cls(probs=tuple(p), phases=tuple(phases))


def _log_pow(base: complex, exponent: int) -> complex:
    """exponent * log(base) with the 0^0 = 1 convention; -inf magnitude for 0^k."""
    if exponent == 0:
        return 0.0
    if base == 0:
        return complex(-math.inf, 0.0)
    return exponent * cmath.log(base)


def fock_amplitude(c: WeiNormanCoefficients, initial: FockPair,
                   outcome: FockOutcome) -> complex:
    """<m, n| U_I(t) |r, s>; zero unless m = s - r + n (conserved n_a - n_b)."""
    from scipy.special import gammaln
    r, s = initial.r, initial.s
    m, n = outcome.m, outcome.n
    if m != s - r + n:
        return 0j
    prefactor = 0.5 * (gammaln(r + 1.0) + gammaln(s + 1.0)
                       + gammaln(m + 1.0) + gammaln(n + 1.0))
    k_lo = max(0, r - n)
    k_hi = min(r, s)
    total = 0j
    for k in range(k_lo, k_hi + 1):
        log_term = ((s + r + 1 - 2 * k) * c.a_zero
                    + _log_pow(c.a_minus, k)
                    + _log_pow(c.a_plus, n + k - r)
                    + prefactor
                    - gammaln(r - k + 1.0) - gammaln(s - k + 1.0)
                    - gammaln(k + 1.0) - gammaln(n + k - r + 1.0))
        if log_term.real == -math.inf:
            continue
        total += cmath.exp(log_term)
    return total


def vacuum_prob(d: DerivedScalars, n) -> float:
    """p_nn for the initial vacuum: y^n / x (diagonal outcomes only).

    ``n`` may be an integer array when the scalars are not a grid.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("n must be non-negative")
    with np.errstate(invalid="ignore"):  # y^0 = 1, also at y = 0
        return _real(np.exp(np.where(n > 0, n * d.log_y, 0.0) - d.log_x))


def fock11_prob(d: DerivedScalars, n) -> float:
    """p_nn for the initial |1,1> state: y^(n-1) (n/x - y)^2 / x.

    y^(n-1) / x is the vacuum p_(n-1)(n-1).  The n = 0 value reduces to
    y/x, the vacuum p_11 (the formal 1/y power cancels).
    """
    n = np.asarray(n)
    core = n * np.exp(-d.log_x) - d.y
    p = vacuum_prob(d, np.where(n == 0, 1, n - 1))
    return _real(np.where(n == 0, p, p * core * core))


def _amode_log_term(d: DerivedScalars, psi: PureAModeState, m, n):
    """log p_mn = log P_(n-m) + log C(n, m) + m log y - (n-m+1) log x.

    Broadcasts over integer arrays m and n and over grid scalars; -inf
    where P_(n-m) is zero or n - m is outside the distribution.
    """
    from scipy.special import gammaln
    probs = np.asarray(psi.probs, dtype=float)
    m, n = np.asarray(m), np.asarray(n)
    inside = (n >= m) & (n - m < probs.size)
    l = np.where(inside, n - m, 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0; 0 log y at y = 0
        log_p = (np.log(probs[l])
                 + (gammaln(n + 1.0) - gammaln(l + 1.0) - gammaln(m + 1.0))
                 + np.where(m > 0, m * d.log_y, 0.0) - (l + 1) * d.log_x)
    return np.where(inside, log_p, -np.inf)


def amode_prob(d: DerivedScalars, psi: PureAModeState,
               outcome: FockOutcome) -> float:
    """p_mn for |psi>_a (x) |0>_b; phase-independent by construction."""
    return _real(np.exp(_amode_log_term(d, psi, outcome.m, outcome.n)))


def reduced_density_b(d: DerivedScalars, psi: PureAModeState, m: int) -> float:
    """Diagonal b-mode reduced matrix element sum_n p_mn."""
    from scipy.special import logsumexp
    if m < 0:
        raise ValueError("m must be non-negative")
    n = m + np.arange(len(psi.probs))
    return float(np.exp(logsumexp(_amode_log_term(d, psi, m, n))))


def reduced_density_a(d: DerivedScalars, psi: PureAModeState, n: int) -> float:
    """Diagonal a-mode reduced matrix element sum_m p_mn."""
    from scipy.special import logsumexp
    if n < 0:
        raise ValueError("n must be non-negative")
    return float(np.exp(logsumexp(_amode_log_term(d, psi, np.arange(n + 1), n))))


def effective_temperature(y: float, omega: float) -> float:
    """Temperature of the thermal reduced state with exp(-omega/T) = y."""
    if y == 0.0:
        return 0.0
    if not 0.0 < y < 1.0:
        raise ValueError("require 0 <= y < 1")
    return omega / math.log(1.0 / y)


def coherent_transition_prob(c: WeiNormanCoefficients, initial: CoherentPair,
                             final: CoherentPair) -> float:
    """p_zw = |<z, w| U_I(t) |alpha, beta>|^2 with w labelling mode a, z mode b."""
    alpha, beta = initial.alpha, initial.beta
    w, z = final.alpha, final.beta
    e_a0 = np.exp(c.a_zero)
    log_p = (-(abs(z) ** 2 + abs(w) ** 2 + abs(alpha) ** 2 + abs(beta) ** 2)
             + 2.0 * np.real(c.a_zero)
             + 2.0 * np.real(c.a_plus * np.conj(w) * np.conj(z))
             + 2.0 * np.real(c.a_minus * alpha * beta)
             + 2.0 * np.real(np.conj(w) * alpha * e_a0)
             + 2.0 * np.real(np.conj(z) * beta * e_a0))
    return _real(np.exp(log_p))


def coherent_revival_prob(c: WeiNormanCoefficients,
                          pair: CoherentPair) -> tuple[float, float]:
    """Return probability p_ba(t) to the initial coherent state.

    Also returns the diagnostic |2 - exp(A0) - exp(A0*)| whose near-zeros
    locate the non-revival peaks of p_ba for irrational k^2.
    """
    return (coherent_transition_prob(c, pair, pair),
            _real(np.abs(2.0 - 2.0 * np.real(np.exp(c.a_zero)))))


def coherent_mean_numbers(c: WeiNormanCoefficients, d: DerivedScalars,
                          pair: CoherentPair) -> tuple[float, float]:
    """Mean photon numbers (mode a, mode b) for an initial coherent pair.

    <a+(t) a(t)> = |<a(t)>|^2 + |v|^2 with <a(t)> = u alpha + v conj(beta).
    """
    u, v = bogoliubov_pair(c)
    mean_a = _real(np.abs(u * pair.alpha + v * np.conj(pair.beta)) ** 2 + d.n0)
    return mean_a, mean_a + abs(pair.beta) ** 2 - abs(pair.alpha) ** 2


# -- certified normalization sums -----------------------------------------

_TAIL = 1e-12  # bound on the terms each sum leaves out (times P_l in amode_norm)


def vacuum_norm(d: DerivedScalars) -> float:
    """sum_n p_nn for the vacuum start, truncated with a geometric tail < _TAIL."""
    # tail bound: sum_{n>N} y^n/x = y^(N+1)/(x(1-y)); log(1-y) via expm1
    # so the bound survives y rounding to 1 deep below threshold
    log_one_minus_y = math.log(-math.expm1(d.log_y))
    needed = (math.log(_TAIL) + d.log_x + log_one_minus_y) / d.log_y
    if needed > 2_000_000:
        # too many terms to sum directly; the geometric sum in log form
        return math.exp(-d.log_x - log_one_minus_y
                        + math.log1p(-math.exp((int(needed) + 1) * d.log_y)))
    return float(vacuum_prob(d, np.arange(int(needed) + 2)).sum())


def _tail_n2_geom(log_y: float, n_from: int) -> float:
    """Upper bound on sum_{n >= n_from} n^2 y^n (closed form, exact)."""
    y = math.exp(log_y)
    # sum n^2 y^n over all n >= n_from via the shifted polylog identities
    n = n_from
    a = y ** n
    one = 1.0 - y
    return a * (n * n / one + (2 * n + 1) * y / one ** 2 + 2 * y * y / one ** 3
                + y / one ** 2)


def fock11_norm(d: DerivedScalars) -> float:
    """sum_n p_nn for the |1,1> start with a certified polynomial-geometric tail."""
    if d.log_y == -math.inf:
        return 1.0
    if math.exp(d.log_y) == 1.0:
        # y rounds to 1 deep below threshold; the series sums in closed form
        # to y/x + (1-y) + y^2 via the geometric moment identities
        return (math.exp(d.log_y - d.log_x) + math.exp(-d.log_x)
                + math.exp(2.0 * d.log_y))
    # p_n <= y^(n-1) * 2 (n^2/x^2 + y^2) / x; choose N so the bound tail < _TAIL
    n_max = 64
    while True:
        bound = 2.0 * math.exp(-d.log_y - 3.0 * d.log_x) \
            * _tail_n2_geom(d.log_y, n_max + 1) \
            + 2.0 * math.exp((n_max) * d.log_y)  # crude y^2 branch bound
        if bound < _TAIL or n_max > 10_000_000:
            break
        n_max *= 2
    return float(fock11_prob(d, np.arange(n_max + 1)).sum())


def amode_norm(d: DerivedScalars, psi: PureAModeState) -> float:
    """sum_{m,n} p_mn for an a-mode pure state, summed per source occupation l.

    The terms m = 0, 1, ... of source l = n - m sum to P_l analytically;
    m_max doubles until the geometric bound on the terms past it, with
    ratio y (1 + l/(m+1)) < 1, is below _TAIL * P_l.
    """
    from scipy.special import logsumexp
    total = 0.0
    for l, p_src in enumerate(psi.probs):
        if p_src == 0.0:
            continue
        m_max = 64
        while True:
            ratio = d.y * (1.0 + l / (m_max + 1.0))
            if ratio < 1.0:
                log_next = _amode_log_term(d, psi, m_max + 1, l + m_max + 1)
                if log_next - math.log1p(-ratio) < math.log(_TAIL) + math.log(p_src):
                    break
            if m_max > 50_000_000:
                break
            m_max *= 2
        m = np.arange(m_max + 1)
        total += float(np.exp(logsumexp(_amode_log_term(d, psi, m, l + m))))
    return total
