"""Model parameters, regime classification, pump profiles, start states, revival times.

The two modes (signal ``a``, idler ``b``) are coupled by a classical pump
``g(t)``.  For the harmonic pump ``g(t) = g exp(i w t)`` the whole dynamics
is governed by the detuning ``Omega = omega - omega_a - omega_b`` and the
dimensionless ratio ``k = Omega / (2 g)``.

The start states ``FockPair``, ``CoherentPair`` and ``PureAModeState`` refuse bad input
with a ValueError that names it; the closed forms and the oracle both validate by them.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class RegimeError(ValueError):
    """Raised when an operation is requested outside its dynamical regime."""


class ParityError(ValueError):
    """Raised when (n, p) revival integers have different parity."""


DEFAULT_REGIME_EPS = 1e-8


def _require_finite(name: str, arr) -> None:
    """Refuse a nan or infinite value, naming the first one (by flat index in an array)."""
    if not np.isfinite(arr).all():
        bad = np.flatnonzero(~np.isfinite(arr))[0]
        where = f"[{bad}]" if np.ndim(arr) else ""
        raise ValueError(f"{name}{where} = {np.ravel(arr)[bad]} is not finite")


@dataclass(frozen=True)
class ModelParams:
    """Primitive model parameters; Omega and k are always derived."""

    omega_a: float
    omega_b: float
    g: float
    omega: float

    def __post_init__(self):
        for name in ("omega_a", "omega_b", "g", "omega"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.g <= 0:
            raise ValueError("pump amplitude g must be positive")
        if self.omega_a <= 0 or self.omega_b <= 0:
            raise ValueError("mode frequencies must be positive")

    @property
    def Omega(self) -> float:
        return self.omega - self.omega_a - self.omega_b

    @property
    def k(self) -> float:
        return self.Omega / (2.0 * self.g)

    @property
    def k2(self) -> float:
        return self.k * self.k

    @classmethod
    def from_k2(cls, k2: float, g: float = 1.0, omega_a: float = 1.0,
                omega_b: float = 1.0, sign: int = 1) -> "ModelParams":
        """Construct parameters from k^2 >= 0; the sign of k, +1 or -1, defaults to +."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if not 0 <= k2 < math.inf:
            raise ValueError(f"k2 must be finite and non-negative, got {k2!r}")
        return cls(omega_a=omega_a, omega_b=omega_b, g=g,
                   omega=omega_a + omega_b + 2.0 * g * sign * math.sqrt(k2))


class RegimeTag(enum.Enum):
    SUB = "sub"
    CRITICAL = "critical"
    SUPER = "super"


def classify_regime(params: ModelParams) -> RegimeTag:
    """Classify the dynamics by k^2 relative to the critical value 1, with the band
    1 +- eps tagged critical (the closed forms split at k^2 = 1 exactly)."""
    if params.k2 < 1.0 - DEFAULT_REGIME_EPS:
        return RegimeTag.SUB
    return RegimeTag.SUPER if params.k2 > 1.0 + DEFAULT_REGIME_EPS else RegimeTag.CRITICAL


# -- pump profiles --------------------------------------------------------


@dataclass(frozen=True)
class HarmonicPump:
    """g(t) = g * exp(i * omega * t)."""

    g: float
    omega: float

    def __post_init__(self):
        for name in ("g", "omega"):
            _require_finite(name, getattr(self, name))

    def value(self, t):
        if isinstance(t, (int, float)):  # one per ODE right-hand side call: cmath is ~6x faster
            return self.g * cmath.exp(1j * self.omega * t)
        return self.g * np.exp(1j * self.omega * np.asarray(t, dtype=float))

    @classmethod
    def from_params(cls, params: ModelParams) -> "HarmonicPump":
        return cls(g=params.g, omega=params.omega)


@dataclass(frozen=True)
class TabulatedPump:
    """Complex pump samples on a strictly increasing time grid.

    Values are interpolated linearly (separately in the real and
    imaginary parts); evaluation outside the grid is an error.
    """

    times: tuple
    values: tuple
    _arrays: tuple = field(init=False, repr=False, compare=False)  # times, re, im

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two pump samples")
        if len(self.values) != t.size:
            raise ValueError("times and values must have equal length")
        vals = np.asarray(self.values, dtype=complex)
        _require_finite("pump sample times", t)
        _require_finite("pump sample values", vals)
        if np.any(np.diff(t) <= 0):
            raise ValueError("pump sample times must be strictly increasing")
        object.__setattr__(self, "_arrays", (t, vals.real.copy(), vals.imag.copy()))

    def value(self, t):
        times, re, im = self._arrays
        t = np.asarray(t, dtype=float)
        inside = (t >= times[0]) & (t <= times[-1])  # False at nan
        if not inside.all():
            raise ValueError(f"pump evaluated at t = {t[~inside].flat[0]}, outside the "
                             f"tabulated range [{times[0]}, {times[-1]}]")
        return np.interp(t, times, re) + 1j * np.interp(t, times, im)


@dataclass(frozen=True)
class CustomPump:
    """Arbitrary pump defined by a callable t -> complex."""

    fn: Callable[[float], complex]

    def value(self, t):
        if np.ndim(t) != 0:
            return np.array([self.value(ti) for ti in np.ravel(t)]).reshape(np.shape(t))
        value = complex(self.fn(float(t)))
        if not cmath.isfinite(value):
            raise ValueError(f"pump value at t = {t} is {value}, not finite")
        return value


PumpProfile = HarmonicPump | TabulatedPump | CustomPump


# -- start states and outcomes ---------------------------------------------


def _occupation(name: str, value, arrays: bool = True):
    """``value`` as a non-negative int, or (if ``arrays``) an int64 array of
    them; anything else, bools and integral floats included, raises a
    ValueError that names it."""
    if type(value) is int and value >= 0:
        return value
    v = np.asarray(value)
    if v.dtype.kind in "iu" and (arrays or not v.ndim) and not np.any(v < 0):
        return int(v) if not v.ndim else v.astype(np.int64, copy=False)
    raise ValueError(f"occupation {name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True, slots=True, init=False)
class FockPair:
    """Initial occupations: r in mode a, s in mode b."""

    r: int
    s: int

    def __init__(self, r: int, s: int):
        if type(r) is not int or type(s) is not int or r < 0 or s < 0:  # exact ints pass
            r, s = _occupation("r", r, arrays=False), _occupation("s", s, arrays=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True, slots=True, init=False)
class FockOutcome:
    """Final occupations: m in mode b, n in mode a; integer arrays name
    several outcomes at once."""

    m: int
    n: int

    def __init__(self, m: int, n: int):
        if type(m) is not int or type(n) is not int or m < 0 or n < 0:  # exact ints pass
            m, n = _occupation("m", m), _occupation("n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class CoherentPair:
    alpha: complex
    beta: complex

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            modulus = math.hypot(value.real, value.imag)
            if not math.isfinite(modulus * modulus):  # |alpha|^2 enters every closed form
                raise ValueError(f"|{name}|^2 must be finite, got {name} = {value!r}")


POISSON_MAX_ALPHA = 100.0


@dataclass(frozen=True)
class PureAModeState:
    """Pure a-mode state sqrt(P_s) exp(i phi_s) |s>, with the b mode in vacuum."""

    probs: tuple
    phases: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        _require_finite("probs", p)
        _require_finite("phases", np.asarray(self.phases, dtype=float))
        if np.any(p < 0):
            bad = np.flatnonzero(p < 0)[0]
            raise ValueError(f"probabilities must be non-negative, got probs[{bad}] = {p[bad]}")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to one, got {p.sum()}")
        if len(self.phases) != p.size:
            raise ValueError("probs and phases must have equal length")

    @classmethod
    def poisson(cls, alpha: complex) -> "PureAModeState":
        """Poisson distribution with mean mu = |alpha|^2, cut at
        n = max(24, mu + 12 sqrt(mu + 1)) and renormalized.

        |alpha| may be at most POISSON_MAX_ALPHA = 100, a support of at
        most 11 201 occupations."""
        if not abs(alpha) <= POISSON_MAX_ALPHA:  # refuses nan and inf too
            raise ValueError(f"alpha must be finite with |alpha| <= "
                             f"{POISSON_MAX_ALPHA:g}, got {alpha!r}")
        mu = abs(alpha) ** 2
        n = np.arange(max(24, int(mu + 12.0 * math.sqrt(mu + 1.0))) + 1)
        log_fact = np.array([math.lgamma(k + 1.0) for k in n.tolist()])
        logp = n * math.log(mu) - log_fact - mu if mu > 0 else \
            np.where(n == 0, 0.0, -np.inf)
        p = np.exp(logp)
        p /= p.sum()
        phases = n * np.angle(alpha) if alpha != 0 else np.zeros(n.size)
        return cls(probs=tuple(p), phases=tuple(phases))


# -- revival predictions ---------------------------------------------------


@dataclass(frozen=True)
class RevivalSpec:
    """A predicted revival time."""

    n: int
    t_rev: float


def fock_revival_times(params: ModelParams, n_max: int) -> list[RevivalSpec]:
    """Fock-state revival times n*pi / (g*sqrt(k^2-1)); requires k^2 > 1."""
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    k2 = params.k2
    if k2 <= 1.0:
        raise RegimeError("Fock revivals exist only for k^2 > 1")
    period = math.pi / (params.g * math.sqrt(k2 - 1.0))
    return [RevivalSpec(n=n, t_rev=n * period) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class CoherentRevival:
    """Rational-detuning revival data for coherent states.

    ``full_revival`` is True only when (n, p) have equal parity and p >= 1;
    otherwise only the pair-correlation factor of the return probability is
    periodic (enough for squeezing-kernel periodicity, not for a full
    return to probability one).
    """

    n: int
    p: int
    k_squared: float
    gt_rev: float
    full_revival: bool


def coherent_revival_params(n: int, p: int,
                            squeezing_only: bool = False) -> CoherentRevival:
    """k^2 = 1/(1-(p/n)^2) and g*t_rev = pi*sqrt(n^2-p^2) for integers n > p >= 0."""
    if p < 0 or p >= n:
        raise ValueError("require n > p >= 0")
    parity_ok = (n - p) % 2 == 0
    if not parity_ok and not squeezing_only:
        raise ParityError(f"n={n} and p={p} must have equal parity for a full revival")
    ratio = p / n
    k_squared = 1.0 / (1.0 - ratio * ratio)
    gt_rev = math.pi * math.sqrt(n * n - p * p)
    return CoherentRevival(n=n, p=p, k_squared=k_squared, gt_rev=gt_rev,
                           full_revival=parity_ok and p >= 1)
