"""Model parameters, regime classification, pump profiles and revival times.

The two modes (signal ``a``, idler ``b``) are coupled by a classical pump
``g(t)``.  For the harmonic pump ``g(t) = g exp(i w t)`` the whole dynamics
is governed by the detuning ``Omega = omega - omega_a - omega_b`` and the
dimensionless ratio ``k = Omega / (2 g)``.
"""

from __future__ import annotations

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
        """Construct parameters from k^2 >= 0; the sign of k defaults to +."""
        if not 0 <= k2 < math.inf:
            raise ValueError(f"k2 must be finite and non-negative, got {k2!r}")
        return cls(omega_a=omega_a, omega_b=omega_b, g=g,
                   omega=omega_a + omega_b + 2.0 * g * sign * math.sqrt(k2))


class RegimeTag(enum.Enum):
    SUB = "sub"
    CRITICAL = "critical"
    SUPER = "super"


def _regime_split(k2):
    """(below, above) masks of k^2 outside the critical band 1 +- eps."""
    return k2 < 1.0 - DEFAULT_REGIME_EPS, k2 > 1.0 + DEFAULT_REGIME_EPS


def classify_regime(params: ModelParams) -> RegimeTag:
    """Classify the dynamics by k^2 relative to the critical value 1."""
    sub, sup = _regime_split(params.k2)
    return RegimeTag.SUB if sub else RegimeTag.SUPER if sup else RegimeTag.CRITICAL


# -- pump profiles --------------------------------------------------------


@dataclass(frozen=True)
class HarmonicPump:
    """g(t) = g * exp(i * omega * t)."""

    g: float
    omega: float

    def value(self, t):
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
        if np.any(np.diff(t) <= 0):
            raise ValueError("pump sample times must be strictly increasing")
        if len(self.values) != t.size:
            raise ValueError("times and values must have equal length")
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "_arrays", (t, vals.real.copy(), vals.imag.copy()))

    def value(self, t):
        times, re, im = self._arrays
        t = np.asarray(t, dtype=float)
        if ((t < times[0]) | (t > times[-1])).any():
            raise ValueError("pump evaluated outside tabulated range")
        return np.interp(t, times, re) + 1j * np.interp(t, times, im)


@dataclass(frozen=True)
class CustomPump:
    """Arbitrary pump defined by a callable t -> complex."""

    fn: Callable[[float], complex]

    def value(self, t):
        if np.ndim(t) == 0:
            return complex(self.fn(float(t)))
        return np.array([complex(self.fn(float(ti))) for ti in np.ravel(t)]).reshape(np.shape(t))


PumpProfile = HarmonicPump | TabulatedPump | CustomPump


# -- revival predictions ---------------------------------------------------


@dataclass(frozen=True)
class RevivalSpec:
    """A predicted revival time; p is set only for the coherent case."""

    n: int
    t_rev: float
    p: int | None = None


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
