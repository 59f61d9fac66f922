"""References computed apart from the closed forms under test.

* ``fock_amplitude_mp`` evaluates the terminating sum behind
  ``ndpa.fock_amplitude`` with mpmath at 50 significant digits, so the
  double-precision cancellation of the package's sum does not enter it.
* ``oracle_fock`` / ``oracle_coherent`` propagate a state with the
  truncated-Fock oracle, which integrates the Schrodinger equation and
  uses no closed form; ``fock_moments`` turns a propagated state into the
  observables the CLI reports.

Every reference is computed once per run, before the timed passes.
"""

from __future__ import annotations

import math

import mpmath
import ndpa

DIGITS = 50
# an oracle reference is trusted only if this little mass sits at the cutoff edge
EDGE_LIMIT = 1e-12


def fock_amplitude_mp(c, r: int, s: int, m: int, n: int) -> complex:
    """<m, n| U |r, s> from the coefficients in ``c``, summed at 50 digits."""
    if m != s - r + n:
        return 0j
    with mpmath.workdps(DIGITS):
        ap, am, a0 = (mpmath.mpc(c.a_plus), mpmath.mpc(c.a_minus),
                      mpmath.mpc(c.a_zero))
        fac = mpmath.factorial
        total = mpmath.mpc(0)
        for k in range(max(0, r - n), min(r, s) + 1):
            total += (mpmath.exp((s + r + 1 - 2 * k) * a0) * am ** k
                      * ap ** (n + k - r)
                      / (fac(r - k) * fac(s - k) * fac(k) * fac(n + k - r)))
        return complex(total * mpmath.sqrt(fac(r) * fac(s) * fac(m) * fac(n)))


def _evolve(params, initial, t: float, cutoff: int):
    pump = ndpa.HarmonicPump.from_params(params)
    cfg = ndpa.OracleConfig(cutoff=cutoff, tol=1e-11)
    state = ndpa.evolve_truncated(pump, params, initial, t, cfg)
    edge = ndpa.edge_mass(state)
    if edge > EDGE_LIMIT:
        raise ValueError(f"oracle reference at cutoff {cutoff} has edge mass {edge:.2e}")
    return state


def oracle_fock(params, r: int, s: int, t: float):
    cutoff = 100 + 6 * (r + s)
    return _evolve(params, ndpa.fock_state(cutoff, r, s), t, cutoff)


def oracle_coherent(params, alpha: complex, beta: complex, t: float,
                    cutoff: int = 64):
    return _evolve(params, ndpa.coherent_state(cutoff, alpha, beta), t, cutoff)


def fock_moments(state) -> dict[str, float]:
    """Means, Mandel Q of mode a and the cross correlation (f, F)."""
    def moment(p, q, r, s):
        return ndpa.oracle_moment(state, p, q, r, s).real

    mean_a, mean_b = moment(1, 1, 0, 0), moment(0, 0, 1, 1)
    aa, bb = moment(2, 2, 0, 0), moment(0, 0, 2, 2)
    f_value = math.sqrt(max(aa, 0.0)) * math.sqrt(max(bb, 0.0)) - moment(1, 1, 1, 1)
    return {"mean_a": mean_a, "mean_b": mean_b,
            "mandel_q": (aa - mean_a * mean_a) / mean_a,
            "f": f_value, "F": f_value / math.sqrt(mean_a * mean_b)}
