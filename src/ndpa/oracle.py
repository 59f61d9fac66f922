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
M = V diag(lam) V^T, z(t) = S V exp(i lam t) V^T S^-1 z(0).  V and exp(i lam t) are found
once per |q| per call, off one array of every |q|'s couplings, and shared by the blocks q
and -q of every start of the call (``evolve_starts``); every block takes its gauge and frame
phases, s^-j and exp(i W j t) s^j, off one array of each over j = 0..cutoff; each block
keeps its own product.
Any other pump is integrated by ``_integrate``, the stretch loop behind ``solve_ode``'s
grid ``AnalyticSolution`` too, with all blocks zero-padded to cutoff + 1 entries and
raveled into one flat row.  One flat coefficient array serves K- and, one slot down, K+; it
holds 0 at each block's last entry and in the padding, so no amplitude crosses a block
edge.  On each kink-free stretch, where a tabulated pump is linear, ``_dop853`` steps the
Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10) on scipy's
``DOP853`` tableau, copied here, and step-size control but no solver object, keeping only
the current state; an output time inside comes off the 7th-order interpolant of its step
(3 more RHS calls).  A failed step or a non-finite state raises ``IntegrationError``.

A start is validated by ``model``'s state types and built by ``_product_state``, which
weighs every charge in one correlation of |a|^2 and |b|^2 and drops each block of weight
<= 1e-16 into ``norm_deficit``; neither it nor the ODE path loads scipy.  The harmonic
path calls LAPACK's divide-and-conquer ``dstevd`` from ``scipy.linalg``, which
``__getattr__`` (PEP 562) imports on its first read and the path reads through the module,
as rebound; so is scipy's ``solve_ivp``, which tracers rebind.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (CoherentPair, FockPair, HarmonicPump, ModelParams, PumpProfile,
                    PureAModeState, TabulatedPump, _integer, _log_poisson)


# scipy primitives imported on first read and kept as module globals, so that they can be
# rebound; solve_ivp is not called here (and loads scipy.integrate): tracers rebind it
_LAZY = {"solve_ivp": "scipy.integrate", "dstevd": "scipy.linalg.lapack"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_LAZY[name], fromlist=[name]), name)
    return value


class TruncationError(RuntimeError):
    """The start's norm lies past the cutoff, or no cutoff converged; increase the cutoff."""


class IntegrationError(RuntimeError):
    """The integrator failed on a stretch, naming it and the reason, or moved the norm."""


_TAIL_LIMIT = 1e-9  # largest norm deficit of a start, and largest norm drift in evolution


@dataclass(frozen=True)
class OracleConfig:
    cutoff: int = 32
    tol: float = 1e-11

    def __post_init__(self):
        _integer("cutoff", self.cutoff, 4)
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


def _pair_amplitudes(cutoff: int, q) -> np.ndarray:
    """<j+1| K+ |j> = sqrt((n_a+1)(n_b+1)) within block q, for j = 0..dim-2; for an array of
    charges, a row per charge over j = 0..cutoff-1, of which block q reads the first dim-1."""
    q = np.asarray(q)
    if np.any(np.abs(q) > cutoff):
        raise ValueError("block charge exceeds cutoff")
    j, q = np.arange(cutoff - abs(q) if q.ndim == 0 else cutoff), q[..., None]
    return np.sqrt((j + np.maximum(q, 0) + 1.0) * (j + np.maximum(-q, 0) + 1.0))


def _product_state(cutoff: int, a: np.ndarray, b: np.ndarray) -> TruncatedState:
    """|a> (x) |b> from amplitudes a[n_a], b[n_b], n = 0..cutoff, over the charges their
    supports reach; a block of weight <= 1e-16 is dropped, its weight left to norm_deficit."""
    state = TruncatedState(cutoff=cutoff)
    # the weight of block q = n_a - n_b, sum_n |a[n + q] b[n]|^2, at index q + b.size - 1
    weight = np.correlate(np.abs(a) ** 2, np.abs(b) ** 2, "full")
    for q in (np.flatnonzero(weight > 1e-16) - (b.size - 1)).tolist():
        state.blocks[q] = a[q:] * b[:b.size - q] if q >= 0 else a[:a.size + q] * b[-q:]
    state.norm_deficit = max(0.0, 1.0 - state.total_norm())
    return state


def fock_state(cutoff: int, r: int, s: int) -> TruncatedState:
    if not (0 <= r <= cutoff and 0 <= s <= cutoff):
        raise ValueError(f"initial occupations ({r}, {s}) outside 0..{cutoff}")
    f, n = FockPair(r, s), np.arange(cutoff + 1)
    return _product_state(cutoff, (n == f.r).astype(complex), (n == f.s).astype(complex))


def _coherent_amps(alpha: complex, n: np.ndarray) -> np.ndarray:
    """<n|alpha> over the occupations n: the root of the Poisson weight, with phase."""
    return np.exp(0.5 * _log_poisson(alpha, n)) * np.exp(1j * n * np.angle(alpha))


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


def _propagate_harmonic(pump: HarmonicPump, w: float, starts, t):
    """Exact propagation of every block of every start; w is W of the module docstring."""
    turn = 0.5 * np.pi - np.angle(pump.g)  # arg s of the gauge s = i conj(g)/|g|
    cut, j = starts[0].cutoff, np.arange(starts[0].cutoff + 1)
    # the gauge and frame phases of level j; block q takes the first cut + 1 - |q| of them
    gauge, frame = np.exp(-1j * turn * j), np.exp(1j * (w * t + turn) * j)
    charges = sorted({abs(q) for start in starts for q in start.blocks})
    shared = {}  # what blocks q and -q of every start share: V and exp(i lam t)
    for a, e in zip(charges, abs(pump.g) * _pair_amplitudes(cut, charges)):
        lam, v = _tridiagonal_eigh(-w * j[:cut + 1 - a], e[:cut - a])
        shared[a] = v, np.exp(1j * lam * t)

    def rotate(q, vec):  # each block keeps its own product
        (v, spin), n = shared[abs(q)], vec.size
        return frame[:n] * (v @ (spin * (v.T @ (gauge[:n] * vec))))

    return [{q: rotate(q, vec) for q, vec in start.blocks.items()} for start in starts]


# The Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10) as
# scipy's DOP853 carries it, each entry the shortest repr of its double: the nodes _C; the
# weights _A, its strict lower triangle in row order: 12 stages, the step's end (row 12) and
# the interpolant's 3 extra stages; the 5th- and 3rd-order error rows _E; the dense rows _D
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
      0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778)
_A = np.zeros((16, 16), complex)
_A[np.tril_indices(16, -1)] = [0.05260015195876773, 0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0, 0.08876275643042054, 0.2413651341592667, 0, -0.8845494793282861,
    0.924834003261792, 0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023, 0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0,
    -2.4881146199716677, -0.590290826836843, 21.230051448181193, 15.279233632882423,
    -33.28821096898486, -0.020331201708508627, -0.9371424300859873, 0, 0, 5.186372428844064,
    1.0914373489967295, -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196, 2.273310147516538, 0, 0, -10.53449546673725,
    -2.0008720582248625, -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0,
    0, 4.450312892752409, 1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0, 0,
    0, 0, 0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
    0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
    -0.00034046500868740456, 0.1413124436746325, -0.42889630158379194, 0, 0, 0, 0,
    -4.697621415361164, 7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
    -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
_E = np.reshape([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0, -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082, 0], (2, 13))
_D = np.reshape([-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
    2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
    0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
    -4.436036387594894, 10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
    -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
    -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
    35.81684148639408, 19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
    527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
    0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
    11.99229113618279, -25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
    357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
    29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
    -149.72683625798564], (4, 16))


def _dop853(fun, t0, y, t1, times, rtol, atol):
    """Step y' = fun(t, y) from y(t0) = y to t1 on the tableau above, first trying one step;
    the states at ``times``, the monotone output times in (t0, t1], and the end state."""
    k, way = np.empty((16, y.size), complex), math.copysign(1, t1 - t0)
    k[0], got, t, h_abs = fun(t0, y), [], t0, abs(t1 - t0)
    due = [s for s in times if s != t1]

    def failed(reason):  # the stretch label is formatted only on failure
        return IntegrationError(f"integrator failed on [{t0:.6g}, {t1:.6g}]: {reason}")

    def stages(first, last):  # stages first, ..., last - 1 of the step h from (t, y)
        for s in range(first, last):
            k[s] = fun(t + _C[s] * h, z := y + np.dot(ah[s, :s], k[:s]))
        return z

    while t != t1:
        min_step = 10 * abs(math.nextafter(t, way * math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise failed("Required step size is less than spacing between numbers.")
            t_new = t1 if way * (t + way * h_abs - t1) > 0 else t + way * h_abs
            h, h_abs = t_new - t, abs(t_new - t)
            ah = _A * h
            y_new = stages(1, 13)  # row 12 is the step's end
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            r = np.dot(_E, k[:13]) / scale  # e5, e3: np.linalg.norm(r, axis=1) ** 2, unwrapped
            e5, e3 = np.sqrt(np.add.reduce((r.conj() * r).real, axis=1)) ** 2
            err = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * y.size) if e5 or e3 else 0.0
            factor = 0.9 * err ** -0.125 if err else 10.0
            if err < 1:  # grow the step at most 10-fold, and not after a rejection
                h_abs *= min(1.0 if rejected else 10.0, factor)
                break
            h_abs, rejected = h_abs * max(0.2, factor), True
        n = next((i for i in range(len(got), len(due)) if (due[i] - t_new) * way > 0), len(due))
        if n > len(got):  # this step holds output times: its 7th-order interpolant
            stages(13, 16)
            # in units 2^e > max(|y|, |y_new|) of each component, e clipped so that 2^-e is a
            # normal float: exact, the interpolant being linear in each, and h D K stays finite
            e = np.frexp(np.maximum(np.abs(y), np.abs(y_new)))[1]
            s = np.ldexp(1.0, -np.clip(e, -1021, 1021))
            dy, ks, x, out = (y_new - y) * s, k * s, (np.array(due[len(got):n])[:, None] - t) / h, 0
            rows = [dy, h * ks[0] - dy, 2 * dy - h * (ks[12] + ks[0]), *h * np.dot(_D, ks)]
            for i, row in enumerate(reversed(rows)):
                out = (out + row) * (x if i % 2 == 0 else 1 - x)
            got.extend((out + y * s) / s)
        t, y, k[0] = t_new, y_new, k[12]
    if not (np.isfinite(y).all() and all(np.isfinite(state).all() for state in got)):
        raise failed("the state is not finite")  # a step may be accepted on nan
    return got + [y] * (t1 in times), y


def _integrate(pump: PumpProfile, wsum: float, f, y0: np.ndarray, times, rtol, atol):
    """States of y' = f(G(t), y), y(0) = y0, G(t) = g(t) exp(-i wsum t), at the monotone
    float list ``times`` from 0 to its end, by ``_dop853`` on each kink-free stretch, which
    is handed only its own slice of ``times``."""
    end = times[-1]

    def rhs(time, y):
        g = line[0] + line[1] * (time - line[2]) if tabulated else pump.value(time)
        return f(g * cmath.exp(-1j * wsum * time), y)

    # each kink ends a stretch: stepping across one costs rejected steps and accuracy
    tabulated = isinstance(pump, TabulatedPump)
    kinks = np.asarray(pump.times) if tabulated else np.empty(0)
    knots = [0.0, *kinks[(kinks > 0.0) & (kinks < end)].tolist(), end] if end else [0.0]
    ends = pump.value(knots).tolist() if tabulated else None  # g is straight between knots
    if rtol < 100 * np.finfo(float).eps:  # scipy's floor, with its warning
        rtol = 100 * np.finfo(float).eps
        warnings.warn(f"At least one element of `rtol` is too small. Setting `rtol = "
                      f"np.maximum(rtol, {rtol})`.", stacklevel=3)
    cuts = np.searchsorted(np.abs(times), np.abs(knots), "right").tolist()  # |times| ascends
    y, states = y0, [y0] * cuts[0]
    for i, (t0, t1) in enumerate(zip(knots, knots[1:])):
        if tabulated:  # (g0, slope, t0) on this stretch
            line = (ends[i], (ends[i + 1] - ends[i]) / (t1 - t0), t0)
        got, y = _dop853(rhs, t0, y, t1, times[cuts[i]:cuts[i + 1]], rtol, atol)
        states.extend(got)
    return states


def _propagate_ode(pump: PumpProfile, wsum: float, initial: TruncatedState, t, tol):
    """All blocks as one flat ODE system (module docstring) on the stretches of ``_integrate``."""
    up = np.zeros((len(initial.blocks), initial.cutoff + 1))  # <k| K- |k+1> = <k+1| K+ |k>
    y = np.zeros_like(up, dtype=complex)
    amps = _pair_amplitudes(initial.cutoff, list(initial.blocks))
    for row, vec in enumerate(initial.blocks.values()):
        up[row, :vec.size - 1], y[row, :vec.size] = amps[row, :vec.size - 1], vec
    up = up.ravel()[:-1]  # 0 at each block's last entry and in the padding
    pairs = np.zeros((2, up.size + 1), dtype=complex)  # K- y and K+ y, their slots kept 0
    weights = np.empty(2, dtype=complex)  # (G, -conj G)

    def rhs(gt, y):
        np.multiply(up, y[1:], out=pairs[0, :-1])
        np.multiply(up, y[:-1], out=pairs[1, 1:])
        weights[0], weights[1] = gt, -gt.conjugate()
        return np.dot(weights, pairs)

    y = _integrate(pump, wsum, rhs, y.ravel(), [float(t)], tol, tol * 1e-2)[-1].reshape(y.shape)
    return {q: y[row, :vec.size].copy() for row, (q, vec) in enumerate(initial.blocks.items())}


def _evolve(pump: PumpProfile, params: ModelParams, starts, t: float, cfg: OracleConfig,
            numbered: bool) -> list[TruncatedState]:
    """Each of ``starts`` at time t; a refused start is named by its position if numbered."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    at = [f"starts[{i}]: " if numbered else "" for i in range(len(starts))]
    for where, start in zip(at, starts):
        if start.cutoff != cfg.cutoff:
            raise ValueError(f"{where}the start's cutoff {start.cutoff} differs from "
                             f"cfg.cutoff = {cfg.cutoff}")
        if start.norm_deficit > _TAIL_LIMIT:
            raise TruncationError(f"{where}initial norm deficit {start.norm_deficit:.3e} "
                                  f"exceeds {_TAIL_LIMIT:.0e}")
    if t == 0.0:
        return [replace(start, blocks={q: v.copy() for q, v in start.blocks.items()})
                for start in starts]
    wsum = params.omega_a + params.omega_b
    if isinstance(pump, HarmonicPump):
        evolved = _propagate_harmonic(pump, wsum - pump.omega, starts, t)
    else:
        evolved = [_propagate_ode(pump, wsum, start, t, cfg.tol) for start in starts]
    results = []
    for where, start, blocks in zip(at, starts, evolved):
        result = TruncatedState(cutoff=start.cutoff, blocks=blocks)
        result.norm_deficit = max(0.0, 1.0 - (norm := result.total_norm()))
        if abs(drift := norm - (1.0 - start.norm_deficit)) > _TAIL_LIMIT:
            raise IntegrationError(f"{where}the norm drifted by {drift:+.3e} past "
                                   f"{_TAIL_LIMIT:.0e} in evolution; decrease cfg.tol = "
                                   f"{cfg.tol:.0e}")
        results.append(result)
    return results


def evolve_truncated(pump: PumpProfile, params: ModelParams,
                     initial: TruncatedState, t: float,
                     cfg: OracleConfig = OracleConfig()) -> TruncatedState:
    """Solve i d/dt psi = H_I(t) psi for every charge block up to time t.

    Exact for a ``HarmonicPump``: one eigendecomposition per |q| of the gauged
    rotating-frame generator per call (module docstring), shared by every start of the
    call (see ``evolve_starts``); ``cfg.tol`` unused.
    Other pumps: ``_integrate`` at relative tolerance ``cfg.tol``.  The start must
    be built at ``cfg.cutoff``, with a norm deficit of at most 1e-9; an evolved norm that
    drifts from the start's by more, as only the integrator can, is an ``IntegrationError``.
    """
    return _evolve(pump, params, [initial], t, cfg, numbered=False)[0]


def evolve_starts(pump: PumpProfile, params: ModelParams, starts, t: float,
                  cfg: OracleConfig = OracleConfig()) -> list[TruncatedState]:
    """``evolve_truncated`` of each of ``starts``, bit for bit, in one call: a
    ``HarmonicPump`` diagonalizes each |q| of all the starts once, any other pump integrates
    each start alone.  An empty sequence is refused; a refused start is named by position."""
    if not (starts := list(starts)):
        raise ValueError("starts is empty")
    return _evolve(pump, params, starts, t, cfg, numbered=True)


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
