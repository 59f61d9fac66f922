import math
import re

import numpy as np
import pytest

from ndpa.model import (CoherentPair, CustomPump, HarmonicPump, ModelParams, ParityError,
                        RegimeError, RegimeTag, TabulatedPump,
                        classify_regime, coherent_revival_params,
                        fock_revival_times)


def test_derived_detuning():
    params = ModelParams(omega_a=3.0, omega_b=2.0, g=2.0, omega=9.0)
    assert params.Omega == pytest.approx(4.0)
    assert params.k == pytest.approx(1.0)
    assert params.k2 == pytest.approx(1.0)


def test_from_k2_roundtrip():
    params = ModelParams.from_k2(1.5, g=0.7, omega_a=3.0, omega_b=2.0)
    assert params.k2 == pytest.approx(1.5)
    assert params.k > 0
    neg = ModelParams.from_k2(1.5, g=0.7, omega_a=9.0, omega_b=8.0, sign=-1)
    assert neg.k == pytest.approx(-math.sqrt(1.5))


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5, math.nan])
def test_from_k2_refuses_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match=f"sign must be \\+1 or -1, got {sign}"):
        ModelParams.from_k2(1.5, sign=sign)


def test_invalid_params():
    with pytest.raises(ValueError):
        ModelParams(omega_a=3.0, omega_b=2.0, g=0.0, omega=5.0)
    with pytest.raises(ValueError):
        ModelParams(omega_a=-1.0, omega_b=2.0, g=1.0, omega=5.0)
    with pytest.raises(ValueError):
        ModelParams.from_k2(-0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_named(value):
    for name in ("omega_a", "omega_b", "g", "omega"):
        fields = {**dict(omega_a=3.0, omega_b=2.0, g=1.0, omega=5.0), name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            ModelParams(**fields)
    with pytest.raises(ValueError, match=f"k2 must be finite.*got {value}"):
        ModelParams.from_k2(value)


@pytest.mark.parametrize("omega, g", [(1e300, 1.0), (6.0, 1e-300)])
def test_params_refuse_an_overflowing_k2(omega, g):
    with pytest.raises(ValueError, match=re.escape(f"overflows at omega = {omega!r}, g = {g!r}")):
        ModelParams(omega_a=3.0, omega_b=2.0, g=g, omega=omega)


def test_regime_classification():
    mk = lambda k2: ModelParams.from_k2(k2, omega_a=3.0, omega_b=2.0)
    assert classify_regime(mk(0.5)) is RegimeTag.SUB
    assert classify_regime(mk(1.5)) is RegimeTag.SUPER
    assert classify_regime(mk(1.0)) is RegimeTag.CRITICAL
    # the epsilon band around the critical point
    assert classify_regime(mk(1.0 + 1e-9)) is RegimeTag.CRITICAL
    assert classify_regime(mk(1.0 - 1e-9)) is RegimeTag.CRITICAL
    assert classify_regime(mk(1.0 + 1e-6)) is RegimeTag.SUPER


def test_harmonic_pump_value():
    params = ModelParams.from_k2(1.5, g=0.5, omega_a=3.0, omega_b=2.0)
    pump = HarmonicPump.from_params(params)
    t = 0.73
    assert pump.value(t) == pytest.approx(0.5 * np.exp(1j * params.omega * t))
    vals = pump.value(np.array([0.0, t]))
    assert vals[0] == pytest.approx(0.5)


@pytest.mark.parametrize("g, omega, shown", [(math.nan, 1.0, "g = nan"),
                                             (1.0, math.inf, "omega = inf"),
                                             (-math.inf, 0.0, "g = -inf")])
def test_harmonic_pump_rejects_non_finite_parameters(g, omega, shown):
    with pytest.raises(ValueError, match=f"{shown} is not finite"):
        HarmonicPump(g=g, omega=omega)


@pytest.mark.parametrize("g, omega", [(0.7, 5.3), (1.0, -3.0), (2.5, 1e3), (1e-3, 0.0)])
def test_harmonic_pump_scalar_and_array_values_agree(g, omega):
    # a Python time takes the cmath path, an array the numpy one
    pump = HarmonicPump(g=g, omega=omega)
    t = np.concatenate([np.linspace(0.0, 50.0, 1001), [1e4 + 0.1]])
    got = np.array([pump.value(ti) for ti in t.tolist()])
    want = pump.value(t)
    assert type(pump.value(0.3)) is complex and type(pump.value(2)) is complex
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(want)) <= 2.0 * np.spacing(np.abs(part(want))))


def test_tabulated_pump_interpolates():
    pump = TabulatedPump(times=(0.0, 1.0, 2.0), values=(0.0, 1.0 + 1j, 2.0))
    assert pump.value(0.5) == pytest.approx(0.5 + 0.5j)
    with pytest.raises(ValueError):
        pump.value(3.0)
    with pytest.raises(ValueError):
        TabulatedPump(times=(0.0, 0.0), values=(1.0, 1.0))


@pytest.mark.parametrize("times, values, entry", [
    ((0.0, math.nan, 1.0), (1.0, 1.0, 1.0), r"times\[1\] = nan"),
    ((0.0, 1.0, math.inf), (1.0, 1.0, 1.0), r"times\[2\] = inf"),
    ((0.0, 1.0, 2.0), (1.0, complex(math.inf, 0.0), 1.0), r"values\[1\] = \(inf\+0j\)"),
    ((0.0, 1.0, 2.0), (1.0, 1.0, complex(1.0, math.nan)), r"values\[2\] = \S*nanj\S*"),
])
def test_tabulated_pump_rejects_non_finite_samples(times, values, entry):
    with pytest.raises(ValueError, match=entry + " is not finite"):
        TabulatedPump(times=times, values=values)


@pytest.mark.parametrize("times, values, shown", [
    ((0.0,), (1.0,), "need at least two pump samples"),
    (((0.0, 1.0), (2.0, 3.0)), (1.0, 1.0), "need at least two pump samples"),
    ((0.0, 1.0, 2.0), (1.0, 1.0), "times and values must have equal length"),
])
def test_tabulated_pump_refuses_a_table_it_cannot_interpolate(times, values, shown):
    with pytest.raises(ValueError, match=shown):
        TabulatedPump(times=times, values=values)


def test_tabulated_pump_rejects_non_finite_time():
    pump = TabulatedPump(times=(0.0, 1.0), values=(1.0, 2.0))
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"at t = {t}, outside"):
            pump.value(t)
    with pytest.raises(ValueError, match="at t = nan"):
        pump.value(np.array([0.5, math.nan]))


def test_tabulated_pump_range_error_names_time_and_range():
    pump = TabulatedPump(times=(0.25, 0.5, 1.0), values=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match=r"at t = 1\.5, outside the tabulated range \[0\.25, 1\.0\]"):
        pump.value(1.5)
    with pytest.raises(ValueError, match=r"at t = 0\.1, outside .* \[0\.25, 1\.0\]"):
        pump.value([0.3, 0.1, 2.0])  # the first time outside is named


def test_custom_pump():
    pump = CustomPump(fn=lambda t: 2.0 * t)
    assert pump.value(1.5) == pytest.approx(3.0)


@pytest.mark.parametrize("value, shown", [(math.nan, r"\(nan\+0j\)"),
                                          (complex(1.0, math.inf), r"\(1\+infj\)"),
                                          (-math.inf, r"\(-inf\+0j\)")])
def test_custom_pump_rejects_non_finite_values(value, shown):
    pump = CustomPump(fn=lambda t: value if t > 0.3 else 1.0)
    assert pump.value(0.3) == 1.0
    with pytest.raises(ValueError, match=f"at t = 0.5 is {shown}, not finite"):
        pump.value(0.5)
    with pytest.raises(ValueError, match=f"at t = 0.75 is {shown}, not finite"):
        pump.value(np.array([0.0, 0.75, 1.0]))  # the first bad time is named


def test_fock_revival_times():
    params = ModelParams.from_k2(1.5, g=2.0, omega_a=3.0, omega_b=2.0)
    revs = fock_revival_times(params, 3)
    period = math.pi / (2.0 * math.sqrt(0.5))
    assert [r.t_rev for r in revs] == pytest.approx([period, 2 * period,
                                                     3 * period])
    with pytest.raises(RegimeError):
        fock_revival_times(ModelParams.from_k2(0.5, omega_a=3.0, omega_b=2.0), 2)
    assert fock_revival_times(params, np.int64(2)) == revs[:2]
    for bad in (True, 2.5, 0, -1, "3"):
        with pytest.raises(ValueError, match=f"n_max must be at least 1 and an integer, "
                                             f"got {re.escape(repr(bad))}"):
            fock_revival_times(params, bad)


def test_coherent_revival_params():
    rev = coherent_revival_params(6, 4)
    assert rev.k_squared == pytest.approx(9.0 / 5.0)
    assert rev.gt_rev == pytest.approx(math.pi * math.sqrt(20.0))
    assert rev.full_revival

    with pytest.raises(ParityError):
        coherent_revival_params(3, 2)
    # the odd-parity pair is still accepted for periodicity queries
    per = coherent_revival_params(3, 2, squeezing_only=True)
    assert per.k_squared == pytest.approx(9.0 / 5.0)
    assert per.gt_rev == pytest.approx(math.pi * math.sqrt(5.0))
    assert not per.full_revival

    with pytest.raises(ValueError, match="n must be at least 4 and an integer, got 3"):
        coherent_revival_params(3, 3)
    assert coherent_revival_params(np.int64(6), np.int32(4)) == rev
    for n, p, name, bad in ((2.5, 0.5, "p", 0.5), (6.0, 4, "n", 6.0), (True, 0, "n", True),
                            (6, False, "p", False), (6, -2, "p", -2)):
        with pytest.raises(ValueError, match=f"{name} must be at least .* and an integer, "
                                             f"got {re.escape(repr(bad))}"):
            coherent_revival_params(n, p)


def test_state_types_are_defined_once():
    import ndpa
    import ndpa.amplitudes
    import ndpa.model
    for name in ("FockPair", "FockOutcome", "CoherentPair", "PureAModeState"):
        assert getattr(ndpa.amplitudes, name) is getattr(ndpa.model, name) is getattr(ndpa, name)


@pytest.mark.parametrize("alpha, beta, name, value", [
    (1e300, 0.5, "alpha", "1e+300"),
    (0.5, 2e154j, "beta", "2e+154j"),
    (complex(1e200, -1e200), 0.0, "alpha", "(1e+200-1e+200j)"),
    (np.complex128(1e160), 1.0, "alpha", "np.complex128(1e+160+0j)")])
def test_coherent_pair_refuses_a_squared_modulus_past_the_float_range(alpha, beta, name, value):
    from ndpa.oracle import coherent_state
    message = re.escape(f"|{name}|^2 must be finite, got {name} = {value}")
    with pytest.raises(ValueError, match=message):
        CoherentPair(alpha, beta)
    with pytest.raises(ValueError, match=message):
        coherent_state(40, alpha, beta)
    assert CoherentPair(1e154, 1e154j).alpha == 1e154  # |alpha|^2 = 1e308 is a float
