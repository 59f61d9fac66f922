import math

import numpy as np
import pytest

from ndpa.model import (CustomPump, HarmonicPump, ModelParams, ParityError,
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


def test_tabulated_pump_interpolates():
    pump = TabulatedPump(times=(0.0, 1.0, 2.0), values=(0.0, 1.0 + 1j, 2.0))
    assert pump.value(0.5) == pytest.approx(0.5 + 0.5j)
    with pytest.raises(ValueError):
        pump.value(3.0)
    with pytest.raises(ValueError):
        TabulatedPump(times=(0.0, 0.0), values=(1.0, 1.0))


def test_custom_pump():
    pump = CustomPump(fn=lambda t: 2.0 * t)
    assert pump.value(1.5) == pytest.approx(3.0)


def test_fock_revival_times():
    params = ModelParams.from_k2(1.5, g=2.0, omega_a=3.0, omega_b=2.0)
    revs = fock_revival_times(params, 3)
    period = math.pi / (2.0 * math.sqrt(0.5))
    assert [r.t_rev for r in revs] == pytest.approx([period, 2 * period,
                                                     3 * period])
    with pytest.raises(RegimeError):
        fock_revival_times(ModelParams.from_k2(0.5, omega_a=3.0, omega_b=2.0), 2)


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

    with pytest.raises(ValueError):
        coherent_revival_params(3, 3)
