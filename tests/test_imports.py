"""What a fresh interpreter loads: scipy only on the paths that call it.

Each test runs its code in a new interpreter, so that nothing an earlier
test imported into this one hides an import the package makes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ndpa

SRC = str(Path(ndpa.__file__).resolve().parents[1])


def run_fresh(code: str):
    """Run ``code`` in a new interpreter that imports ndpa from this tree;
    returns what it printed as JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_verbs_load_no_scipy(tmp_path):
    loaded = run_fresh(f"""
import json, sys
import ndpa, ndpa.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = ["--out", {str(tmp_path / "out.csv")!r}]
loaded = {{"import": scipy_modules()}}
for argv in (["figure", "fig6"], ["figure", "fig3"], ["evolve", "--steps", "11"],
             ["observable", "--name", "mandel_q", "--initial", "coherent:1,1",
              "--steps", "11"],
             ["prob", "--initial", "fock:8,6", "--m", "7", "--n", "9"],
             ["prob", "--initial", "poisson:0.85", "--m", "1", "--n", "2"]):
    assert ndpa.cli.main(argv + out) == 0, argv
    loaded[argv[0]] = scipy_modules()  # sys.modules only grows: the last run counts
# one outcome at Jacobi degree R <= 1, then one outcome array of any degree
params = ndpa.ModelParams.from_k2(1.5, omega_a=3.0, omega_b=2.0)
c = ndpa.solve_analytic(params, 1.0)
for start, outcome in ((ndpa.FockPair(0, 0), ndpa.FockOutcome(3, 3)),
                       (ndpa.FockPair(2, 1), ndpa.FockOutcome(1, 2)),
                       (ndpa.FockPair(7, 4), ndpa.FockOutcome(range(0, 9), range(3, 12)))):
    ndpa.fock_amplitude(c, start, outcome)
loaded["fock_amplitude"] = scipy_modules()
# an outcome x time table up to degree 7
table = ndpa.fock_amplitude(ndpa.solve_analytic(params, [0.5, 1.0, 2.0]), ndpa.FockPair(7, 4),
                            ndpa.FockOutcome(range(0, 9), range(3, 12)))
assert table.shape == (9, 3)
loaded["table"] = scipy_modules()
print(json.dumps(loaded))
""")
    assert loaded == {"import": [], "figure": [], "evolve": [], "observable": [],
                      "prob": [], "fock_amplitude": [], "table": []}


def test_oracle_stepper_stays_rebindable_and_solve_ivp_loads_on_first_read():
    # call counters rebind ndpa.oracle._dop853, and perfbench's tracer rebinds
    # ndpa.oracle.solve_ivp, which only its first read imports; the ODE path loads
    # no scipy.integrate, and every stretch runs whatever _dop853 holds when it runs
    result = run_fresh("""
import json, sys
import numpy as np
from ndpa import oracle
from ndpa.model import HarmonicPump, ModelParams, TabulatedPump
from ndpa.observables import squeezing_extrema
from ndpa.weinorman import solve_analytic, solve_ode

unloaded = "scipy.integrate" not in sys.modules
calls, stepper = [], oracle._dop853

def counted(fun, t0, y, t1, *args):
    calls.append([t0, t1])
    return stepper(fun, t0, y, t1, *args)

setattr(oracle, "_dop853", counted)
params = ModelParams.from_k2(1.5, g=1.0, omega_a=3.0, omega_b=2.0)
pump = HarmonicPump.from_params(params)
times = (0.0, 0.5, 1.0)
tab = TabulatedPump(times=times, values=tuple(pump.value(np.array(times))))
oracle.evolve_truncated(tab, params, oracle.fock_state(12, 1, 0), 1.0,
                        oracle.OracleConfig(cutoff=12))
grid = np.linspace(0.0, 2.0, 5)
numeric = solve_ode(pump, params, grid)
exact = solve_analytic(params, grid)
still_unloaded = "scipy.integrate" not in sys.modules and "solve_ivp" not in vars(oracle)
import scipy.integrate
print(json.dumps({
    "unloaded": unloaded and still_unloaded,
    "solve_ivp_is_scipy": oracle.solve_ivp is scipy.integrate.solve_ivp,
    "calls": calls,
    "ode_error": max(abs(c.a_plus - e) for c, e in zip(numeric, exact.a_plus)),
    "minima": len(squeezing_extrema(params, 0.0, (0.0, 10.0), n_grid=401)),
}))
""")
    assert result["unloaded"] and result["solve_ivp_is_scipy"]
    assert result["calls"] == [[0.0, 0.5], [0.5, 1.0], [0.0, 2.0]]  # oracle, then solve_ode
    assert result["ode_error"] < 1e-8
    assert result["minima"] > 0


def test_ode_path_loads_no_scipy():
    # solve_ode and the oracle under tabulated and custom pumps step the tableau
    # that ndpa.oracle carries, so they import no scipy module at all
    loaded = run_fresh("""
import json, sys
import numpy as np
from ndpa.model import CustomPump, HarmonicPump, ModelParams, TabulatedPump
from ndpa.oracle import OracleConfig, coherent_state, evolve_truncated, fock_state
from ndpa.weinorman import solve_ode

params = ModelParams.from_k2(1.5, g=1.0, omega_a=3.0, omega_b=2.0)
value = HarmonicPump.from_params(params).value
samples = np.linspace(0.0, 1.0, 11)
for pump in (TabulatedPump(times=tuple(samples), values=tuple(value(samples))),
             CustomPump(fn=value)):
    solve_ode(pump, params, np.linspace(0.0, 1.0, 5))
    evolve_truncated(pump, params, fock_state(12, 1, 0), 0.7, OracleConfig(cutoff=12))
    evolve_truncated(pump, params, coherent_state(16, 0.5, 0.3j), 0.4, OracleConfig(cutoff=16))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")
    assert loaded == []


def test_truncated_states_load_no_scipy_special():
    # a truncated state loads no scipy; oracle-check, all harmonic, adds
    # scipy.linalg for its eigendecompositions and nothing else
    loaded = run_fresh("""
import contextlib, io, json, sys
import ndpa.cli
from ndpa.oracle import coherent_state

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and m.count(".") == 1)

state = coherent_state(24, 0.8, 0.5 + 0.3j)
loaded = {"coherent_state": scipy_modules()}
with contextlib.redirect_stdout(io.StringIO()):
    assert ndpa.cli.main(["oracle-check", "--tmax", "0.5", "--cutoff", "24"]) == 0
loaded["oracle-check"] = scipy_modules()
print(json.dumps(loaded))
""")
    assert loaded["coherent_state"] == []
    assert "scipy.linalg" in loaded["oracle-check"]
    assert not {"scipy.special", "scipy.integrate"} & set(loaded["oracle-check"])


def test_model_and_its_state_types_load_no_scipy():
    loaded = run_fresh("""
import json, sys
import ndpa.model as m
m.FockPair(2, 1), m.FockOutcome(1, 0), m.CoherentPair(0.5, 1j), m.PureAModeState.poisson(0.85)
print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
""")
    assert loaded == []
