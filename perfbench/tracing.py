"""Spans around every public call into the ``ndpa`` package.

The tracer lives in the benchmark, not in the package: it rebinds each
public function of each ``ndpa`` module, at every name under which the
package's modules and the ``ndpa`` namespace hold it, to a wrapper that
records a span.  It also wraps ``solve_ivp`` as ``ndpa.oracle`` sees it
(to read ``nfev``) and the ``value`` method of each pump class.  Spans
stay in memory until the run ends; ``Tracer.uninstall`` restores every
original binding.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
from time import perf_counter

import numpy as np

LAYERS = ("model", "weinorman", "amplitudes", "moments", "observables",
          "oracle", "cli")

# span fields: layer, name, start, end, parent index (-1 for a root), points, extra
LAYER, NAME, START, END, PARENT, POINTS, EXTRA = range(7)


def count_points(out) -> int:
    """Grid points in a returned value: the size of its (first) array."""
    if isinstance(out, np.ndarray):
        return int(out.size)
    if isinstance(out, tuple):
        return count_points(out[0]) if out else 0
    if isinstance(out, list):
        return len(out)
    if dataclasses.is_dataclass(out):
        return max((int(np.size(getattr(out, f.name)))
                    for f in dataclasses.fields(out)
                    if isinstance(getattr(out, f.name), (float, complex, np.ndarray))),
                   default=1)
    return 1


def _csv_bytes(args, out):
    path = args[0] if args else None
    return os.path.getsize(path) if isinstance(path, str) and os.path.isfile(path) else 0


def _blocks(args, out):
    return len(args[2].blocks)


def _nfev(args, out):
    return int(out.nfev)


_EXTRA = {("cli", "write_csv"): _csv_bytes,
          ("oracle", "evolve_truncated"): _blocks,
          ("oracle", "solve_ivp"): _nfev}


class Tracer:
    """Records spans while installed; ``spans`` grows until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.passes: list[list[list]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        extra = _EXTRA.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[POINTS] = count_points(out)
            if extra is not None:
                span[EXTRA] = extra(args, out)
            return out

        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"ndpa.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
        for mod in (importlib.import_module("ndpa"), *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._rebind(mod, name, wrappers[id(obj)])
        oracle = modules["oracle"]
        self._rebind(oracle, "solve_ivp",
                     self._wrap("oracle", "solve_ivp", oracle.solve_ivp))
        model = modules["model"]
        for cls in (model.HarmonicPump, model.TabulatedPump, model.CustomPump):
            self._rebind(cls, "value",
                         self._wrap("model", f"{cls.__name__}.value", cls.value))

    def _rebind(self, owner, name, new):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self):
        while self._restore:
            owner, name, old = self._restore.pop()
            setattr(owner, name, old)

    def new_pass(self) -> list[list]:
        """Start recording a new pass; its spans index their parents locally."""
        self.spans = []
        self.passes.append(self.spans)
        self._stack.clear()
        return self.spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced pass."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = {}
    for layer in LAYERS:
        own = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        out[f"{layer}.calls"] = float(len(own))
        out[f"{layer}.self_s"] = sum(spans[i][END] - spans[i][START] - covered[i]
                                     for i in own)

    def durations(layer, name):
        return [s[END] - s[START] for s in spans if s[LAYER] == layer and s[NAME] == name]

    writes = [s for s in spans if s[LAYER] == "cli" and s[NAME] == "write_csv"]
    out["cli.write_csv_s"] = sum(s[END] - s[START] for s in writes)
    out["cli.csv_bytes"] = float(sum(s[EXTRA] for s in writes))

    # outermost weinorman calls, so that solve_analytic -> coefficients counts once
    roots = [s for s in spans if s[LAYER] == "weinorman"
             and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != "weinorman")]
    for kind, chosen in (("scalar", [s for s in roots if s[POINTS] <= 1]),
                         ("grid", [s for s in roots if s[POINTS] > 1])):
        out[f"weinorman.{kind}_us_per_point"] = 1e6 * _ratio(
            sum(s[END] - s[START] for s in chosen), sum(s[POINTS] for s in chosen))

    amps = durations("amplitudes", "fock_amplitude")
    out["amplitudes.fock_amplitude_us"] = 1e6 * _ratio(sum(amps), len(amps))
    tables = durations("moments", "second_moments")
    out["moments.ms_per_table"] = 1e3 * _ratio(sum(tables), len(tables))

    evolves = [s for s in spans if s[LAYER] == "oracle" and s[NAME] == "evolve_truncated"]
    blocks = sum(s[EXTRA] for s in evolves)
    out["oracle.blocks"] = float(blocks)
    out["oracle.ms_per_block"] = 1e3 * _ratio(sum(s[END] - s[START] for s in evolves),
                                              blocks)
    out["oracle.blocks_per_s"] = _ratio(blocks, wall_s)
    out["oracle.ode_nfev"] = float(sum(s[EXTRA] for s in spans
                                       if s[LAYER] == "oracle" and s[NAME] == "solve_ivp"))

    values = {kind: durations("model", f"{kind}Pump.value")
              for kind in ("Harmonic", "Tabulated", "Custom")}
    every = [d for ds in values.values() for d in ds]
    out["model.pump_value_us"] = 1e6 * _ratio(sum(every), len(every))
    for kind in ("Harmonic", "Tabulated"):
        out[f"model.{kind.lower()}_value_us"] = 1e6 * _ratio(sum(values[kind]),
                                                            len(values[kind]))
    return out
