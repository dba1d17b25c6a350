"""Span tracing around subfrac's layers, installed from outside the package.

Each traced function is wrapped once and the wrapper is stored under every
name that binds the original object in any ``subfrac`` module, so calls
through ``fk.path_uniforms`` and ``sampling.path_uniforms`` both land in
the ``sampling.path_uniforms`` span.  Methods are wrapped on their class.
Targets are looked up by name when tracing is installed: a name a later
version of subfrac removes is reported as absent, never as an error.

Spans (name, parent, op index, start, end) are kept in compact arrays and
written out when the run ends.  A layer's self time is its span durations
minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# span name -> [(module, attribute path, counter)]; a counter maps a
# call's result to the units of work it adds to the layer's count
_size = np.size
TARGETS = {
    "specfun.mittag_leffler": [("subfrac.specfun", "mittag_leffler", None)],
    "specfun.prabhakar": [("subfrac.specfun", "prabhakar", None)],
    "specfun.mwright_density": [("subfrac.specfun", "mwright_density", None)],
    "specfun.multinomial_ml": [("subfrac.specfun", "multinomial_ml", None)],
    "specfun.appell_f3": [("subfrac.specfun", "appell_f3", None)],
    "kernels.coefficient_tables": [("subfrac.kernels", "coefficient_tables", None)],
    "phi.SeriesPhi": [("subfrac.phi", "SeriesPhi.__init__", None),
                      ("subfrac.phi", "SeriesPhi.value", None)],
    "phi.VolterraPhi.value": [("subfrac.phi", "VolterraPhi.value", None)],
    "phi.ClosedFormPhi.value": [("subfrac.phi", "ClosedFormPhi.value", None)],
    "phi.check_complete_monotone": [("subfrac.phi", "check_complete_monotone", None)],
    "phi.time_law_cdf": [("subfrac.phi", "time_law_cdf", None)],
    "sampling.path_rng": [("subfrac.sampling", "path_rng", None)],
    "sampling.path_uniforms": [("subfrac.sampling", "path_uniforms", _size)],
    "sampling.stable": [("subfrac.sampling", "stable_onesided_from_uniforms", _size),
                        ("subfrac.sampling", "stable_symmetric_from_uniforms", _size)],
    "sampling.inverse_passage_batch": [("subfrac.sampling", "inverse_passage_batch", _size)],
    "sampling.fbm_paths_batch": [("subfrac.sampling", "fbm_paths_batch", None)],
    "fk.solve": [("subfrac.fk", "solve", None), ("subfrac.fk", "solve_doss_sussmann", None)],
    "fk.path_values": [("subfrac.fk", "path_values", None)],
    "fk.flow_map": [("subfrac.fk", "flow_map", None)],
    "fk.derive_time_change_law": [("subfrac.fk", "derive_time_change_law", None)],
    "oracle.semigroup_quadrature": [("subfrac.oracle", "semigroup_quadrature", None)],
    "oracle.spectral_solution": [("subfrac.oracle", "spectral_solution", None)],
    "oracle.caputo_l1": [("subfrac.oracle", "caputo_l1", None)],
    "oracle.double_laplace_identity": [("subfrac.oracle", "double_laplace_identity", None)],
    "validate.run_one": [("subfrac.validate", "run_one", None)],
    "cli": [("subfrac.cli", "main", None)],
}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.active = False
        self.op = -1
        self.absent: list[str] = []
        self.calls = [0] * len(self.names)
        self.units = [0] * len(self.names)
        self.t0, self.t1 = array("d"), array("d")
        self.name, self.parent, self.op_of = array("i"), array("i"), array("i")
        self._stack = [-1]

    def _wrap(self, fn, nid, counter):
        t0, t1, name, parent, op_of = self.t0, self.t1, self.name, self.parent, self.op_of
        stack, calls, units, clock = self._stack, self.calls, self.units, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(t0)
            t0.append(0.0)
            t1.append(0.0)
            name.append(nid)
            parent.append(stack[-1])
            op_of.append(self.op)
            stack.append(idx)
            t0[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
            calls[nid] += 1
            if counter is not None:
                units[nid] += int(counter(result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "subfrac" or n.startswith("subfrac."))]
        for nid, span in enumerate(self.names):
            for mod_name, path, counter in TARGETS[span]:
                owner = sys.modules.get(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    self.absent.append(f"{mod_name}.{path}")
                    continue
                wrapped = self._wrap(orig, nid, counter)
                if outer:  # a method: rebinding it on its class is enough
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "t0": np.array(self.t0, dtype=float),
            "t1": np.array(self.t1, dtype=float),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op_of, dtype=np.int32),
        }


def self_times(spans: dict) -> np.ndarray:
    """Self time per span name: span durations minus child-covered time."""
    n_names = len(spans["names"])
    dur = spans["t1"] - spans["t0"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return np.bincount(spans["name"], weights=dur - child, minlength=n_names)
