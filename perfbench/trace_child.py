"""Run the charlab CLI once with every layer's public functions traced.

Usage: python trace_child.py SPANS_OUT.json <charlab CLI arguments...>

Each function named in LAYER_FUNCTIONS is wrapped at every name a charlab
module binds it to (``from .index import extend_records`` in cli and in
resonance, ``gk.build_galerkin`` through the galerkin module, internal calls
through the defining module), and methods are wrapped on their class.  Every
call records a span (name, parent span, start, end) in memory; the spans are
written to SPANS_OUT.json when the CLI returns.  The process exits with the
CLI's own exit code.  Nothing under src/charlab is modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public functions (``Class.method`` for methods) traced as spans
LAYER_FUNCTIONS = {
    "geometry": ["surface_from_spec", "check_surface_invariants",
                 "spec_for_period"],
    "flow": ["integrate_flow", "integrate_linearized"],
    "orbits": ["find_orbits", "shoot_for_orbit", "gate_orbit",
               "load_registry", "write_registry"],
    "galerkin": ["estimate_dual_modulus", "build_galerkin",
                 "GalerkinSystem.newton_critical", "k_shift_audit"],
    "index": ["compute_orbit_index_data", "extend_records",
              "IndexComputer.index_pair", "IndexComputer.omega_index",
              "mean_index", "minimal_period_K"],
    "resonance": ["critical_type_numbers", "euler_characteristics",
                  "identity_check", "morse_series", "series_ladder"],
    "cli": ["stage_geometry", "stage_orbits", "stage_index",
            "stage_index_from_files", "stage_resonance", "audit"],
}


class Tracer:
    """In-memory span recorder; spans are [name, parent, start, end]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.index_results = []     # objects returned by compute_orbit_index_data
        self.missing = []           # listed functions the program no longer has

    def wrap(self, name, fn, keep_result=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()
            if keep_result:
                self.index_results.append(result)
            return result

        return traced

    def install(self):
        """Wrap every listed function at each name a charlab module binds."""
        replace = {}
        for layer, names in LAYER_FUNCTIONS.items():
            mod = importlib.import_module(f"charlab.{layer}")
            for name in names:
                full = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    self.missing.append(full)
                    continue
                wrapped = self.wrap(
                    full, fn, keep_result=(full == "index.compute_orbit_index_data"))
                if owner_name:
                    setattr(owner, attr, wrapped)
                else:
                    replace[id(fn)] = (fn, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != "charlab" and not modname.startswith("charlab."):
                continue
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def index_iterates(self):
        return sum(len(getattr(d, "records", ()) or ()) for d in self.index_results)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "missing": self.missing,
                       "index_iterates": self.index_iterates()}, f)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import charlab.cli  # noqa: F401  (imports every layer module)
    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["charlab.cli"].main(cli_args)
    finally:
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
