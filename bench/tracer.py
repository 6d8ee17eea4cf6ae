"""Span tracing around salpeter1d's public functions, for the traced run.

Each wrapped call records one span: name, start, end, parent span, and the
number of grid points it transformed (transforms only).  Spans stay in memory
and are written once, when the worker ends.  The package binds names with
``from .grids import ...``, so a wrapper replaces the name in every
salpeter1d module namespace that holds the original function.
"""

import functools
import json
import sys
import time

# (module, function, span name, how the name is refined from the arguments)
TARGETS = (
    ("grids", "to_momentum", "grids.to_momentum", None),
    ("grids", "to_position", "grids.to_position", None),
    ("grids", "spectral_multiplier", "grids.spectral_multiplier", None),
    ("hamiltonian", "apply_d_operator", "hamiltonian.apply_d_operator", None),
    ("hamiltonian", "evolve_free", "hamiltonian.evolve_free", None),
    ("hamiltonian", "apply_hamiltonian_series",
     "hamiltonian.apply_hamiltonian_series", None),
    ("currents", "density", "currents.density", "kernel"),
    ("currents", "current", "currents.current", "kernel"),
    ("currents", "fourcurrent_planewaves", "currents.fourcurrent_planewaves", None),
    ("currents", "continuity_residual", "currents.continuity_residual", None),
    ("lorentz", "covariance_residual", "lorentz.covariance_residual", None),
    ("lorentz", "constraint_report", "lorentz.constraint_report", None),
    ("lorentz", "transform_amplitudes", "lorentz.transform_amplitudes", None),
    ("dirac", "equivalence_residuals", "dirac.equivalence_residuals", None),
    ("dirac", "dirac_evolve", "dirac.dirac_evolve", None),
    ("states", "box_state", "states.box_state", None),
    ("states", "sample_on_grid", "states.sample_on_grid", None),
    ("plotting", "line_plot_svg", "plotting.line_plot_svg", None),
    ("cli", "main", "cli", "command"),
)

_TRANSFORMS = ("grids.to_momentum", "grids.to_position")


def _kernel_suffix(args, kwargs):
    return str(kwargs.get("kind", args[1] if len(args) > 1 else "?"))


def _command_suffix(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    return argv[0] if argv else "?"


_SUFFIX = {"kernel": _kernel_suffix, "command": _command_suffix}


class Tracer:
    """Holds every span of one process; ``mark()`` splits them into phases."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, points]
        self._stack = []
        self.enabled = True

    def wrap(self, fn, name, suffix):
        spans, stack = self.spans, self._stack
        points = name in _TRANSFORMS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            rec = [label, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                   args[0].grid.n_points if points else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target in every loaded salpeter1d module namespace."""
        modules = [m for n, m in sys.modules.items()
                   if n == "salpeter1d" or n.startswith("salpeter1d.")]
        for mod_name, fn_name, span_name, refine in TARGETS:
            original = getattr(sys.modules[f"salpeter1d.{mod_name}"], fn_name)
            traced = self.wrap(original, span_name, _SUFFIX.get(refine))
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, traced)

    def mark(self):
        """Index that ends the current phase; pass pairs of marks to ``layers``."""
        return len(self.spans)

    def layers(self, start, stop):
        """Per-name calls, total and self seconds, and points, over spans[start:stop]."""
        child_ns = {}
        for i in range(start, stop):
            name, t0, t1, parent, _ = self.spans[i]
            if parent >= start:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        out = {}
        for i in range(start, stop):
            name, t0, t1, _, points = self.spans[i]
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += (t1 - t0) * 1e-9
            row[2] += (t1 - t0 - child_ns.get(i, 0)) * 1e-9
            row[3] += points
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "points"],
                       "spans": self.spans}, fh, separators=(",", ":"))
