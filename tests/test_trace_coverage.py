"""A traced benchmark run records every per-layer span BENCHMARK.json names.

``bench/run.py`` exits with "no measurement" when a traced run lacks a
declared span, so a change that stops calling a traced function breaks the
traced benchmark.  This test installs the benchmark's own tracer in-process,
runs the six CLI commands at small sizes and the library calls of the
``spectral`` and ``oracle`` parts once, and flattens the spans the way the
worker does.  ``import.*`` metrics are timed by the harness outside the
program and are not spans.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import salpeter1d as s
import salpeter1d.cli as cli

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMANDS = (
    ["covariance", "--velocity", "0.5"],
    ["figure1", "--svg", "--grid-points", "256"],
    ["figure2", "--grid-points", "256"],
    ["continuity", "--grid-points", "64"],
    ["dirac-check", "--grid-points", "1024"],
    ["series-check"],
)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _installed(tracer_module):
    """Install a Tracer; put every patched name back on exit."""
    modules = [
        m for n, m in list(sys.modules.items())
        if n == "salpeter1d" or n.startswith("salpeter1d.")
    ]
    names = {target[1] for target in tracer_module.TARGETS}
    saved = [(m, n, getattr(m, n)) for m in modules for n in names if hasattr(m, n)]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _field_set():
    """The library calls of the benchmark's spectral and oracle parts."""
    grid = s.make_grid(-16.0, 16.0, 64)
    waves = s.PlaneWaveSuperposition([1.0, 0.5j], [2 * grid.dp, -3 * grid.dp])
    psi = s.sample_on_grid(waves, grid)
    for kind in (s.BORN, s.SCALAR, s.SPIN_HALF):
        s.density(psi, kind)
    s.current(psi, s.BORN, path="generic")
    s.current(psi, s.SCALAR)
    s.current(psi, s.SPIN_HALF)
    s.continuity_residual(psi, s.SPIN_HALF, 1e-4)


def test_every_declared_span_is_recorded(tmp_path):
    tracer_module = _bench_module("tracer")
    worker = _bench_module("worker")
    sink = io.StringIO()
    with _installed(tracer_module) as tracer:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = {
                argv[0]: cli.main([*argv, "--out", str(tmp_path / f"{argv[0]}.csv")])
                for argv in COMMANDS
            }
            _field_set()
        recorded = worker._flat_layers(tracer.layers(0, tracer.mark()))
    assert codes == {argv[0]: cli.EXIT_OK for argv in COMMANDS}, sink.getvalue()
    wanted = [m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("import.")]
    missing = [name for name in wanted if name not in recorded]
    assert not missing
    assert not hasattr(s.density, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
