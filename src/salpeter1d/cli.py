"""Command-line surface: figure data, covariance / continuity / Dirac /
series verification reports.  CSV output, optional SVG overlay.

Each command's handler is a function of the validated configuration that
returns a :class:`Report`: its table as columns ``{header: column}``, its
stdout and stderr lines, and its :class:`Check` verdicts, each a measured
value beside the bound from :mod:`.thresholds` it was held to.  Handlers
write and print nothing.  :func:`main` alone validates the flags, runs the
handler, writes the CSV (and, under ``--svg``, a plot of the same columns,
``x`` first), prints the report's stderr and then its stdout lines, prints
one stderr line per failed check naming its value and bound, and picks the
exit code.  A failed check still leaves its table written.

One writer, :func:`_write_csv`, takes every table: ``kernel``, ``state`` and
``check`` hold text, every other column is numeric and is written with 17
significant digits.  It checks each numeric column for non-finite values
once and refuses a table without rows, both before any file is made; it
then formats ``_CSV_CHUNK_ROWS`` rows at a time and streams them into one
temporary file that is renamed over the output, so a failed write leaves no
partial file and the writer's memory is set by the chunk, not by the table.
A grid whose bounds or width are not finite is rejected before any array is
made.

One table, ``_COMMANDS``, names each command's handler and the flags it
reads, with their defaults; the parser, the validation and the dispatch all
follow it.  A command accepts ``--out`` and only the flags in its row; any
other flag is a usage error.

Exit codes: 0 success, 1 a failed check, 2 invalid configuration (argparse
usage errors and non-finite table cells included), 3 I/O failure.
"""

import argparse
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from . import thresholds as bounds
from .currents import (
    BORN,
    SCALAR,
    SPIN_HALF,
    KernelKind,
    continuity_residual,
    density,
    parse_kernel,
)
from .dirac import equivalence_residuals
from .grids import (
    Grid1D,
    MomentumSpectrum,
    WaveFunction,
    make_grid,
    to_momentum,
    to_position,
)
from .hamiltonian import (
    BandLimitError,
    apply_hamiltonian,
    apply_hamiltonian_series,
)
from .lorentz import (
    Boost,
    constraint_report,
    constraint_residuals,
    covariance_residual,
    fourvector_residuals,
    singular_tuples,
)
from .plotting import line_plot_svg
from .states import (
    PlaneWaveSuperposition,
    box_state,
    gaussian_state,
    sample_on_grid,
    superposed_box_state,
)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# rows formatted per write: bounds the writer's memory whatever the table size
_CSV_CHUNK_ROWS = 65536


class Check(NamedTuple):
    """One verdict: the measured value, the bound it was held to, and
    whether it held."""

    name: str
    measured: float
    bound: float | tuple[float, float]
    passed: bool


class Report(NamedTuple):
    """What a command found: its table, its output lines and its checks."""

    columns: dict
    stdout: Sequence[str]
    stderr: Sequence[str] = ()
    checks: Sequence[Check] = ()


def _build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Validate each flag the command reads against the module preconditions
    it feeds; ``--kernel`` becomes its :class:`KernelKind`."""
    given = vars(args)
    if "box_width" in given and not 0.0 < args.box_width < math.inf:
        raise ValueError(f"--box-width must be positive and finite, got {args.box_width}")
    if "state_n" in given and args.state_n < 1:
        raise ValueError(f"--state-n must be >= 1, got {args.state_n}")
    if "grid_points" in given:
        n = args.grid_points
        if n < 4 or n & (n - 1) or n > bounds.GRID_POINTS_MAX:
            raise ValueError(
                "--grid-points must be a power of two from 4 to "
                f"{bounds.GRID_POINTS_MAX}, got {n}"
            )
    if "pad_factor" in given and not bounds.MIN_PAD_FACTOR <= args.pad_factor < math.inf:
        raise ValueError(
            f"--pad-factor must be finite and >= {bounds.MIN_PAD_FACTOR:g}, got {args.pad_factor}"
        )
    if "state_n" in given:
        # the mode's momentum n pi / L over the grid's Nyquist momentum pi / dx
        # is n dx / L = n pad / N, whatever the box width
        fraction = bounds.BOX_MODE_NYQUIST_FRACTION
        if args.state_n * args.pad_factor / args.grid_points > fraction:
            k = args.state_n * math.pi / args.box_width
            nyquist = math.pi * args.grid_points / (args.pad_factor * args.box_width)
            raise ValueError(
                f"--state-n {args.state_n} puts the box mode at k = {k:.4g}, above "
                f"{fraction * nyquist:.4g} ({fraction} of the grid's Nyquist "
                f"momentum); raise --grid-points or lower --state-n"
            )
    if args.command == "continuity":
        # the same rule for the continuity state's higher momentum
        grid = _continuity_grid(args.grid_points)
        k = _continuity_momenta(grid.dp)[1]
        limit = bounds.BOX_MODE_NYQUIST_FRACTION * grid.p_nyquist
        if k > limit:
            raise ValueError(
                f"--grid-points {args.grid_points} puts the continuity state's "
                f"momentum k = {k:.4g} above {limit:.4g} "
                f"({bounds.BOX_MODE_NYQUIST_FRACTION} of the grid's Nyquist "
                "momentum); raise --grid-points"
            )
    if given.get("velocity") is not None and not abs(args.velocity) < 1.0:
        raise ValueError(f"--velocity must lie in (-1, 1), got {args.velocity}")
    if given.get("kernel") is not None:
        args.kernel = parse_kernel(args.kernel)
    return args


def _write_text_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to a temporary file beside ``path``, then rename it
    over ``path``; on any error the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, columns: dict) -> None:
    """Write the table ``{header: column}`` atomically, _CSV_CHUNK_ROWS rows
    at a time.  A column of str is written as is, any other as 17-digit
    floats; a non-finite value raises ValueError naming its column, and so
    does a table with no rows, before any file is made."""
    arrays = {name: np.asarray(column) for name, column in columns.items()}
    text = {name for name, values in arrays.items() if values.dtype.kind == "U"}
    for name, values in arrays.items():
        if name not in text and not np.isfinite(values).all():
            bad = values[~np.isfinite(values)][0]
            raise ValueError(f"column {name!r} holds a non-finite value ({bad})")
    n_rows = len(next(iter(arrays.values())))
    if n_rows == 0:
        raise ValueError(f"no rows to write to {path}")
    row = ",".join("%s" if name in text else "%.17g" for name in arrays) + "\n"

    def chunks():
        yield ",".join(arrays) + "\n"
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            cells = (a[start:start + _CSV_CHUNK_ROWS].tolist() for a in arrays.values())
            yield "".join(row % cell for cell in zip(*cells, strict=True))

    _write_text_atomic(path, chunks())


def _box_grid(box_width: float, n_points: int, pad_factor: float) -> Grid1D:
    half = 0.5 * pad_factor * box_width
    center = 0.5 * box_width
    return make_grid(center - half, center + half, n_points)


def _normalize_column(values: np.ndarray, how: str, dx: float) -> np.ndarray:
    # a non-finite cell means a configuration the numerics cannot resolve
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot normalize a column holding non-finite values")
    if how == "raw":
        return values
    if how == "unit-area":
        scale, what = np.sum(values) * dx, "area"
    elif how == "peak":
        scale, what = np.max(values), "peak"
    else:
        raise ValueError(f"unknown normalization {how!r}")
    if scale == 0.0 or not np.isfinite(scale):
        raise ValueError(f"cannot normalize a column whose {what} is {scale}")
    return values / scale


def _figure(cfg: argparse.Namespace, psi: WaveFunction, kinds: dict[str, KernelKind]) -> Report:
    """Each kernel's density of psi over [-L/2, 3L/2], normalized."""
    x, dx = psi.grid.x, psi.grid.dx
    window = (x >= -0.5 * cfg.box_width) & (x <= 1.5 * cfg.box_width)
    # a box the numerics cannot resolve overflows into non-finite cells;
    # _normalize_column turns those into the one invalid-config error
    with np.errstate(over="ignore", invalid="ignore"):
        columns = {
            name: _normalize_column(density(psi, kind).values[window], cfg.normalization, dx)
            for name, kind in kinds.items()
        }
    return Report({"x": x[window], **columns}, [f"{cfg.command}: wrote {cfg.out}"])


def _run_figure1(cfg: argparse.Namespace) -> Report:
    grid = _box_grid(cfg.box_width, cfg.grid_points, cfg.pad_factor)
    psi = box_state(cfg.box_width, cfg.state_n, grid)
    return _figure(cfg, psi, {"rho_born": BORN, "rho_scalar": SCALAR})


def _run_figure2(cfg: argparse.Namespace) -> Report:
    grid = _box_grid(cfg.box_width, cfg.grid_points, cfg.pad_factor)
    psi = superposed_box_state(cfg.box_width, grid)
    return _figure(cfg, psi, {"rho_born": BORN, "rho_scalar": SCALAR, "rho_half": SPIN_HALF})


_COVARIANCE_HEADER = (
    "kernel", "p_i", "p_j", "v", "eq_constraint_residual", "fourvector_residual",
)


def _covariance_columns(kind: KernelKind, p_i, p_j, v) -> dict:
    """The table's columns for the (p_i, p_j, v) tuples: the constraint and
    four-vector residuals of unit-amplitude plane waves at p_i and p_j under
    boost v."""
    _, _, constraint = constraint_residuals(kind, p_i, p_j, v)
    waves = np.stack([p_i, p_j], axis=1)
    fourvec = fourvector_residuals(kind, waves, np.ones(waves.shape, complex), v)
    cells = (np.full(p_i.size, str(kind)), p_i, p_j, v, constraint, fourvec)
    return dict(zip(_COVARIANCE_HEADER, cells))


def _witness_columns(p_i: float, p_j: float, v: float) -> dict:
    """The Born columns of one (p_i, p_j, v) tuple, one row long, through the
    per-item checks."""
    boost = Boost(v)
    report = constraint_report(BORN, p_i, p_j, boost)
    waves = PlaneWaveSuperposition([1.0, 1.0], [p_i, p_j])
    fourvec = covariance_residual(waves, BORN, boost)
    cells = (str(BORN), p_i, p_j, v, report.residual, fourvec)
    return {name: [cell] for name, cell in zip(_COVARIANCE_HEADER, cells)}


def _run_covariance(cfg: argparse.Namespace) -> Report:
    kernels = [cfg.kernel] if cfg.kernel is not None else [BORN, SCALAR, SPIN_HALF]
    velocities = [cfg.velocity] if cfg.velocity is not None else np.linspace(-0.9, 0.9, 5)
    # the positive half mirrors the negative one, so the opposite pairs
    # p_i = -p_j are exact and the literal kernels' singular rule finds them
    half = np.linspace(-2.0, 2.0, 20)[:10]
    momenta = np.concatenate([half, -half[::-1]])
    tuples = np.meshgrid(momenta, momenta, velocities, indexing="ij")
    p_i, p_j, v = (grid.ravel() for grid in tuples)
    distinct = np.abs(p_i - p_j) > bounds.MOMENTUM_DISTINCT_TOL
    p_i, p_j, v = p_i[distinct], p_j[distinct], v[distinct]
    tables, skipped = [], 0
    for kind in kernels:
        regular = ~singular_tuples(kind, p_i, p_j, v)
        skipped += int(np.count_nonzero(~regular))
        tables.append(_covariance_columns(kind, p_i[regular], p_j[regular], v[regular]))
    if BORN in kernels:
        tables.append(_witness_columns(*bounds.BORN_WITNESS))
    columns = {name: np.concatenate([t[name] for t in tables]) for name in _COVARIANCE_HEADER}

    # each residual column of each gated kernel, held to its own bound
    gates = {
        "eq_constraint_residual": bounds.CONSTRAINT_RESIDUAL_MAX,
        "fourvector_residual": bounds.FOURVECTOR_RESIDUAL_MAX,
    }
    stdout, checks = [], []
    for name in ("scalar", "spinhalf"):
        mine = columns["kernel"] == name
        if mine.any():
            worst = {column: columns[column][mine].max() for column in gates}
            checks += [
                Check(f"{name} worst {c}", w, gates[c], w <= gates[c]) for c, w in worst.items()
            ]
            stdout.append(f"covariance: {name} worst residual {max(worst.values()):.3e}")
    if BORN in kernels:
        # the Born current must fail: both witness cells stay above the floor
        floor = bounds.BORN_WITNESS_MIN
        cells = {column: tables[-1][column][0] for column in gates}
        witness = [Check(f"born witness {c}", w, floor, w > floor) for c, w in cells.items()]
        reproduced = all(c.passed for c in witness)
        stdout.append(f"covariance: born witness {'reproduced' if reproduced else 'MISSING'}")
        checks += witness
    stdout.append(f"covariance: wrote {cfg.out} ({len(columns['kernel'])} rows)")
    stderr = [f"covariance: skipped {skipped} singular kernel pairs"] if skipped else []
    return Report(columns, stdout, stderr, checks)


def _continuity_grid(n_points: int) -> Grid1D:
    return make_grid(-16.0, 16.0, n_points)


def _continuity_momenta(dp: float) -> tuple[float, float]:
    # lattice-aligned momenta with distinct energies; equal-|p| pairs would
    # make the density stationary and the ratio test vacuous
    return dp * max(1, round(0.2 / dp)), dp * max(2, round(1.96 / dp))


def _run_continuity(cfg: argparse.Namespace) -> Report:
    grid = _continuity_grid(cfg.grid_points)
    waves = PlaneWaveSuperposition([1.0, 0.7], _continuity_momenta(grid.dp))
    psi = sample_on_grid(waves, grid)
    kernels = [cfg.kernel] if cfg.kernel is not None else [BORN, SCALAR, SPIN_HALF]
    dt = bounds.CONTINUITY_BASE_DT
    lo, hi = span = bounds.CONTINUITY_RATIO_RANGE
    coarse = [continuity_residual(psi, kind, dt) for kind in kernels]
    fine = [continuity_residual(psi, kind, dt / 2.0) for kind in kernels]
    ratio = [c / f if f > 0 else math.inf for c, f in zip(coarse, fine)]
    checks = [Check(f"{kind} ratio", r, span, lo <= r <= hi) for kind, r in zip(kernels, ratio)]
    stdout = [
        f"continuity: {kind} residual {c:.3e} -> {f:.3e} "
        f"ratio {check.measured:.2f} [{'ok' if check.passed else 'FAIL'}]"
        for kind, c, f, check in zip(kernels, coarse, fine, checks)
    ]
    columns = {
        "kernel": [str(kind) for kind in kernels],
        "dt": [dt] * len(kernels),
        "residual_dt": coarse,
        "residual_half_dt": fine,
        "ratio": ratio,
    }
    return Report(columns, stdout + [f"continuity: wrote {cfg.out}"], checks=checks)


def _run_dirac_check(cfg: argparse.Namespace) -> Report:
    rng = np.random.default_rng(20240817)
    grid = make_grid(-16.0, 16.0, 1024)
    ks = rng.choice(np.arange(-40, 41), size=8, replace=False)
    amplitudes = rng.normal(size=8) + 1j * rng.normal(size=8)
    waves = PlaneWaveSuperposition(amplitudes, grid.dp * ks)
    box_grid = _box_grid(cfg.box_width, cfg.grid_points, cfg.pad_factor)
    # exact on superpositions, sampling-limited on the box state
    states = {
        "superposition": (sample_on_grid(waves, grid), bounds.DIRAC_SUPERPOSITION_MAX),
        "box": (box_state(cfg.box_width, cfg.state_n, box_grid), bounds.DIRAC_BOX_MAX),
    }
    columns = {"state": [], "current_residual": [], "evolution_residual": []}
    stdout, checks = [], []
    for state, (psi, bound) in states.items():
        cur, evo = equivalence_residuals(psi, t=0.7)
        check = Check(f"{state} residual", max(cur, evo), bound, max(cur, evo) < bound)
        for column, cell in zip(columns, (state, cur, evo)):
            columns[column].append(cell)
        stdout.append(
            f"dirac-check: {state} residuals ({cur:.3e}, {evo:.3e}) "
            f"[{'ok' if check.passed else 'FAIL'}]"
        )
        checks.append(check)
    return Report(columns, stdout + [f"dirac-check: wrote {cfg.out}"], checks=checks)


def band_limited_state(grid: Grid1D, band: float) -> WaveFunction:
    """Gaussian packet hard-truncated to |p| <= band, renormalized."""
    phi = to_momentum(gaussian_state(0.0, 0.0, 0.16 * band, grid))
    vals = phi.values.copy()
    vals[np.abs(grid.p) > band] = 0.0
    psi = to_position(MomentumSpectrum(grid, vals))
    return WaveFunction(grid, psi.values / psi.norm())


def _run_series_check(cfg: argparse.Namespace) -> Report:
    grid = make_grid(-80.0, 80.0, cfg.grid_points)
    psi = band_limited_state(grid, bounds.SERIES_BAND)
    exact = apply_hamiltonian(psi)
    truncated = apply_hamiltonian_series(psi, bounds.SERIES_K_MAX)
    gap = float(np.max(np.abs(truncated.values - exact.values)))

    broad = gaussian_state(0.0, 0.0, 0.5, grid)
    try:
        apply_hamiltonian_series(broad, bounds.SERIES_K_MAX)
        detector_fired = False
    except BandLimitError:
        detector_fired = True

    # the detector must fire on the broad packet: its flag is held to 1
    checks = [
        Check("series_gap", gap, bounds.SERIES_GAP_MAX, gap < bounds.SERIES_GAP_MAX),
        Check("divergence_detector_fired", int(detector_fired), 1, detector_fired),
    ]
    columns = {"check": [c.name for c in checks], "value": [c.measured for c in checks]}
    ok = all(c.passed for c in checks)
    stdout = [
        f"series-check: gap {gap:.3e} at k_max={bounds.SERIES_K_MAX}, "
        f"detector {'fired' if detector_fired else 'SILENT'} [{'ok' if ok else 'FAIL'}]",
        f"series-check: wrote {cfg.out}",
    ]
    return Report(columns, stdout, checks=checks)


_FLAGS = {
    "--box-width": dict(type=float, help="box width in Compton wavelengths "
                        "(default %(default)s)"),
    "--state-n": dict(type=int, help="box quantum number, >= 1 "
                      "(default %(default)s)"),
    "--grid-points": dict(type=int, help="grid size, power of two "
                          "(default %(default)s)"),
    "--pad-factor": dict(type=float, help="grid width / box width, >= 4 "
                         "(default %(default)s)"),
    "--velocity": dict(type=float, help="boost velocity in (-1, 1); "
                       "omitted: five from -0.9 to 0.9"),
    "--kernel": dict(type=str, help="born|scalar|spinhalf|literal:n; "
                     "omitted: born, scalar and spinhalf"),
    "--svg": dict(action="store_true",
                  help="also write a line-plot SVG next to the CSV"),
    "--normalization": dict(choices=("raw", "unit-area", "peak"),
                            help="figure column normalization "
                            "(default %(default)s)"),
}

# command -> (handler, {flag it reads: default}); every command also has --out
_COMMANDS = {
    "figure1": (_run_figure1, {
        "--box-width": 1.0, "--state-n": 2, "--grid-points": 4096,
        "--pad-factor": 4.0, "--svg": False, "--normalization": "raw",
    }),
    "figure2": (_run_figure2, {
        "--box-width": 0.5, "--grid-points": 4096, "--pad-factor": 4.0,
        "--svg": False, "--normalization": "raw",
    }),
    "covariance": (_run_covariance, {"--velocity": None, "--kernel": None}),
    "continuity": (_run_continuity, {"--grid-points": 256, "--kernel": None}),
    "dirac-check": (_run_dirac_check, {
        "--box-width": 1.0, "--state-n": 2, "--grid-points": 4096,
        "--pad-factor": 4.0,
    }),
    "series-check": (_run_series_check, {"--grid-points": 1024}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salpeter1d",
        description=(
            "1-D Salpeter equation toolkit: box-figure data, Lorentz "
            "covariance checks, continuity / Dirac / series verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} report")
        for flag, default in defaults.items():
            p.add_argument(flag, default=default, **_FLAGS[flag])
        p.add_argument("--out", type=str, default=f"{name}.csv",
                       help="output CSV path (default %(default)s)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run, _ = _COMMANDS[args.command]
    try:
        cfg = _build_config(args)
        report = run(cfg)
        _write_csv(cfg.out, report.columns)
        if vars(cfg).get("svg"):
            (_, x), *series = report.columns.items()
            svg = line_plot_svg(x, dict(series), title=cfg.command)
            _write_text_atomic(os.path.splitext(cfg.out)[0] + ".svg", [svg])
    except OSError as exc:
        print(f"error (I/O): {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error (invalid config): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for line in report.stderr:
        print(line, file=sys.stderr)
    for line in report.stdout:
        print(line)
    failed = [c for c in report.checks if not c.passed]
    for c in failed:
        print(f"{cfg.command}: {c.name} {c.measured:.3e} fails its bound {c.bound}",
              file=sys.stderr)
    return EXIT_THRESHOLD if failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
