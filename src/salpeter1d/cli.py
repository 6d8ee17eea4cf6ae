"""Command-line surface: figure data, covariance / continuity / Dirac /
series verification reports.  CSV output (17 significant digits, atomic
writes), optional SVG overlay.

One table, ``_COMMANDS``, names each command's handler and the flags it
reads, with their defaults; the parser, the validation and the dispatch all
follow it.  A command accepts ``--out`` and only the flags in its row; any
other flag is a usage error.

Exit codes: 0 success, 1 threshold violation, 2 invalid configuration
(argparse usage errors included), 3 I/O failure.
"""

import argparse
import math
import os
import sys
import tempfile

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
    MOMENTUM_DISTINCT_TOL,
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
    if "pad_factor" in given and not 4.0 <= args.pad_factor < math.inf:
        raise ValueError(f"--pad-factor must be finite and >= 4, got {args.pad_factor}")
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


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write the table atomically; a non-finite numeric cell raises
    ValueError naming its column, and no file is written."""
    lines = [",".join(header)]
    for row in rows:
        for name, cell in zip(header, row):
            if not isinstance(cell, str) and not math.isfinite(cell):
                raise ValueError(f"column {name!r} holds a non-finite value ({cell})")
        lines.append(",".join(_format_cell(cell) for cell in row))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _svg_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".svg"


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


def _emit_figure(cfg: argparse.Namespace, columns: dict[str, np.ndarray], grid: Grid1D) -> None:
    x = grid.x
    window = (x >= -0.5 * cfg.box_width) & (x <= 1.5 * cfg.box_width)
    xw = x[window]
    cols = {
        name: _normalize_column(v[window], cfg.normalization, grid.dx)
        for name, v in columns.items()
    }
    header = ["x"] + list(cols)
    rows = [[xw[i]] + [c[i] for c in cols.values()] for i in range(xw.size)]
    _write_csv(cfg.out, header, rows)
    if cfg.svg:
        _write_text_atomic(
            _svg_path(cfg.out),
            line_plot_svg(xw, cols, title=cfg.command),
        )


def _density_columns(psi: WaveFunction, kinds: dict[str, KernelKind]) -> dict:
    # a box the numerics cannot resolve overflows into non-finite cells;
    # _normalize_column turns those into the one invalid-config error
    with np.errstate(over="ignore", invalid="ignore"):
        return {name: density(psi, kind).values for name, kind in kinds.items()}


def _run_figure1(cfg: argparse.Namespace) -> int:
    grid = _box_grid(cfg.box_width, cfg.grid_points, cfg.pad_factor)
    psi = box_state(cfg.box_width, cfg.state_n, grid)
    columns = _density_columns(psi, {"rho_born": BORN, "rho_scalar": SCALAR})
    _emit_figure(cfg, columns, grid)
    print(f"figure1: wrote {cfg.out}")
    return EXIT_OK


def _run_figure2(cfg: argparse.Namespace) -> int:
    grid = _box_grid(cfg.box_width, cfg.grid_points, cfg.pad_factor)
    psi = superposed_box_state(cfg.box_width, grid)
    columns = _density_columns(
        psi, {"rho_born": BORN, "rho_scalar": SCALAR, "rho_half": SPIN_HALF}
    )
    _emit_figure(cfg, columns, grid)
    print(f"figure2: wrote {cfg.out}")
    return EXIT_OK


def _covariance_rows(kind: KernelKind, p_i, p_j, v) -> list[list]:
    """One CSV row per (p_i, p_j, v) tuple: the constraint and four-vector
    residuals of unit-amplitude plane waves at p_i and p_j under boost v."""
    _, _, constraint = constraint_residuals(kind, p_i, p_j, v)
    waves = np.stack([p_i, p_j], axis=1)
    fourvec = fourvector_residuals(kind, waves, np.ones(waves.shape, complex), v)
    return [
        [str(kind), *cells]
        for cells in zip(
            p_i.tolist(), p_j.tolist(), v.tolist(), constraint.tolist(), fourvec.tolist()
        )
    ]


def _witness_row(p_i: float, p_j: float, v: float) -> list:
    """The Born row of one (p_i, p_j, v) tuple, through the per-item checks."""
    boost = Boost(v)
    report = constraint_report(BORN, p_i, p_j, boost)
    waves = PlaneWaveSuperposition([1.0, 1.0], [p_i, p_j])
    fourvec = covariance_residual(waves, BORN, boost)
    return [str(BORN), p_i, p_j, v, report.residual, fourvec]


def _run_covariance(cfg: argparse.Namespace) -> int:
    kernels = [cfg.kernel] if cfg.kernel is not None else [BORN, SCALAR, SPIN_HALF]
    velocities = (
        [cfg.velocity]
        if cfg.velocity is not None
        else np.linspace(-0.9, 0.9, 5)
    )
    # the positive half mirrors the negative one, so the opposite pairs
    # p_i = -p_j are exact and the literal kernels' singular rule finds them
    half = np.linspace(-2.0, 2.0, 20)[:10]
    momenta = np.concatenate([half, -half[::-1]])
    p_i, p_j, v = (
        grid.ravel()
        for grid in np.meshgrid(momenta, momenta, velocities, indexing="ij")
    )
    distinct = np.abs(p_i - p_j) > MOMENTUM_DISTINCT_TOL
    p_i, p_j, v = p_i[distinct], p_j[distinct], v[distinct]
    rows = []
    skipped = 0
    for kind in kernels:
        regular = ~singular_tuples(kind, p_i, p_j, v)
        skipped += int(np.count_nonzero(~regular))
        rows += _covariance_rows(kind, p_i[regular], p_j[regular], v[regular])
    witness_checked = False
    witness_ok = True
    if any(k.name == "born" for k in kernels):
        row = _witness_row(*bounds.BORN_WITNESS)
        rows.append(row)
        witness_checked = True
        witness_ok = (
            row[4] > bounds.BORN_WITNESS_MIN and row[5] > bounds.BORN_WITNESS_MIN
        )
    _write_csv(
        cfg.out,
        ["kernel", "p_i", "p_j", "v", "eq_constraint_residual", "fourvector_residual"],
        rows,
    )
    if skipped:
        print(f"covariance: skipped {skipped} singular kernel pairs", file=sys.stderr)

    violations = []
    for row in rows:
        name = row[0]
        if name in ("scalar", "spinhalf"):
            if row[4] > bounds.CONSTRAINT_RESIDUAL_MAX or row[5] > bounds.FOURVECTOR_RESIDUAL_MAX:
                violations.append(row)
    for name in ("scalar", "spinhalf"):
        sub = [r for r in rows if r[0] == name]
        if sub:
            worst = max(max(r[4], r[5]) for r in sub)
            print(f"covariance: {name} worst residual {worst:.3e}")
    if witness_checked:
        print(f"covariance: born witness {'reproduced' if witness_ok else 'MISSING'}")
    print(f"covariance: wrote {cfg.out} ({len(rows)} rows)")
    if violations:
        print(
            f"covariance: {len(violations)} rows exceed "
            f"{bounds.FOURVECTOR_RESIDUAL_MAX:.0e}",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD
    if witness_checked and not witness_ok:
        print(
            "covariance: Born witness residual failed to exceed "
            f"{bounds.BORN_WITNESS_MIN:.0e}",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD
    return EXIT_OK


def _continuity_grid(n_points: int) -> Grid1D:
    return make_grid(-16.0, 16.0, n_points)


def _continuity_momenta(dp: float) -> tuple[float, float]:
    # lattice-aligned momenta with distinct energies; equal-|p| pairs would
    # make the density stationary and the ratio test vacuous
    return dp * max(1, round(0.2 / dp)), dp * max(2, round(1.96 / dp))


def _run_continuity(cfg: argparse.Namespace) -> int:
    grid = _continuity_grid(cfg.grid_points)
    waves = PlaneWaveSuperposition([1.0, 0.7], _continuity_momenta(grid.dp))
    psi = sample_on_grid(waves, grid)
    kernels = [cfg.kernel] if cfg.kernel is not None else [BORN, SCALAR, SPIN_HALF]
    dt = bounds.CONTINUITY_BASE_DT
    rows = []
    ok = True
    lo, hi = bounds.CONTINUITY_RATIO_RANGE
    for kind in kernels:
        coarse = continuity_residual(psi, kind, dt)
        fine = continuity_residual(psi, kind, dt / 2.0)
        ratio = coarse / fine if fine > 0 else float("inf")
        rows.append([str(kind), dt, coarse, fine, ratio])
        good = lo <= ratio <= hi
        ok = ok and good
        print(
            f"continuity: {kind} residual {coarse:.3e} -> {fine:.3e} "
            f"ratio {ratio:.2f} [{'ok' if good else 'FAIL'}]"
        )
    _write_csv(
        cfg.out,
        ["kernel", "dt", "residual_dt", "residual_half_dt", "ratio"],
        rows,
    )
    print(f"continuity: wrote {cfg.out}")
    return EXIT_OK if ok else EXIT_THRESHOLD


def _run_dirac_check(cfg: argparse.Namespace) -> int:
    rng = np.random.default_rng(20240817)
    grid = make_grid(-16.0, 16.0, 1024)
    ks = rng.choice(np.arange(-40, 41), size=8, replace=False)
    momenta = grid.dp * ks
    amplitudes = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi_waves = sample_on_grid(PlaneWaveSuperposition(amplitudes, momenta), grid)
    cur_w, evo_w = equivalence_residuals(psi_waves, t=0.7)

    box_grid = _box_grid(cfg.box_width, cfg.grid_points, cfg.pad_factor)
    psi_box = box_state(cfg.box_width, cfg.state_n, box_grid)
    cur_b, evo_b = equivalence_residuals(psi_box, t=0.7)

    rows = [
        ["superposition", cur_w, evo_w],
        ["box", cur_b, evo_b],
    ]
    _write_csv(cfg.out, ["state", "current_residual", "evolution_residual"], rows)
    ok_w = max(cur_w, evo_w) < bounds.DIRAC_SUPERPOSITION_MAX
    ok_b = max(cur_b, evo_b) < bounds.DIRAC_BOX_MAX
    print(
        f"dirac-check: superposition residuals ({cur_w:.3e}, {evo_w:.3e}) "
        f"[{'ok' if ok_w else 'FAIL'}]"
    )
    print(
        f"dirac-check: box residuals ({cur_b:.3e}, {evo_b:.3e}) "
        f"[{'ok' if ok_b else 'FAIL'}]"
    )
    print(f"dirac-check: wrote {cfg.out}")
    return EXIT_OK if (ok_w and ok_b) else EXIT_THRESHOLD


def band_limited_state(grid: Grid1D, band: float) -> WaveFunction:
    """Gaussian packet hard-truncated to |p| <= band, renormalized."""
    phi = to_momentum(gaussian_state(0.0, 0.0, 0.16 * band, grid))
    vals = phi.values.copy()
    vals[np.abs(grid.p) > band] = 0.0
    psi = to_position(MomentumSpectrum(grid, vals))
    return WaveFunction(grid, psi.values / psi.norm())


def _run_series_check(cfg: argparse.Namespace) -> int:
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

    rows = [
        ["series_gap", gap],
        ["divergence_detector_fired", int(detector_fired)],
    ]
    _write_csv(cfg.out, ["check", "value"], rows)
    ok = gap < bounds.SERIES_GAP_MAX and detector_fired
    print(
        f"series-check: gap {gap:.3e} at k_max={bounds.SERIES_K_MAX}, "
        f"detector {'fired' if detector_fired else 'SILENT'} "
        f"[{'ok' if ok else 'FAIL'}]"
    )
    print(f"series-check: wrote {cfg.out}")
    return EXIT_OK if ok else EXIT_THRESHOLD


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
        return run(_build_config(args))
    except OSError as exc:
        print(f"error (I/O): {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error (invalid config): {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
