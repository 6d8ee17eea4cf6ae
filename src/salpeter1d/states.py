"""Wave-function constructors: box shapes, Gaussian packets, plane-wave sums.

Box states are the nonrelativistic sine shapes taken as prescribed states;
no eigenproblem is solved.  Because the relativistic density kernels are
nonlocal, a box must sit inside a grid at least four times wider than the
box itself, otherwise the density outside the walls is silently truncated.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import Grid1D, WaveFunction, require_finite
from .hamiltonian import energy
from .thresholds import GAUSSIAN_TAIL_TOL, MIN_PAD_FACTOR, MOMENTUM_DISTINCT_TOL


def _normalized(grid: Grid1D, values: np.ndarray) -> WaveFunction:
    nrm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    if nrm == 0.0:
        raise ValueError("state vanishes identically on the grid")
    return WaveFunction(grid, values / nrm)


def _check_box_embedding(box_width: float, grid: Grid1D) -> None:
    if box_width <= 0.0:
        raise ValueError(f"box width must be positive, got {box_width}")
    if not (grid.x_min < 0.0 and grid.x_max > box_width):
        raise ValueError(
            f"grid [{grid.x_min}, {grid.x_max}] must strictly contain the box "
            f"[0, {box_width}]"
        )
    pad = (grid.x_max - grid.x_min) / box_width
    if pad < MIN_PAD_FACTOR - 1e-12:
        raise ValueError(
            f"insufficient padding: grid is {pad:.3g}x the box width, "
            f"need >= {MIN_PAD_FACTOR}"
        )


def box_state(box_width: float, n: int, grid: Grid1D) -> WaveFunction:
    """Infinite-well mode sqrt(2/L) sin(n pi x / L) on [0, L], zero outside."""
    if n < 1:
        raise ValueError(f"quantum number must be >= 1, got {n}")
    _check_box_embedding(box_width, grid)
    x = grid.x
    inside = (x >= 0.0) & (x <= box_width)
    values = np.zeros(grid.n_points, dtype=np.complex128)
    # x / L first: n pi x overflows at widths near the float64 limit
    values[inside] = np.sqrt(2.0 / box_width) * np.sin(
        n * np.pi * (x[inside] / box_width)
    )
    return _normalized(grid, values)


def superposed_box_state(box_width: float, grid: Grid1D) -> WaveFunction:
    """Equal-weight sum of the two lowest box modes, L2-normalized.

    The modes are orthogonal on [0, L], so the normalization constant is
    1/sqrt(L) and each mode carries half the probability.
    """
    _check_box_embedding(box_width, grid)
    x = grid.x
    inside = (x >= 0.0) & (x <= box_width)
    values = np.zeros(grid.n_points, dtype=np.complex128)
    xi = x[inside] / box_width  # as in box_state, so no product overflows
    values[inside] = np.sin(np.pi * xi) + np.sin(2.0 * np.pi * xi)
    return _normalized(grid, values)


def gaussian_state(
    x0: float, p0: float, sigma_p: float, grid: Grid1D
) -> WaveFunction:
    """Minimum-uncertainty packet with momentum spread sigma_p centered at p0.

    Position width is sigma_x = 1/(2 sigma_p).  Rejects packets whose tails
    exceed ``GAUSSIAN_TAIL_TOL`` at the grid boundaries or at the Nyquist
    momentum.
    """
    require_finite(x0=x0, p0=p0, sigma_p=sigma_p)
    if sigma_p <= 0.0:
        raise ValueError(f"sigma_p must be positive, got {sigma_p}")
    sigma_x = 0.5 / sigma_p
    for edge in (grid.x_min, grid.x_max):
        tail = np.exp(-((edge - x0) ** 2) / (4.0 * sigma_x**2))
        if tail > GAUSSIAN_TAIL_TOL:
            raise ValueError(
                f"packet leaks past the grid: amplitude {tail:.3e} at x={edge} "
                f"(allowed <= {GAUSSIAN_TAIL_TOL:.0e})"
            )
    for edge in (-grid.p_nyquist, grid.p_nyquist):
        tail = np.exp(-((edge - p0) ** 2) / (4.0 * sigma_p**2))
        if tail > GAUSSIAN_TAIL_TOL:
            raise ValueError(
                f"packet leaks past the Nyquist momentum: amplitude {tail:.3e} "
                f"at p={edge} (allowed <= {GAUSSIAN_TAIL_TOL:.0e})"
            )
    x = grid.x
    values = np.exp(-((x - x0) ** 2) / (4.0 * sigma_x**2) + 1j * p0 * x)
    return _normalized(grid, values)


@dataclass(frozen=True, eq=False)
class PlaneWaveSuperposition:
    """Finite sum of on-shell plane waves A_i exp(i(p_i x - E(p_i) t)).

    Momenta and amplitudes must be finite and momenta pairwise distinct;
    each term always evolves with its on-shell energy E(p_i) = sqrt(p_i^2 + 1),
    never an independent field.
    """

    amplitudes: np.ndarray
    momenta: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=np.complex128))
        moms = np.atleast_1d(np.asarray(self.momenta, dtype=float))
        if amps.shape != moms.shape or amps.ndim != 1:
            raise ValueError("amplitudes and momenta must be 1-D of equal length")
        if amps.size == 0:
            raise ValueError("superposition needs at least one term")
        finite = np.isfinite(moms) & np.isfinite(amps)
        if not np.all(finite):
            i = int(np.argmin(finite))
            raise ValueError(
                f"momenta and amplitudes must be finite: p[{i}]={moms[i]}, "
                f"A[{i}]={amps[i]}"
            )
        # the closest pair is adjacent once sorted: O(N log N) time, O(N) memory
        order = np.argsort(moms, kind="stable")
        gaps = np.diff(moms[order])
        if gaps.size and np.min(gaps) <= MOMENTUM_DISTINCT_TOL:
            k = int(np.argmin(gaps))
            i, j = sorted((int(order[k]), int(order[k + 1])))
            raise ValueError(
                f"momenta must be pairwise distinct: p[{i}]={moms[i]!r} and "
                f"p[{j}]={moms[j]!r} are closer than {MOMENTUM_DISTINCT_TOL:.0e}"
            )
        amps.setflags(write=False)
        moms.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "momenta", moms)

    @cached_property
    def energies(self) -> np.ndarray:
        e = energy(self.momenta)
        e.setflags(write=False)
        return e

    def __len__(self) -> int:
        return self.amplitudes.size


def sample_superposition(s: PlaneWaveSuperposition, t: float, x):
    """Evaluate sum_i A_i exp(i(p_i x - E_i t)) at one or many positions."""
    x = np.asarray(x, dtype=float)
    phases = np.exp(
        1j * (np.multiply.outer(x, s.momenta) - s.energies * t)
    )
    out = phases @ s.amplitudes
    return out if out.shape else complex(out)


def sample_on_grid(
    s: PlaneWaveSuperposition, grid: Grid1D, t: float = 0.0
) -> WaveFunction:
    """Sample the superposition onto a grid (no normalization applied)."""
    return WaveFunction(grid, sample_superposition(s, t, grid.x))
