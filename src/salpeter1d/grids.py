"""Uniform 1-D grid, Fourier transform conventions, and spectral multipliers.

Natural units throughout: hbar = c = m = 1, so lengths are in Compton
wavelengths, momenta in units of mc, energies in units of mc^2.

Conventions fixed here and used by every other module:

    grid points    x_j = x_min + j*dx,  j = 0..n-1  (right endpoint excluded)
    momentum lattice  p_k = 2*pi*k/(n*dx),  k = -n/2..n/2-1  (centered order)
    forward        phi(p) = (2*pi)^(-1/2) * sum_j psi(x_j) e^{-i p x_j} dx
    inverse        psi(x) = (2*pi)^(-1/2) * sum_k phi(p_k) e^{+i p_k x} dp

With these weights the discrete transform is exactly unitary:
sum |phi_k|^2 dp == sum |psi_j|^2 dx (Parseval) and the round trip is the
identity, both to machine precision.  :func:`to_momentum` and
:func:`to_position` are these unitary transforms.

A multiplier never needs that frame: the x_min phase, the centring shift
and the dx/sqrt(2 pi) weight of the forward transform cancel against those
of the inverse.  So there is one transform path for every operator,

    apply_symbol(psi, sigma) = ifft(fft(psi) * sigma(p in FFT order)),

on numpy's raw spectrum; ``Grid1D.p_fft`` is the lattice in that order.

What an immutable state or grid determines is computed once and kept.
A state keeps one spectrum, ``WaveFunction.spectrum`` (16 bytes per point
for as long as the state lives): :func:`to_momentum`, every multiplier and
every field of the state read it, so no library path transforms the same
state twice.  A grid keeps one energy lattice, ``Grid1D.e_fft``, the mass
shell E(p) = sqrt(p^2 + 1) on ``p_fft``: the fast fields' factors and the
continuity residual's free phase are built from it.  Symbols evaluated
from them are not kept: they cost a few array passes to rebuild, and a
cache of them would hold several N-arrays per grid.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def energy(p):
    """Relativistic energy E(p) = sqrt(p^2 + 1); even, >= 1, ~|p| at infinity."""
    return np.hypot(np.asarray(p, dtype=np.float64), 1.0)


def require_finite(**scalars) -> None:
    """Raise ValueError naming the first of the keyword arguments that is not
    finite; called where a scalar argument enters, before any array is built."""
    for name, value in scalars.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform spatial grid with its dual momentum lattice."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 4 or not _is_power_of_two(int(self.n_points)):
            raise ValueError(
                f"n_points must be a power of two >= 4, got {self.n_points}"
            )
        if not self.x_max > self.x_min:
            raise ValueError(
                f"degenerate interval: x_max={self.x_max} must exceed x_min={self.x_min}"
            )
        if not np.isfinite(self.x_max - self.x_min):
            raise ValueError(
                f"interval [{self.x_min}, {self.x_max}] must have finite bounds and width"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / (self.n_points * self.dx)

    @property
    def p_nyquist(self) -> float:
        return np.pi / self.dx

    @cached_property
    def x(self) -> np.ndarray:
        xs = self.x_min + self.dx * np.arange(self.n_points)
        xs.setflags(write=False)
        return xs

    @cached_property
    def p(self) -> np.ndarray:
        ks = np.arange(-self.n_points // 2, self.n_points // 2)
        ps = self.dp * ks
        ps.setflags(write=False)
        return ps

    @cached_property
    def p_fft(self) -> np.ndarray:
        """The momentum lattice in numpy's FFT order, ``ifftshift(p)``."""
        ps = np.fft.ifftshift(self.p)
        ps.setflags(write=False)
        return ps

    @cached_property
    def e_fft(self) -> np.ndarray:
        """The energy lattice E(p) in numpy's FFT order, ``energy(p_fft)``."""
        es = energy(self.p_fft)
        es.setflags(write=False)
        return es


def make_grid(x_min: float, x_max: float, n_points: int) -> Grid1D:
    """Construct a grid; rejects degenerate intervals and non power-of-two sizes."""
    return Grid1D(float(x_min), float(x_max), int(n_points))


def _as_readonly_complex(values, n: int) -> np.ndarray:
    """A read-only complex copy of ``n`` finite samples; ValueError names the
    first non-finite one."""
    vals = np.array(values, dtype=np.complex128, copy=True)
    if vals.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {vals.shape}")
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"values must be finite: values[{i}] = {vals[i]}")
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex field sampled on the position grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_readonly_complex(self.values, self.grid.n_points)
        )

    def norm(self) -> float:
        """L2 norm, sqrt(sum |psi_j|^2 dx)."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """numpy's raw ``fft(values)``, in FFT order; computed once per state."""
        raw = np.fft.fft(self.values)
        raw.setflags(write=False)
        return raw


@dataclass(frozen=True, eq=False)
class MomentumSpectrum:
    """Complex field on the dual momentum lattice, centered ordering."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_readonly_complex(self.values, self.grid.n_points)
        )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dp))


def to_momentum(psi: WaveFunction) -> MomentumSpectrum:
    """Forward transform; unitary with the module's weights."""
    g = psi.grid
    raw = np.fft.fftshift(psi.spectrum)
    phase = np.exp(-1j * g.p * g.x_min)
    return MomentumSpectrum(g, raw * phase * (g.dx / _SQRT_2PI))


def to_position(phi: MomentumSpectrum) -> WaveFunction:
    """Inverse transform, exact inverse of :func:`to_momentum`."""
    g = phi.grid
    raw = phi.values * np.exp(1j * g.p * g.x_min)
    vals = np.fft.ifft(np.fft.ifftshift(raw)) * (_SQRT_2PI / g.dx)
    return WaveFunction(g, vals)


def _evaluate_symbol(symbol, grid: Grid1D, p: np.ndarray) -> np.ndarray:
    """symbol(p) at the lattice points ``p`` (``grid.p`` in either order).

    Real symbols stay real.  A non-finite value raises ValueError naming the
    offending p_k by its index in centered order.
    """
    vals = np.asarray(symbol(p))
    if vals.dtype.kind not in "fc":
        vals = vals.astype(np.float64)
    vals = np.broadcast_to(vals, p.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        k = int(np.searchsorted(grid.p, p[i]))
        raise ValueError(
            f"symbol is not finite at lattice point p_{k} = {p[i]!r} "
            f"(value {vals[i]!r})"
        )
    return vals


def spectral_multiplier(phi: MomentumSpectrum, symbol) -> MomentumSpectrum:
    """Multiply phi pointwise by symbol(p_k) on the momentum lattice.

    ``symbol`` must accept an ndarray of momenta; a non-finite value at any
    lattice point raises ValueError naming the offending p_k.
    """
    sym = _evaluate_symbol(symbol, phi.grid, phi.grid.p)
    return MomentumSpectrum(phi.grid, phi.values * sym)


def fft_symbol(grid: Grid1D, symbol) -> np.ndarray:
    """symbol(p) in FFT order: the factor on ``np.fft.fft`` of a sampled state.

    Checked like :func:`spectral_multiplier`'s symbols.
    """
    return _evaluate_symbol(symbol, grid, grid.p_fft)


def apply_symbol(psi: WaveFunction, symbol) -> WaveFunction:
    """Position-space action of the pseudo-differential operator symbol(p)."""
    return WaveFunction(psi.grid, np.fft.ifft(psi.spectrum * fft_symbol(psi.grid, symbol)))


def spectral_derivative(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """d/dx of a sampled field via the momentum lattice; real in, real out.

    A real field takes the half spectrum, ``irfft(rfft(f) * i p)``.  The
    Nyquist bin's derivative is imaginary and drops out, as it does from the
    real part of the complex path, which complex fields keep.
    """
    if not np.isrealobj(values):
        return apply_symbol(WaveFunction(grid, values), lambda p: 1j * p).values
    n = grid.n_points
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {values.shape}")
    return np.fft.irfft(np.fft.rfft(values) * (1j * grid.p_fft[: n // 2 + 1]), n)


def inner_product(a: WaveFunction, b: WaveFunction) -> complex:
    """Discrete L2 inner product <a, b> = sum conj(a_j) b_j dx."""
    if a.grid is not b.grid and (a.grid.x_min, a.grid.x_max, a.grid.n_points) != (
        b.grid.x_min,
        b.grid.x_max,
        b.grid.n_points,
    ):
        raise ValueError("inner_product requires states on the same grid")
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.dx)
