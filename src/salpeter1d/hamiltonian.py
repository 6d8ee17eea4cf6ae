"""The square-root Klein-Gordon (Salpeter) Hamiltonian in one dimension.

Everything is a spectral multiplier in natural units (hbar = c = m = 1):

    energy symbol        E(p) = sqrt(p^2 + 1)
    free evolution       exp(-i E(p) t)
    square-root factors  d_plus(p)  = sqrt((E + 1)/2)
                         d_minus(p) = sign(p) * sqrt((E - 1)/2)
                         d_vel(p)   = p / (1 + E)

The truncated-series form of the Hamiltonian is the partial sum of the
generalized binomial expansion of sqrt(1 + p^2), valid on |p| < 1; it is
applied as the exactly equivalent momentum-space polynomial rather than as
repeated grid Laplacians, so no finite-difference error accumulates.

E(p) itself lives in :mod:`.grids`, where each grid keeps its energy
lattice; each square-root factor is written once as a function of the
on-shell point (p, E), and d_plus, d_minus_signed and d_vel evaluate it at
the energies of their momenta.

d_minus carries sign(p).  The unsigned variant fails to reproduce the pair
Lorentz factor for opposite-sign momentum pairs; it is kept only as a
diagnostic (``apply_d_operator(..., "minus_unsigned")``) for side-by-side
comparison.
"""

import numpy as np
from scipy.special import binom

from .grids import (
    MomentumSpectrum,
    WaveFunction,
    apply_symbol,
    energy,
    spectral_multiplier,
    to_momentum,
    to_position,
)

#: spectral-mass fraction allowed at or above |p| = 1 before the series
#: operator refuses to run (the expansion diverges outside |p| < 1)
BAND_LIMIT_TOLERANCE = 1e-12


class BandLimitError(ValueError):
    """State has spectral mass outside the series' radius of convergence."""


def d_plus_shell(p, e):
    """sqrt((E + 1)/2) at the on-shell point (p, E)."""
    return np.sqrt((e + 1.0) / 2.0)


def d_minus_shell(p, e):
    """sign(p) * sqrt((E - 1)/2) at (p, E), written as p / sqrt(2(E + 1))."""
    return p / np.sqrt(2.0 * (e + 1.0))


def d_vel_shell(p, e):
    """p / (1 + E) at the on-shell point (p, E)."""
    return p / (1.0 + e)


def _shell_point(p):
    """(p, E) of momenta p, in float64."""
    p = np.asarray(p, dtype=np.float64)
    return p, energy(p)


def d_plus(p):
    """sqrt((E + 1)/2); equals 1 at rest."""
    return d_plus_shell(*_shell_point(p))


def d_minus_signed(p):
    """sign(p) * sqrt((E - 1)/2), written as p / sqrt(2(E + 1)).

    The rewrite is algebraically identical (multiply by sqrt(E+1)/sqrt(E+1))
    but avoids the cancellation in E - 1 for small p and makes sign(0) = 0
    automatic.
    """
    return d_minus_shell(*_shell_point(p))


def d_minus_unsigned(p):
    """sqrt((E - 1)/2) with no sign; diagnostic only."""
    return np.abs(d_minus_signed(p))


def d_vel(p):
    """p / (1 + E), the lower-component weight of a positive-energy mode."""
    return d_vel_shell(*_shell_point(p))


_D_SYMBOLS = {
    "plus": d_plus,
    "minus_signed": d_minus_signed,
    "minus_unsigned": d_minus_unsigned,
    "vel": d_vel,
}


def apply_d_operator(psi: WaveFunction, which: str) -> WaveFunction:
    """Apply one of the square-root-factor multipliers to a state.

    ``which`` is one of "plus", "minus_signed", "vel", or the diagnostic
    "minus_unsigned".
    """
    try:
        sym = _D_SYMBOLS[which]
    except KeyError:
        raise ValueError(
            f"unknown operator {which!r}; expected one of {sorted(_D_SYMBOLS)}"
        ) from None
    return apply_symbol(psi, sym)


def apply_hamiltonian(psi: WaveFunction) -> WaveFunction:
    """Exact spectral Hamiltonian: multiplier E(p)."""
    return apply_symbol(psi, energy)


def series_coefficients(k_max: int) -> np.ndarray:
    """Generalized binomial coefficients (1/2 choose k) for k = 0..k_max."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return binom(0.5, np.arange(k_max + 1))


def series_symbol(p, k_max: int):
    """Partial sum sum_{k<=k_max} (1/2 choose k) p^(2k), evaluated by Horner.

    Zero outside |p| < 1: the expansion has radius of convergence 1, and the
    polynomial's huge values there would amplify transform roundoff dust in
    lattice bins the band-limit precondition guarantees to be empty.
    """
    coeffs = series_coefficients(k_max)
    q = np.asarray(p, dtype=float) ** 2
    acc = np.full_like(q, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * q + c
    return np.where(q < 1.0, acc, 0.0)


def out_of_band_fraction(phi: MomentumSpectrum, p_cut: float = 1.0) -> float:
    """Fraction of the spectral mass at |p| >= p_cut."""
    weights = np.abs(phi.values) ** 2
    total = float(np.sum(weights))
    if total == 0.0:
        return 0.0
    outside = float(np.sum(weights[np.abs(phi.grid.p) >= p_cut]))
    return outside / total


def apply_hamiltonian_series(psi: WaveFunction, k_max: int) -> WaveFunction:
    """Truncated-series Hamiltonian; converges to the spectral one on |p| < 1.

    Raises :class:`BandLimitError` when more than ``BAND_LIMIT_TOLERANCE`` of
    the spectral mass sits at |p| >= 1, where the series diverges.
    """
    phi = to_momentum(psi)
    fraction = out_of_band_fraction(phi, 1.0)
    if fraction >= BAND_LIMIT_TOLERANCE:
        raise BandLimitError(
            "series Hamiltonian diverges: fraction "
            f"{fraction:.3e} of the spectral mass lies at |p| >= 1 "
            f"(allowed < {BAND_LIMIT_TOLERANCE:.0e})"
        )
    return to_position(spectral_multiplier(phi, lambda p: series_symbol(p, k_max)))


def evolve_free(psi: WaveFunction, t: float) -> WaveFunction:
    """Free unitary evolution by time t: multiplier exp(-i E(p) t)."""
    return apply_symbol(psi, lambda p: np.exp(-1j * energy(p) * t))
