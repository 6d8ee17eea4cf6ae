"""1+1-dimensional Dirac machinery for the spin-half correspondence.

Representation: alpha = sigma_x, beta = sigma_z, so for a two-component
spinor Psi = (upper, lower):

    rho_D = |upper|^2 + |lower|^2        (Psi^dag Psi)
    J_D   = 2 Re(upper* lower)           (Psi^dag alpha Psi)
    H_D(p) = [[1, p], [p, -1]]           per momentum mode

The lift psi -> (psi, D psi) with D = p/(1+E) maps a square-root
Klein-Gordon state onto the positive-energy Dirac sector: (1, D(p)) is the
positive-energy eigenvector of H_D(p), the Dirac density/current of the
lifted field reproduce the spin-half kernel pair, and free evolution
commutes with the lift.  Evolution is the exact per-mode 2x2 unitary

    exp(-i t H_D(p)) = cos(E t) I - i sin(E t)/E * H_D(p)

(no time stepping, so the equivalence checks are not polluted by integrator
error).
"""

from dataclasses import dataclass

import numpy as np

from .currents import SPIN_HALF, GridField, current, density
from .grids import (
    Grid1D,
    MomentumSpectrum,
    WaveFunction,
    _as_readonly_complex,
    require_finite,
    to_momentum,
    to_position,
)
from .hamiltonian import apply_d_operator, d_vel, energy, evolve_free


@dataclass(frozen=True, eq=False)
class DiracField:
    """Two-component spinor sampled on a grid."""

    grid: Grid1D
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        for name in ("upper", "lower"):
            values = _as_readonly_complex(getattr(self, name), self.grid.n_points)
            object.__setattr__(self, name, values)

    def total_probability(self) -> float:
        dens = np.abs(self.upper) ** 2 + np.abs(self.lower) ** 2
        return float(np.sum(dens) * self.grid.dx)


def lift(psi: WaveFunction) -> DiracField:
    """Spinor lift psi -> (psi, D psi)."""
    lower = apply_d_operator(psi, "vel").values
    return DiracField(psi.grid, psi.values, lower)


def dirac_current(field: DiracField) -> tuple[GridField, GridField]:
    """(rho_D, J_D) of a spinor field."""
    rho = np.abs(field.upper) ** 2 + np.abs(field.lower) ** 2
    j = 2.0 * np.real(np.conj(field.upper) * field.lower)
    return GridField(field.grid, rho), GridField(field.grid, j)


def dirac_evolve(field: DiracField, t: float) -> DiracField:
    """Free Dirac evolution by the exact per-mode 2x2 matrix exponential."""
    require_finite(t=t)
    g = field.grid
    up_k = to_momentum(WaveFunction(g, field.upper)).values
    lo_k = to_momentum(WaveFunction(g, field.lower)).values
    p = g.p
    e = energy(p)
    c = np.cos(e * t)
    s = -1j * np.sin(e * t) / e
    up_k_new = (c + s) * up_k + (s * p) * lo_k
    lo_k_new = (s * p) * up_k + (c - s) * lo_k
    upper = to_position(MomentumSpectrum(g, up_k_new)).values
    lower = to_position(MomentumSpectrum(g, lo_k_new)).values
    return DiracField(g, upper, lower)


def negative_energy_fraction(field: DiracField) -> float:
    """Spectral mass fraction in the negative-energy eigenvectors of H_D(p).

    Per mode the negative-energy eigenvector is (-D(p), 1)/sqrt(1 + D^2);
    a lifted state has exactly zero overlap with it.
    """
    g = field.grid
    up_k = to_momentum(WaveFunction(g, field.upper)).values
    lo_k = to_momentum(WaveFunction(g, field.lower)).values
    d = d_vel(g.p)
    neg_amp = (-d * up_k + lo_k) / np.sqrt(1.0 + d * d)
    total = float(np.sum(np.abs(up_k) ** 2 + np.abs(lo_k) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(neg_amp) ** 2)) / total


def equivalence_residuals(psi: WaveFunction, t: float) -> tuple[float, float]:
    """(current gap, evolution gap) between the Dirac and spin-half pictures.

    current gap: sup-norm difference between (rho_D, J_D) of the lifted
    state and the spin-half density/current of psi at time 0.
    evolution gap: sup-norm of dirac_evolve(lift(psi), t) - lift(evolve(psi, t))
    over both spinor components.
    """
    require_finite(t=t)
    lifted = lift(psi)
    rho_d, j_d = dirac_current(lifted)
    rho_h = density(psi, SPIN_HALF)
    j_h = current(psi, SPIN_HALF)
    current_gap = max(
        float(np.max(np.abs(rho_d.values - rho_h.values))),
        float(np.max(np.abs(j_d.values - j_h.values))),
    )

    via_dirac = dirac_evolve(lifted, t)
    via_lift = lift(evolve_free(psi, t))
    evolution_gap = max(
        float(np.max(np.abs(via_dirac.upper - via_lift.upper))),
        float(np.max(np.abs(via_dirac.lower - via_lift.lower))),
    )
    return current_gap, evolution_gap
