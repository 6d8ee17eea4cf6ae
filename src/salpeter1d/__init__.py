"""1-D Salpeter (square-root Klein-Gordon) toolkit.

Natural units throughout: hbar = c = m = 1 (lengths in Compton wavelengths,
momenta in units of mc, energies in units of mc^2).

Modules:

    grids        uniform grid, energy symbol, transform conventions, spectral
                 multipliers; one spectrum per state, one energy lattice per grid
    states       box shapes, Gaussian packets, plane-wave superpositions
    hamiltonian  spectral and series Hamiltonian, evolution, square-root factors
    currents     density/current kernel families and the double-sum oracle
    lorentz      boosts, amplitude transformation, covariance residuals
    dirac        spinor lift and the 1+1-D Dirac correspondence
    cli          figure data and verification reports (CSV / SVG)
"""

from .currents import (
    BORN,
    SCALAR,
    SPIN_HALF,
    FourCurrentSample,
    GridField,
    KernelKind,
    KernelSingularityError,
    continuity_residual,
    current,
    density,
    fourcurrent_planewaves,
    gamma_pair,
    kernel_value,
    literal_half_integer,
    normalize_for_kernel,
    parse_kernel,
    u_pair,
)
from .dirac import (
    DiracField,
    dirac_current,
    dirac_evolve,
    equivalence_residuals,
    lift,
    negative_energy_fraction,
)
from .grids import (
    Grid1D,
    MomentumSpectrum,
    WaveFunction,
    apply_symbol,
    inner_product,
    make_grid,
    spectral_derivative,
    spectral_multiplier,
    to_momentum,
    to_position,
)
from .hamiltonian import (
    BandLimitError,
    apply_d_operator,
    apply_hamiltonian,
    apply_hamiltonian_series,
    d_minus_signed,
    d_plus,
    d_vel,
    energy,
    evolve_free,
    series_symbol,
)
from .lorentz import (
    Boost,
    ConstraintReport,
    boost_event,
    boost_momentum,
    compose_boosts,
    constraint_report,
    covariance_residual,
    default_events,
    transform_amplitudes,
)
from .states import (
    PlaneWaveSuperposition,
    box_state,
    gaussian_state,
    sample_on_grid,
    sample_superposition,
    superposed_box_state,
)

__version__ = "0.1.0"

__all__ = [
    "BORN",
    "SCALAR",
    "SPIN_HALF",
    "BandLimitError",
    "Boost",
    "ConstraintReport",
    "DiracField",
    "FourCurrentSample",
    "Grid1D",
    "GridField",
    "KernelKind",
    "KernelSingularityError",
    "MomentumSpectrum",
    "PlaneWaveSuperposition",
    "WaveFunction",
    "apply_d_operator",
    "apply_hamiltonian",
    "apply_hamiltonian_series",
    "apply_symbol",
    "boost_event",
    "boost_momentum",
    "box_state",
    "compose_boosts",
    "constraint_report",
    "continuity_residual",
    "covariance_residual",
    "current",
    "d_minus_signed",
    "d_plus",
    "d_vel",
    "default_events",
    "density",
    "dirac_current",
    "dirac_evolve",
    "energy",
    "equivalence_residuals",
    "evolve_free",
    "fourcurrent_planewaves",
    "gamma_pair",
    "gaussian_state",
    "inner_product",
    "kernel_value",
    "lift",
    "literal_half_integer",
    "make_grid",
    "negative_energy_fraction",
    "normalize_for_kernel",
    "parse_kernel",
    "sample_on_grid",
    "sample_superposition",
    "series_symbol",
    "spectral_derivative",
    "spectral_multiplier",
    "superposed_box_state",
    "to_momentum",
    "to_position",
    "transform_amplitudes",
    "u_pair",
]
