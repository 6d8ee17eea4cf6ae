"""Every numeric bound the library, the CLI and the verification suite
enforce.

Each constant notes the check that uses it (a library precondition, a CLI
command's checks and exit code, and/or the corresponding test in
tests/test_acceptance.py), so a threshold change is a one-line, reviewable
event.  The CLI reads each bound when its command runs and reports it
beside the measured value of every failed check.
"""

# Minimum ratio of grid width to box width: the density kernels are
# nonlocal, so a box needs room on both sides.  Used by: states.box_state and
# superposed_box_state (ValueError, exit 2 through the CLI).
MIN_PAD_FACTOR = 4.0

# Two momenta closer than this (units of mc) count as coincident.  Used by:
# states.PlaneWaveSuperposition, lorentz.constraint_report (ValueError);
# `covariance`, which drops the coincident tuples from its sweep.
MOMENTUM_DISTINCT_TOL = 1e-12

# Largest admissible Gaussian-packet amplitude at the grid boundaries and at
# the Nyquist momentum.  Used by: states.gaussian_state (ValueError).
GAUSSIAN_TAIL_TOL = 1e-12

# Spectral-mass fraction allowed at or above |p| = 1 before the series
# operator refuses to run (the expansion diverges outside |p| < 1).  Used by:
# hamiltonian.apply_hamiltonian_series (BandLimitError); `series-check`'s
# divergence detector; test_acceptance c12.
BAND_LIMIT_TOLERANCE = 1e-12

# Four-vector covariance bound for the scalar and spin-half kernels.
# Used by: `covariance` exit code; test_acceptance c1, c2.
FOURVECTOR_RESIDUAL_MAX = 1e-10

# Pair-constraint residual bound for scalar/spin-half covariance rows.
# Used by: `covariance` exit code; test_acceptance c1, c2 support checks.
CONSTRAINT_RESIDUAL_MAX = 1e-10

# Born-failure witness configuration (p_i, p_j, v) and the floor its
# residuals must exceed for the run to count as reproducing the failure.
# Used by: `covariance` exit code (floor), test_acceptance c3 (strict bounds).
BORN_WITNESS = (0.5, -0.5, 0.5)
BORN_WITNESS_MIN = 1e-6
BORN_WITNESS_CONSTRAINT_MIN = 1e-3
BORN_WITNESS_FOURVECTOR_MIN = 1e-2

# Born's superluminal current: on two unit plane waves at the asymmetric
# pair (0.2, 1.96), min over x of j0 - |j1| must lie below -this (measured
# -0.25; scalar and spin-half stay >= 0.17).  test_currents TestCausality.
BORN_SUPERLUMINAL_MIN = 0.1

# Per-term amplitude rescaling scan showing no transformation rescues the
# Born current: factors in [lo, hi], points per axis.  test_acceptance c3.
RESCALE_SCAN_RANGE = (0.5, 2.0)
RESCALE_SCAN_POINTS = 21

# Continuity: the central-difference residual must shrink by ~4x per dt
# halving.  Used by: `continuity` exit code; test_acceptance c10.
CONTINUITY_RATIO_RANGE = (3.5, 4.5)
CONTINUITY_BASE_DT = 1e-4

# Dirac correspondence gaps: exact on superpositions, sampling-limited on
# the box state.  Used by: `dirac-check` exit code; test_acceptance c9.
DIRAC_SUPERPOSITION_MAX = 1e-12
DIRAC_BOX_MAX = 1e-8

# Truncated-series Hamiltonian: retained terms, test band, and the sup-norm
# gap to the spectral operator.  Used by: `series-check`; test_acceptance c12.
SERIES_K_MAX = 20
SERIES_BAND = 0.5
SERIES_GAP_MAX = 1e-8

# Box-figure regimes (test_acceptance c7): sup|rho_scalar - rho_born| /
# sup rho_born at box width 10, and the relative standard deviation of the
# scalar density over the central 80% of a width-0.1 box.  The NOMINAL
# targets are what "coincident" / "uniform" were first quantified as; the
# sign-consistent density provably exceeds them (the two-mode bound on the
# n=2, width-10 box is (E(2 pi/10) - 1)/2 ~ 0.0906, and the small-box
# profile is scale-invariant with relative std ~ 0.134), so the nominal
# regime test is expected to fail and the PINNED bounds, frozen from the
# double-sum oracle at grid 4096 / pad 4, are the regression contract.
FIG1_COINCIDENCE_NOMINAL = 0.02
FIG1_FLATNESS_NOMINAL = 0.1
FIG1_COINCIDENCE_PINNED = 0.10      # measured 0.090551 (raw), 0.0775 (unit-area)
FIG1_FLATNESS_PINNED = 0.15         # measured 0.134276
FIG1_COINCIDENCE_REGRESSION = (0.0885, 0.0925)
FIG1_FLATNESS_REGRESSION = (0.129, 0.139)

# Figure-2 curves must be mutually distinct: pairwise sup difference over
# the global peak.  test_acceptance c8.
FIG2_DISTINCT_MIN = 1e-3

# Densities may dip below zero only by roundoff.  test_acceptance c5.
POSITIVITY_FLOOR = -1e-10

# Non-relativistic limit: narrow packets (sigma_p = 0.01) must keep the
# scalar density within this of the Born density.  test_acceptance c6.
NONREL_SIGMA_P = 0.01
NONREL_LIMIT_MAX = 1e-2

# Fast separated density paths vs the generic double-sum oracle.
# test_acceptance c11.
ORACLE_EQUIVALENCE_MAX = 1e-10

# Largest --grid-points any command accepts; larger grids are rejected with
# exit 2 before any array is allocated.  Used by: cli._build_config;
# test_cli TestConfigAndIOErrors::test_invalid_config_exits_2.
GRID_POINTS_MAX = 2**22

# Largest box-mode momentum n pi / L a command accepts, as a fraction of the
# grid's Nyquist momentum pi / dx (four samples per wavelength); a larger
# mode is aliased or barely resolved.  The same bound holds the continuity
# state's higher momentum, 10 dp ~ 1.96.  Used by: cli._build_config for
# figure1, dirac-check and continuity (exit 2); test_cli
# TestConfigAndIOErrors::test_invalid_config_exits_2.
BOX_MODE_NYQUIST_FRACTION = 0.5
