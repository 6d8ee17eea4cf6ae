"""Probability density / current pairs built from momentum-pair kernels.

A kernel is a symmetric weight F(p1, p2); the associated density and current
of a state with momentum amplitudes phi are

    rho(x) = (2 pi)^-1 intint F(p1,p2)            phi*(p1) phi(p2) e^{i(p2-p1)x} dp1 dp2
    J(x)   = (2 pi)^-1 intint F(p1,p2) u(p1,p2)   phi*(p1) phi(p2) e^{i(p2-p1)x} dp1 dp2

with the pair velocity u = (p1+p2)/(E1+E2).  Implemented kernels:

    born       F = 1                      rho = |psi|^2
    scalar     F = gamma(p1,p2)           rho = |D+ psi|^2 + |D- psi|^2
    spinhalf   F = 1 + d(p1) d(p2)        rho = |psi|^2 + |D psi|^2,  d = p/(1+E)
    literal:n  F = gamma/(gamma-1)^n      diagnostic family, singular at
                                          gamma = 1 for n >= 1

On the grid the integrals become sums over the momentum lattice,

    rho_j = (dp^2 / 2 pi) sum_k sum_l F(p_k,p_l) phi_k* phi_l e^{i(p_l-p_k)x_j}

and likewise for J_j with F u.  The double-sum path serves every kernel and
is the oracle.  It bins the pair terms by momentum lag r = (l - k) mod N,
a block of lags at a time, and sums only r = 0..N/2: F and F u are real and
symmetric, so bin N - r is the conjugate of bin r.  O(N^2) time, O(N)
memory.

The fast path is a table of separable pairs: a kernel whose weights split
as F = sum_A A(p1) A(p2) and F u = B(p1) C(p2) + C(p1) B(p2) has

    rho = sum_A |A psi|^2,    J = 2 Re(conj(B psi) C psi),

exactly equal to the double sum.  Every symbol of a pair acts on the one
FFT of the state (see :mod:`.grids`):

    born       density {1}          current: none (u has no finite split)
    scalar     density {d+, d-}     current (d+, d-)
    spinhalf   density {1, d}       current (1, d)

with gamma = d+ d+ + d- d- and gamma u = d+ d- + d- d+.  literal:0 is the
scalar kernel and uses its pairs; literal:n with n >= 1 diverges on every
centered lattice, which holds the opposite pair (p_1, p_{n-1}).  The scalar
separation relies on the sign-carrying square-root factor: it holds for all
momentum sign combinations only when d- is odd in p.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid1D, WaveFunction, fft_symbol, spectral_derivative, to_momentum
from .hamiltonian import d_minus_signed, d_plus, d_vel, energy

_KERNEL_NAMES = ("born", "scalar", "spinhalf", "literal")

# Momentum lags per weight block in the double-sum oracle; bounds its memory
# at a few _LAG_BLOCK x N arrays.
_LAG_BLOCK = 64


class KernelSingularityError(ValueError):
    """The literal half-integer kernel was evaluated where it diverges."""


@dataclass(frozen=True)
class KernelKind:
    """Selects which density/current pair a computation uses."""

    name: str
    order: int | None = None

    def __post_init__(self):
        if self.name not in _KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.name!r}; expected one of {_KERNEL_NAMES}"
            )
        if self.name == "literal":
            if self.order is None or self.order < 0:
                raise ValueError("literal kernel needs a non-negative order")
        elif self.order is not None:
            raise ValueError(f"kernel {self.name!r} takes no order parameter")

    def __str__(self) -> str:
        if self.name == "literal":
            return f"literal:{self.order}"
        return self.name


BORN = KernelKind("born")
SCALAR = KernelKind("scalar")
SPIN_HALF = KernelKind("spinhalf")


def literal_half_integer(n: int) -> KernelKind:
    """The printed half-integer family with exponent n; n = 0 equals scalar."""
    return KernelKind("literal", int(n))


def parse_kernel(text: str) -> KernelKind:
    """Parse 'born' | 'scalar' | 'spinhalf' | 'literal:n'."""
    text = text.strip().lower()
    if text.startswith("literal:"):
        try:
            return literal_half_integer(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad literal kernel order in {text!r}") from exc
    if text in ("born", "scalar", "spinhalf"):
        return KernelKind(text)
    raise ValueError(
        f"unknown kernel {text!r}; expected born|scalar|spinhalf|literal:n"
    )


def _float_pair(p1, p2):
    dt = np.result_type(np.asarray(p1).dtype, np.asarray(p2).dtype, np.float64)
    return np.asarray(p1, dtype=dt), np.asarray(p2, dtype=dt)


def u_pair(p1, p2):
    """Pair velocity (p1 + p2)/(E1 + E2); always strictly inside (-1, 1)."""
    p1, p2 = _float_pair(p1, p2)
    return (p1 + p2) / (energy(p1) + energy(p2))


def gamma_pair(p1, p2):
    """Lorentz factor of the pair velocity, 1/sqrt(1 - u^2); >= 1, symmetric."""
    u = u_pair(p1, p2)
    return 1.0 / np.sqrt((1.0 - u) * (1.0 + u))


def kernel_value(kind: KernelKind, p1, p2):
    """Evaluate the kernel F(p1, p2); broadcasts over array arguments.

    Raises :class:`KernelSingularityError` where the literal family's
    denominator (gamma - 1)^n vanishes, i.e. on opposite-momentum pairs.
    """
    p1, p2 = _float_pair(p1, p2)
    if kind.name == "born":
        return np.ones(np.broadcast(p1, p2).shape, dtype=p1.dtype)
    if kind.name == "scalar":
        return gamma_pair(p1, p2)
    if kind.name == "spinhalf":
        return 1.0 + d_vel(p1) * d_vel(p2)
    singular = kernel_singular(kind, p1, p2)
    if np.any(singular):
        b1, b2 = np.broadcast_arrays(p1, p2)
        i = np.argwhere(np.atleast_1d(singular))[0]
        pa = np.atleast_1d(b1)[tuple(i)]
        pb = np.atleast_1d(b2)[tuple(i)]
        raise KernelSingularityError(
            f"literal kernel of order {kind.order} diverges at "
            f"(p1, p2) = ({pa!r}, {pb!r}) where gamma = 1"
        )
    g = gamma_pair(p1, p2)
    return g / (g - 1.0) ** kind.order


def kernel_singular(kind: KernelKind, p1, p2) -> np.ndarray:
    """Where F(p1, p2) diverges; broadcasts over array arguments.

    Only the literal family of order >= 1 diverges: its denominator
    (gamma - 1)^n vanishes where gamma_pair is exactly one, i.e. on
    opposite-momentum pairs.  :func:`kernel_value` raises there.
    """
    p1, p2 = _float_pair(p1, p2)
    if kind.name != "literal" or kind.order < 1:
        return np.zeros(np.broadcast(p1, p2).shape, dtype=bool)
    return gamma_pair(p1, p2) == 1.0


def current_kernel_value(kind: KernelKind, p1, p2):
    """Current weight F(p1, p2) * u(p1, p2)."""
    return kernel_value(kind, p1, p2) * u_pair(p1, p2)


@dataclass(frozen=True, eq=False)
class GridField:
    """Real probability density or current sampled on a grid."""

    grid: Grid1D
    values: np.ndarray

    def integral(self) -> float:
        return float(np.sum(self.values) * self.grid.dx)


@dataclass(frozen=True)
class FourCurrentSample:
    """(j0, j1) of a plane-wave superposition at one event (t, x)."""

    t: float
    x: float
    j0: float
    j1: float


def _kernel_sum(psi: WaveFunction, kind: KernelKind, with_velocity: bool) -> np.ndarray:
    """Double sum over the momentum lattice, folded by momentum lag.

    Exact discrete counterpart of the defining double integral with weight F
    (or F * u when ``with_velocity``).  Since p_l - p_k = (l - k) dp and
    dp dx = 2 pi / N, the phase e^{i(p_l - p_k) x_j} depends on j only through
    the lag r = (l - k) mod N once phi_k carries e^{i p_k x_min}; every pair
    term adds into bin r and one inverse FFT gives the field.  Row r of a
    sliding window over the wrapped lattice is p_{(k + r) mod N}, so a block
    of _LAG_BLOCK lags is one weight evaluation against p and one matvec with
    conj(phi).  F and F u are real and symmetric, so bin N - r is the
    conjugate of bin r: only the lags r = 0..N/2 are summed, half the pair
    terms.  O(N^2) time, O(N) memory.
    """
    g = psi.grid
    n = g.n_points
    p = g.p
    phi = to_momentum(psi).values * np.exp(1j * p * g.x_min)
    weight = current_kernel_value if with_velocity else kernel_value
    half = n // 2
    # row r of each window is the lattice (or phi) shifted by lag r, r = 0..N/2
    p_lag = sliding_window_view(np.concatenate([p, p[:half]]), n)
    phi_lag = sliding_window_view(np.concatenate([phi, phi[:half]]), n)
    phi_conj = np.conj(phi)
    bins = np.empty(n, dtype=np.complex128)
    for r0 in range(0, half + 1, _LAG_BLOCK):
        lags = slice(r0, min(r0 + _LAG_BLOCK, half + 1))
        bins[lags] = (weight(kind, p[None, :], p_lag[lags]) * phi_lag[lags]) @ phi_conj
    bins[half + 1 :] = np.conj(bins[half - 1 : 0 : -1])
    return np.fft.ifft(bins).real * (n * g.dp**2 / (2.0 * np.pi))


# The separable pairs of the module docstring, by kernel name: the density
# symbols A, and the current pair (B, C) or None.  None stands for the
# identity, which needs no transform.
_PAIRS = {
    "born": ((None,), None),
    "scalar": ((d_plus, d_minus_signed), (d_plus, d_minus_signed)),
    "spinhalf": ((None, d_vel), (None, d_vel)),
}


def _separable(kind: KernelKind, grid: Grid1D, path: str, field: str):
    """The symbols ``field`` ("density" or "current") uses on ``path``, or
    None for the double sum."""
    if path not in ("auto", "fast", "generic"):
        raise ValueError(f"unknown path {path!r}")
    if kind.name == "literal" and kind.order >= 1:
        # raises, on every path, the error of the first singular pair in row
        # order of the lattice's pair matrix
        kernel_value(kind, grid.p[1], grid.p[-1])
    if path == "generic":
        return None
    density_symbols, current_pair = _PAIRS["scalar" if kind.name == "literal" else kind.name]
    symbols = density_symbols if field == "density" else current_pair
    if symbols is None and path == "fast":
        raise ValueError(f"no fast {field} path for kernel {kind}")
    return symbols


def _image(grid: Grid1D, spectrum: np.ndarray, symbol, values=None) -> np.ndarray:
    """A psi for the state with raw spectrum ``spectrum`` (samples ``values``,
    where known): one inverse FFT, none for the identity on known samples."""
    if symbol is None:
        return np.fft.ifft(spectrum) if values is None else values
    return np.fft.ifft(spectrum * fft_symbol(grid, symbol))


def _pair_density(grid, spectrum, symbols, values=None) -> np.ndarray:
    """sum_A |A psi|^2 over the density symbols."""
    rho = None
    for a in symbols:
        term = np.abs(_image(grid, spectrum, a, values)) ** 2
        rho = term if rho is None else rho + term
    return rho


def _pair_current(grid, spectrum, pair, values=None) -> np.ndarray:
    """2 Re(conj(B psi) C psi) of the current pair (B, C)."""
    b, c = (_image(grid, spectrum, a, values) for a in pair)
    return 2.0 * np.real(np.conj(b) * c)


def density(psi: WaveFunction, kind: KernelKind, path: str = "auto") -> GridField:
    """Probability density of a state under the chosen kernel.

    ``path`` selects "fast" (the kernel's separable pair, one FFT of the
    state), "generic" (double-sum oracle), or "auto" (fast; every kernel
    has a density pair).  A literal kernel of order >= 1 raises
    :class:`KernelSingularityError` on every path before any field is
    built: every centered lattice holds a pair where it diverges.
    """
    symbols = _separable(kind, psi.grid, path, "density")
    if symbols is None:
        return GridField(psi.grid, _kernel_sum(psi, kind, False))
    spectrum = np.fft.fft(psi.values) if any(symbols) else None
    return GridField(psi.grid, _pair_density(psi.grid, spectrum, symbols, psi.values))


def current(psi: WaveFunction, kind: KernelKind, path: str = "auto") -> GridField:
    """Probability current of a state under the chosen kernel.

    The scalar and spin-half currents have separable pairs, 2 Re(conj(D+ psi)
    D- psi) and 2 Re(conj(psi) D psi), taken from one FFT of the state on
    "auto" and "fast".  The Born current has none: it goes through the
    generic double sum with weight F * u, and "fast" raises ValueError.
    """
    pair = _separable(kind, psi.grid, path, "current")
    if pair is None:
        return GridField(psi.grid, _kernel_sum(psi, kind, True))
    spectrum = np.fft.fft(psi.values)
    return GridField(psi.grid, _pair_current(psi.grid, spectrum, pair, psi.values))


def fourcurrents(kind: KernelKind, p, a, t, x):
    """Exact four-currents (j0, j1) of M plane-wave superpositions at once.

    ``p`` and ``a`` hold the momenta and amplitudes of the superpositions,
    shape (M, T); ``t`` and ``x`` hold the event coordinates, shape (M, E)
    or broadcastable to it.  The weights F and F u are built once per
    superposition, on (M, 1, T, T) pairs; the phases span (M, E, T, T), and
    the sums run over the last two axes.  Returns j0 and j1, shape (M, E).
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=np.complex128)
    e = energy(p)
    p1, p2 = p[:, None, :, None], p[:, None, None, :]
    e1, e2 = e[:, None, :, None], e[:, None, None, :]
    t = np.asarray(t, dtype=float)[..., None, None]
    x = np.asarray(x, dtype=float)[..., None, None]
    weights = kernel_value(kind, p1, p2)
    vel = u_pair(p1, p2)
    cross = (np.conj(a)[:, None, :, None] * a[:, None, None, :]) * np.exp(
        1j * ((p2 - p1) * x - (e2 - e1) * t)
    )
    j0 = np.sum(weights * cross, axis=(-2, -1))
    j1 = np.sum(weights * vel * cross, axis=(-2, -1))
    return j0.real, j1.real


def fourcurrent_planewaves(s, kind: KernelKind, t: float, x: float) -> FourCurrentSample:
    """Exact four-current (j0, j1) of a plane-wave superposition at (t, x).

    Closed form: j^mu = sum_ij F_ij (1, u_ij) A_i* A_j
    exp(i[(p_j - p_i) x - (E_j - E_i) t]).  The kernel symmetry makes the
    sums real; the imaginary parts cancel pairwise and are dropped.  One
    superposition at one event of :func:`fourcurrents`.
    """
    j0, j1 = fourcurrents(kind, s.momenta[None], s.amplitudes[None], [[t]], [[x]])
    return FourCurrentSample(
        t=float(t), x=float(x), j0=float(j0[0, 0]), j1=float(j1[0, 0])
    )


def continuity_residual(psi: WaveFunction, kind: KernelKind, dt: float) -> float:
    """Sup-norm of d(rho)/dt + dJ/dx with a central time difference.

    rho(t +/- dt) comes from the freely evolved state, a phase multiply on
    the one spectrum of psi that also gives J; the spatial derivative is
    spectral.  For smooth band-limited states the residual decays as dt^2.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = psi.grid
    symbols = _separable(kind, g, "auto", "density")
    pair = _separable(kind, g, "auto", "current")
    spectrum = np.fft.fft(psi.values)
    forward = fft_symbol(g, lambda p: np.exp(-1j * energy(p) * dt))
    rho_plus = _pair_density(g, spectrum * forward, symbols)
    rho_minus = _pair_density(g, spectrum * np.conj(forward), symbols)
    if pair is None:
        j = _kernel_sum(psi, kind, True)
    else:
        j = _pair_current(g, spectrum, pair, psi.values)
    del spectrum, forward  # frees their memory for the derivative's transforms
    residual = (rho_plus - rho_minus) / (2.0 * dt) + spectral_derivative(g, j)
    return float(np.max(np.abs(residual)))


def normalize_for_kernel(psi: WaveFunction, kind: KernelKind) -> WaveFunction:
    """Rescale so the kernel's density integrates to one; idempotent."""
    total = density(psi, kind).integral()
    if not total > 0.0:
        raise ValueError(
            f"cannot normalize: total density is {total} (zero or negative state)"
        )
    return WaveFunction(psi.grid, psi.values / np.sqrt(total))
