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
                                          p1 + p2 = 0 for n >= 1

On the grid the integrals become sums over the momentum lattice,

    rho_j = (dp^2 / 2 pi) sum_k sum_l F(p_k,p_l) phi_k* phi_l e^{i(p_l-p_k)x_j}

and likewise for J_j with F u.  The double-sum path serves every kernel and
is the oracle.  It bins the pair terms by momentum lag r = (l - k) mod N,
a block of lags at a time, and sums only r = 0..N/2: F and F u are real and
symmetric, so bin N - r is the conjugate of bin r.  Every weight depends
on a pair only through its two on-shell points (p, E, a, b), with the
light-cone momenta a = E - p and b = E + p, so one pair formula serves all
kernels: the oracle windows the lattice's N points like its momenta, and E,
a and b are evaluated once per lattice point.  O(N^2) time, O(N) memory.

The pair Lorentz factor is written in light-cone momenta (Dirac, Rev. Mod.
Phys. 21, 392, 1949).  Since (1 - u)(1 + u) = (a1 + a2)(b1 + b2)/(E1 + E2)^2,

    gamma = (E1 + E2) / sqrt((a1 + a2)(b1 + b2)),

and every sum adds positive terms; a b = 1 gives the smaller of a, b as the
reciprocal of E + |p|.  So gamma is exact to a few ulp in float64 for any
pair of momenta, where 1/sqrt((1 - u)(1 + u)) loses about p^2 ulp to the
cancellation in 1 - |u| of two large momenta of the same sign.  The literal
family takes gamma - 1 = gamma^2 u^2/(gamma + 1), which vanishes exactly where
u does, so its singular pairs are exactly the opposite pairs p1 + p2 == 0;
:func:`kernel_singular` applies that rule and evaluates no gamma.

The fast path, the default, is a table with one entry per kernel: its
density symbols, each a factor of the on-shell point (p, E), and its
current.  A kernel whose weights split as F = sum_A A(p1) A(p2) and
F u = B(p1) C(p2) + C(p1) B(p2) has

    rho = sum_A |A psi|^2,    J = 2 Re(conj(B psi) C psi),

exactly equal to the double sum.  The Born weight u has no such split, but
on the mass shell u = (E2 - E1)/(p2 - p1) for p1 != p2, so its pair terms
at momentum lag q = l - k sum to C(q)/(q dp), where
C(q) = sum_k phi_k* phi_{k+q} (E_{k+q} - E_k) comes from one zero-padded
2N-point correlation of phi and E phi (Press et al., Numerical Recipes,
3rd ed., section 13.2); see :func:`_born_current`.  Every entry acts on
the state's one spectrum, ``WaveFunction.spectrum``, and on the grid's one
energy lattice, ``Grid1D.e_fft`` (see :mod:`.grids`).  So a state's whole
field set, densities, currents and continuity residual, takes one forward
FFT and one evaluation of E:

    born       density {1}          current: correlation, O(N log N)
    scalar     density {d+, d-}     current (d+, d-)
    spinhalf   density {1, d}       current (1, d)

with gamma = d+ d+ + d- d- and gamma u = d+ d- + d- d+.  literal:0 is the
scalar kernel and uses its entry; literal:n with n >= 1 diverges on every
centered lattice, which holds the opposite pair (p_1, p_{n-1}).  The scalar
separation relies on the sign-carrying square-root factor: it holds for all
momentum sign combinations only when d- is odd in p.

Causality.  The separable pairs give the light-cone components of the
current as squares, for any state and exactly on the lattice:

    scalar     rho +/- J = |S+/- psi|^2,  S+ = d+ + d- = sqrt(b),
                                          S- = d+ - d- = sqrt(a)
    spinhalf   rho +/- J = |(1 +/- d) psi|^2

since d+^2 + d-^2 = E, 2 d+ d- = p and (1 + d1 d2) +/- (d1 + d2) =
(1 +/- d1)(1 +/- d2).  So |J| <= rho at every point, as a four-current that
is non-negative in every frame needs: otherwise a boost along J with
velocity between rho/|J| and 1 makes the density negative.  A boost scales
a and b by k and 1/k, so both squares stay non-negative in every frame.
The Born current has no such form, and exceeds its density on ordinary
states: |J| > rho is Born's superluminal current.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid1D, WaveFunction, energy, fft_symbol, spectral_derivative
from .hamiltonian import d_minus_shell, d_plus_shell, d_vel_shell

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


def _on_shell(p):
    """(p, E, a, b) of momenta p, with the light-cone momenta a = E - p and
    b = E + p.  Since a b = 1, the smaller of the two is taken as the
    reciprocal of the larger, E + |p|, so neither cancels."""
    p = np.asarray(p, dtype=float)
    e = energy(p)
    far = e + np.abs(p)
    near = 1.0 / far
    return p, e, np.where(p > 0, near, far), np.where(p < 0, near, far)


def _pair_weight(kind: KernelKind, q1, q2, velocity: bool = False):
    """F (or F u) of the pairs of on-shell points q1, q2 (see :func:`_on_shell`),
    unchecked; None for the Born density's F = 1, so the caller can skip the
    multiply."""
    (p1, e1, a1, b1), (p2, e2, a2, b2) = q1, q2
    if kind.name == "spinhalf":
        f = 1.0 + (p1 / (1.0 + e1)) * (p2 / (1.0 + e2))
        return f * ((p1 + p2) / (e1 + e2)) if velocity else f
    if kind.name == "born":
        return (p1 + p2) / (e1 + e2) if velocity else None
    # (1 - u)(1 + u) = (a1 + a2)(b1 + b2)/(E1 + E2)^2: sums of positive terms
    f = (e1 + e2) / np.sqrt((a1 + a2) * (b1 + b2))
    if kind.name == "literal":
        # gamma - 1 = gamma^2 u^2 / (gamma + 1), exactly zero only at u = 0
        u = (p1 + p2) / (e1 + e2)
        f = f / (f * f * u * u / (f + 1.0)) ** kind.order
        return f * u if velocity else f
    return f * ((p1 + p2) / (e1 + e2)) if velocity else f


def _checked_weight(kind: KernelKind, q1, q2, velocity: bool):
    """:func:`_pair_weight` with the literal singularity check, and F = 1 as
    an array."""
    p1, p2 = q1[0], q2[0]
    # a literal F is inf at u = 0 and wherever it overflows float64, at
    # nearly opposite pairs (0 < |p1 + p2| < 1e-154 at order 1); no other
    # F can be
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = _pair_weight(kind, q1, q2, velocity)
    if w is None:
        return np.ones(np.broadcast(p1, p2).shape)
    if kind.name == "literal" and not np.isfinite(w).all():
        i = tuple(np.argwhere(~np.isfinite(np.atleast_1d(w)))[0])
        pa, pb = (np.atleast_1d(b)[i] for b in np.broadcast_arrays(p1, p2))
        raise KernelSingularityError(
            f"literal kernel of order {kind.order} diverges at "
            f"(p1, p2) = ({pa!r}, {pb!r}) where p1 + p2 = 0 "
            "(u = 0, gamma = 1) or F overflows float64"
        )
    return w


def u_pair(p1, p2):
    """Pair velocity (p1 + p2)/(E1 + E2); always strictly inside (-1, 1)."""
    return _pair_weight(BORN, _on_shell(p1), _on_shell(p2), velocity=True)


def gamma_pair(p1, p2):
    """Lorentz factor of the pair velocity, 1/sqrt(1 - u^2); >= 1, symmetric.

    Evaluated as (E1 + E2)/sqrt((a1 + a2)(b1 + b2)) on the light-cone momenta
    a = E - p, b = E + p: no cancellation for any pair of momenta."""
    return _pair_weight(SCALAR, _on_shell(p1), _on_shell(p2))


def kernel_value(kind: KernelKind, p1, p2):
    """Evaluate the kernel F(p1, p2); broadcasts over array arguments.

    Raises :class:`KernelSingularityError` where the literal family's
    denominator (gamma - 1)^n vanishes, i.e. on opposite-momentum pairs, and
    where its F overflows float64, at nearly opposite pairs (0 < |p1 + p2|
    < 1e-154 at order 1).
    """
    return _checked_weight(kind, _on_shell(p1), _on_shell(p2), False)


def kernel_singular(kind: KernelKind, p1, p2) -> np.ndarray:
    """Where F(p1, p2) diverges; broadcasts over array arguments.

    Only the literal family of order >= 1 diverges: its denominator
    (gamma - 1)^n vanishes exactly where u = 0, i.e. on the opposite pairs
    p1 + p2 == 0.  The rule is exact and evaluates no gamma.
    :func:`kernel_value` raises there.
    """
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    if kind.name != "literal" or kind.order < 1:
        return np.zeros(np.broadcast(p1, p2).shape, dtype=bool)
    return p1 + p2 == 0.0


def current_kernel_value(kind: KernelKind, p1, p2):
    """Current weight F(p1, p2) * u(p1, p2)."""
    return _checked_weight(kind, _on_shell(p1), _on_shell(p2), True)


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


def _lag_window(v: np.ndarray) -> np.ndarray:
    """Row r is ``v`` shifted by lag r, v_{(k + r) mod N}, for r = 0..N/2."""
    return sliding_window_view(np.concatenate([v, v[: v.size // 2]]), v.size)


def _lag_weights(kind: KernelKind, p: np.ndarray, with_velocity: bool):
    """(lags, weights) per block of lags r = 0..N/2: row i holds F (or F u) of
    (p_k, p_{(k + r) mod N}), r = lags.start + i, from (p, E, a, b) windowed
    like p."""
    q = _on_shell(p)
    q_lag = [_lag_window(c) for c in q]
    half = p.size // 2
    for r0 in range(0, half + 1, _LAG_BLOCK):
        lags = slice(r0, min(r0 + _LAG_BLOCK, half + 1))
        yield lags, _pair_weight(kind, q, [c[lags] for c in q_lag], with_velocity)


def _kernel_sum(psi: WaveFunction, kind: KernelKind, with_velocity: bool) -> np.ndarray:
    """Double sum over the momentum lattice, folded by momentum lag.

    Exact discrete counterpart of the defining double integral with weight F
    (or F * u when ``with_velocity``).  Since p_l - p_k = (l - k) dp and
    dp dx = 2 pi / N, the phase e^{i(p_l - p_k) x_j} depends on j only through
    the lag r = (l - k) mod N once phi_k carries e^{i p_k x_min}, which is
    the state's raw spectrum, centred and weighted by dx / sqrt(2 pi); every pair
    term adds into bin r and one inverse FFT gives the field.  Row r of a
    sliding window over the wrapped lattice is p_{(k + r) mod N}, and the
    same window over the N on-shell points gives their E, a and b, so a
    block of _LAG_BLOCK lags is one pair formula on (p, E, a, b) windows and
    one matvec with conj(phi); E, a and b are evaluated once per lattice
    point.  F and F u are real and symmetric, so bin N - r is the conjugate
    of bin r: only the lags r = 0..N/2 are summed, half the pair terms.
    O(N^2) time, O(N) memory.
    """
    g = psi.grid
    n = g.n_points
    phi = np.fft.fftshift(psi.spectrum) * (g.dx / np.sqrt(2.0 * np.pi))
    phi_lag = _lag_window(phi)
    phi_conj = np.conj(phi)
    bins = np.empty(n, dtype=np.complex128)
    for lags, weights in _lag_weights(kind, g.p, with_velocity):
        # F = 1: a contiguous copy, as matmul sums strided views without BLAS
        terms = np.array(phi_lag[lags]) if weights is None else weights * phi_lag[lags]
        bins[lags] = terms @ phi_conj
        del weights, terms  # freed before the next block's weights are built
    half = n // 2
    bins[half + 1 :] = np.conj(bins[half - 1 : 0 : -1])
    return np.fft.ifft(bins).real * (n * g.dp**2 / (2.0 * np.pi))


def _shell_symbol(grid: Grid1D, symbol) -> np.ndarray:
    """symbol(p, E) in FFT order, on the grid's one energy lattice; checked
    like every symbol (see :func:`.grids.fft_symbol`)."""
    return fft_symbol(grid, lambda p: symbol(p, grid.e_fft))


def _image(grid: Grid1D, spectrum: np.ndarray, symbol, values=None) -> np.ndarray:
    """A psi for the state with raw spectrum ``spectrum`` (samples ``values``,
    where known): one inverse FFT, none for the identity on known samples."""
    if symbol is None:
        return np.fft.ifft(spectrum) if values is None else values
    return np.fft.ifft(spectrum * _shell_symbol(grid, symbol))


def _pair_density(grid, spectrum, symbols, values) -> np.ndarray:
    """sum_A |A psi|^2 over the density symbols."""
    rho = None
    for a in symbols:
        term = np.abs(_image(grid, spectrum, a, values)) ** 2
        rho = term if rho is None else rho + term
    return rho


def _pair_current(b, c):
    """The current 2 Re(conj(B psi) C psi) of the pair (B, C), as a function
    of the state."""

    def field(psi: WaveFunction) -> np.ndarray:
        bp, cp = (_image(psi.grid, psi.spectrum, a, psi.values) for a in (b, c))
        return 2.0 * np.real(np.conj(bp) * cp)

    return field


def _born_current(psi: WaveFunction) -> np.ndarray:
    """The Born current's lattice double sum, from one correlation.

    With phi as in :func:`_kernel_sum`, the pairs at lag q = l - k, 0 < |q|
    < N, have u = (E_l - E_k)/(q dp) and add up to W(q) = C(q)/(q dp), with
    C(q) = A(q) - conj(A(-q)) and A(q) = sum_k phi_k* (E phi)_{k+q} the
    linear correlation of phi and E phi: one zero-padded 2N-point FFT pair.
    W(0) = sum_k |phi_k|^2 p_k/E_k.  Lags q and q - N fall into one bin of
    the N-point inverse FFT but have different u, so each is divided before
    they are folded.  The conj(A(-q)) half of W is the conjugate mirror of
    the A(q) half, and mirrors add the same real part to the field: J is
    twice the real part of the field of A(q)/(q dp) alone, with half of
    W(0).  Exact, like the oracle; O(N log N).
    """
    g = psi.grid
    n = g.n_points
    phi = np.fft.fftshift(psi.spectrum) * (g.dx / np.sqrt(2.0 * np.pi))
    e = np.fft.fftshift(g.e_fft)
    w = np.fft.fft(phi, 2 * n)
    np.conjugate(w, out=w)
    w *= np.fft.fft(e * phi, 2 * n)
    w = np.fft.ifft(w)
    q = np.fft.fftfreq(2 * n, 1.0 / (2 * n))  # lags 0..N-1, then -N..-1
    q[0] = 1.0  # lag 0 is set below
    w /= q * g.dp
    w[0] = 0.5 * np.sum(np.abs(phi) ** 2 * (g.p / e))
    w[n] = 0.0  # lag -N holds no pair
    return np.fft.ifft(w[:n] + w[n:]).real * (n * g.dp**2 / np.pi)


# The fast path's table of the module docstring, by kernel name: the density
# symbols A, each a function of the on-shell point (p, E) or None for the
# identity, which needs no transform; and the current, a function of the
# state.
_PAIRS = {
    "born": ((None,), _born_current),
    "scalar": ((d_plus_shell, d_minus_shell), _pair_current(d_plus_shell, d_minus_shell)),
    "spinhalf": ((None, d_vel_shell), _pair_current(None, d_vel_shell)),
}


def _separable(kind: KernelKind, grid: Grid1D, path: str, field: str):
    """The table entry ``field`` ("density" or "current") uses on ``path``,
    or None for the double sum."""
    if path not in ("fast", "generic"):
        raise ValueError(f"unknown path {path!r}; expected 'fast' or 'generic'")
    if kind.name == "literal" and kind.order >= 1:
        # raises, on every path, the error of the first singular pair in row
        # order of the lattice's pair matrix
        kernel_value(kind, grid.p[1], grid.p[-1])
    if path == "generic":
        return None
    density_symbols, current_field = _PAIRS["scalar" if kind.name == "literal" else kind.name]
    return density_symbols if field == "density" else current_field


def density(psi: WaveFunction, kind: KernelKind, path: str = "fast") -> GridField:
    """Probability density of a state under the chosen kernel.

    ``path`` selects "fast" (the default: the kernel's density symbols, on
    the state's one spectrum) or "generic" (the double-sum oracle).  A
    literal kernel of order >= 1 raises :class:`KernelSingularityError` on
    both paths before any field is built: every centered lattice holds a
    pair where it diverges.
    """
    symbols = _separable(kind, psi.grid, path, "density")
    if symbols is None:
        return GridField(psi.grid, _kernel_sum(psi, kind, False))
    spectrum = psi.spectrum if any(symbols) else None
    return GridField(psi.grid, _pair_density(psi.grid, spectrum, symbols, psi.values))


def current(psi: WaveFunction, kind: KernelKind, path: str = "fast") -> GridField:
    """Probability current of a state under the chosen kernel.

    On "fast", the default, every kernel's current comes from the state's
    one spectrum in O(N log N): the scalar and spin-half pairs, 2 Re(conj(D+
    psi) D- psi) and 2 Re(conj(psi) D psi), and the Born current's
    correlation form.  "generic" takes the double-sum oracle with weight
    F * u.
    """
    field = _separable(kind, psi.grid, path, "current")
    values = _kernel_sum(psi, kind, True) if field is None else field(psi)
    return GridField(psi.grid, values)


def fourcurrents(kind: KernelKind, p, a, t, x):
    """Exact four-currents (j0, j1) of M plane-wave superpositions at once.

    ``p`` and ``a`` hold the momenta and amplitudes of the superpositions,
    shape (M, T); ``t`` and ``x`` hold the event coordinates, shape (M, E)
    or broadcastable to it.  The weights F and F u are built once per
    superposition, on (M, 1, T, T) pairs; the phases span (M, E, T, T), and
    the sums run over the last two axes.  Returns j0 and j1, shape (M, E).
    """
    q = _on_shell(p)
    a = np.asarray(a, dtype=np.complex128)
    q1 = [c[:, None, :, None] for c in q]
    q2 = [c[:, None, None, :] for c in q]
    (p1, e1, _, _), (p2, e2, _, _) = q1, q2
    t = np.asarray(t, dtype=float)[..., None, None]
    x = np.asarray(x, dtype=float)[..., None, None]
    weights = _checked_weight(kind, q1, q2, False)
    vel = _pair_weight(BORN, q1, q2, velocity=True)
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

    The free evolution exp(-i E dt), E the grid's one energy lattice, splits
    into real cos(E dt) and sin(E dt) factors on the one spectrum of psi
    that also gives J.  With U = A cos psi and V = A sin psi for each
    density symbol A, A psi(+/-dt) = U -/+ i V, so

        rho(t + dt) - rho(t - dt) = 4 sum_A Im(conj(U) V),

    with no difference of two nearly equal densities to round off.  The
    spatial derivative is spectral.  For a state within half the Nyquist
    band, with E dt << 1 over its occupied band, the residual decays as
    dt^2.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    g = psi.grid
    symbols = _separable(kind, g, "fast", "density")
    cos = _shell_symbol(g, lambda p, e: np.cos(e * dt))
    sin = _shell_symbol(g, lambda p, e: np.sin(e * dt))
    drho = 0.0
    for a in symbols:
        # the phase joins the symbol's factor, and this symbol's images go
        # before the next one's are built: one complex temporary at a time
        u, v = (
            _image(g, psi.spectrum, lambda p, e: f if a is None else a(p, e) * f)
            for f in (cos, sin)
        )
        drho = drho + (u.real * v.imag - u.imag * v.real)
        del u, v
    del cos, sin  # frees their memory for the current's transforms
    j = _separable(kind, g, "fast", "current")(psi)
    residual = 2.0 * drho / dt + spectral_derivative(g, j)
    return float(np.max(np.abs(residual)))


def normalize_for_kernel(psi: WaveFunction, kind: KernelKind) -> WaveFunction:
    """Rescale so the kernel's density integrates to one; idempotent.

    A total that is zero, negative or not finite raises ValueError."""
    # an overflowing total is reported once, by the error below
    with np.errstate(over="ignore"):
        total = density(psi, kind).integral()
    if not 0.0 < total < np.inf:
        raise ValueError(
            f"cannot normalize: total density is {total} "
            "(zero or negative state, or not finite)"
        )
    return WaveFunction(psi.grid, psi.values / np.sqrt(total))
