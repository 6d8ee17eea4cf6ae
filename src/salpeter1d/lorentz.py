"""Lorentz boosts and exact covariance checks on plane-wave superpositions.

A kernel's four-current is covariant when the boosted-frame current at the
boosted event equals the boosted original current.  That ends up being a
functional constraint on the kernel; this module evaluates the constraint
residual for a momentum pair and the end-to-end four-vector residual over a
set of events.  The amplitude transformation only fixes |A'|; phases are
kept, since the plane-wave phase p x - E t is frame-invariant at
corresponding events and any extra phase would inject spurious residuals.

Both checks are array operations over a whole sweep:
:func:`constraint_residuals` takes (p_i, p_j, v) tuples of any shape and
:func:`fourvector_residuals` takes M superpositions with their boosts, so
the CLI covariance sweep is one array pass per kernel, in float64
throughout, so its numbers do not depend on the platform's long double.
:func:`singular_tuples` marks beforehand the tuples where a literal kernel
diverges.  The per-item functions :func:`constraint_report`,
:func:`transform_amplitudes` and :func:`covariance_residual` run on the
same cores and give bitwise the same numbers.
"""

from dataclasses import dataclass

import numpy as np

from .currents import (
    KernelKind,
    fourcurrent_planewaves,
    fourcurrents,
    gamma_pair,
    kernel_singular,
    kernel_value,
)
from .hamiltonian import energy
from .states import MOMENTUM_DISTINCT_TOL, PlaneWaveSuperposition


@dataclass(frozen=True)
class Boost:
    """A 1+1-D boost with velocity strictly inside (-1, 1)."""

    velocity: float

    def __post_init__(self):
        if not abs(self.velocity) < 1.0:
            raise ValueError(f"|boost velocity| must be < 1, got {self.velocity}")

    @property
    def gamma(self) -> float:
        return float(_gamma(self.velocity))


def compose_boosts(b1: Boost, b2: Boost) -> Boost:
    """Relativistic velocity addition."""
    v1, v2 = b1.velocity, b2.velocity
    return Boost((v1 + v2) / (1.0 + v1 * v2))


def _gamma(v):
    return 1.0 / np.sqrt((1.0 - v) * (1.0 + v))


def _boost(p, v):
    return _gamma(v) * (p - v * energy(p))


def boost_momentum(p, b: Boost):
    """p' = gamma (p - v E(p)); preserves the mass shell E'^2 - p'^2 = 1."""
    return _boost(np.asarray(p), b.velocity)


def boost_event(t: float, x: float, b: Boost) -> tuple[float, float]:
    """(t', x') = (gamma (t - v x), gamma (x - v t))."""
    g, v = b.gamma, b.velocity
    return (g * (t - v * x), g * (x - v * t))


def _check_velocities(v) -> None:
    bad = ~(np.abs(v) < 1.0)
    if np.any(bad):
        raise ValueError(f"|boost velocity| must be < 1, got {float(v[bad][0])}")


def _transform(kind: KernelKind, p, a, v):
    """Boosted momenta and amplitudes of M superpositions: p, a (M, T), v (M,)."""
    p_b = _boost(p, v[:, None])
    scale_sq = (kernel_value(kind, p, p) * gamma_pair(p_b, p_b)) / (
        kernel_value(kind, p_b, p_b) * gamma_pair(p, p)
    )
    return p_b, a * np.sqrt(scale_sq)


def transform_amplitudes(
    s: PlaneWaveSuperposition, b: Boost, kind: KernelKind
) -> PlaneWaveSuperposition:
    """Boost a superposition: momenta via the boost, amplitudes rescaled by

        |A'_i|^2 = (F_ii / F'_ii) (gamma'_ii / gamma_ii) |A_i|^2

    with phases preserved.  For the scalar kernel the factor is identically
    one (F_ii = gamma_ii cancels) and amplitudes are bitwise unchanged.
    """
    p_b, a_b = _transform(
        kind, s.momenta[None], s.amplitudes[None], np.array([b.velocity])
    )
    return PlaneWaveSuperposition(a_b[0], p_b[0])


@dataclass(frozen=True)
class ConstraintReport:
    """Both sides of the kernel covariance constraint for one momentum pair."""

    kind: KernelKind
    p_i: float
    p_j: float
    boost: Boost
    lhs: float
    rhs: float
    residual: float


def constraint_residuals(kind: KernelKind, p_i, p_j, v):
    """The covariance constraint over many (p_i, p_j, v) tuples at once.

    The arguments broadcast against each other.  Returns the two sides and
    their absolute difference, from one float64 pass: the pair factors come
    from the light-cone form of :func:`~salpeter1d.currents.gamma_pair`,
    which does not cancel for any pair of momenta.
    """
    p_i, p_j, v = np.broadcast_arrays(p_i, p_j, v)
    close = np.abs(p_i - p_j) <= MOMENTUM_DISTINCT_TOL
    if np.any(close):
        a, c = float(p_i[close][0]), float(p_j[close][0])
        raise ValueError(
            f"coincident momenta: p_i={a!r}, p_j={c!r} "
            f"(need |p_i - p_j| > {MOMENTUM_DISTINCT_TOL:.0e})"
        )
    _check_velocities(v)
    pi_b, pj_b = _boost(p_i, v), _boost(p_j, v)

    def ratio(func):
        return (func(pi_b, pj_b) ** 2 / (func(pi_b, pi_b) * func(pj_b, pj_b))) * (
            func(p_i, p_i) * func(p_j, p_j) / func(p_i, p_j) ** 2
        )

    lhs = ratio(lambda a, c: kernel_value(kind, a, c))
    rhs = ratio(gamma_pair)
    return lhs, rhs, np.abs(lhs - rhs)


def constraint_report(
    kind: KernelKind, p_i: float, p_j: float, b: Boost
) -> ConstraintReport:
    """Evaluate the covariance constraint

        [F'_ij^2 / (F'_ii F'_jj)] [F_ii F_jj / F_ij^2]
            = [gamma'_ij^2 / (gamma'_ii gamma'_jj)] [gamma_ii gamma_jj / gamma_ij^2]

    in float64.  A kernel whose residual vanishes for all pairs
    and boosts yields a four-vector current; F = 1 (Born) does not.
    """
    lhs, rhs, residual = constraint_residuals(kind, p_i, p_j, b.velocity)
    return ConstraintReport(
        kind=kind,
        p_i=float(p_i),
        p_j=float(p_j),
        boost=b,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
    )


def singular_tuples(kind: KernelKind, p_i, p_j, v) -> np.ndarray:
    """Where a covariance row of two plane waves p_i, p_j and boost v diverges.

    A row evaluates the kernel at the pairs (p_i, p_j), (p_i, p_i) and
    (p_j, p_j), before and after the boost, in float64.  The mask is true
    where :func:`~salpeter1d.currents.kernel_singular` holds at any of them,
    which is exactly where :func:`constraint_report` or
    :func:`covariance_residual` raises :class:`KernelSingularityError`,
    short of nearly opposite pairs whose F overflows float64.
    """
    p_i, p_j, v = np.broadcast_arrays(p_i, p_j, v)
    pi_b, pj_b = _boost(p_i, v), _boost(p_j, v)
    mask = np.zeros(p_i.shape, dtype=bool)
    for a, c in ((p_i, p_j), (p_i, p_i), (p_j, p_j), (pi_b, pj_b), (pi_b, pi_b), (pj_b, pj_b)):
        mask |= kernel_singular(kind, a, c)
    return mask


def default_events() -> list[tuple[float, float]]:
    """3x3 event lattice spanning one Compton wavelength and time at origin."""
    pts = (-0.5, 0.0, 0.5)
    return [(t, x) for t in pts for x in pts]


def _event_coordinates(events):
    """The t and x coordinates of an event list (default: :func:`default_events`)."""
    if events is None:
        events = default_events()
    events = list(events)
    if not events:
        raise ValueError("need at least one event")
    events = np.array(events, dtype=float)
    if events.ndim != 2 or events.shape[1] != 2:
        raise ValueError("events must be (t, x) pairs")
    return events.T


def _fourvector_gap(here, there, g, v):
    """|J' - Lambda J| (2-norm) of currents J = here, J' = there, boost (g, v)."""
    (h0, h1), (b0, b1) = here, there
    return np.hypot(b0 - g * (h0 - v * h1), b1 - g * (h1 - v * h0))


def fourvector_residuals(
    kind: KernelKind,
    p,
    a,
    v,
    events: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """:func:`covariance_residual` of M superpositions at once.

    ``p`` and ``a`` hold momenta and amplitudes, shape (M, T), and ``v`` the
    M boost velocities.  Every superposition is checked at the same events;
    returns the M residuals.
    """
    t, x = _event_coordinates(events)
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=np.complex128)
    v = np.asarray(v, dtype=float)
    _check_velocities(v)
    p_b, a_b = _transform(kind, p, a, v)
    here = fourcurrents(kind, p, a, t[None], x[None])
    g, v = _gamma(v)[:, None], v[:, None]
    there = fourcurrents(kind, p_b, a_b, g * (t - v * x), g * (x - v * t))
    return np.max(_fourvector_gap(here, there, g, v), axis=1)


def covariance_residual(
    s: PlaneWaveSuperposition,
    kind: KernelKind,
    b: Boost,
    events: list[tuple[float, float]] | None = None,
) -> float:
    """Max over events of |J'(boosted event) - Lambda J(event)| (2-norm).

    The primed current uses :func:`transform_amplitudes`; everything is
    evaluated with the exact plane-wave closed form, so a nonzero residual
    is a genuine covariance failure, not discretization error.  Gives
    bitwise the numbers of :func:`fourvector_residuals` for one
    superposition.
    """
    s_b = transform_amplitudes(s, b, kind)
    here, there = [], []
    for t, x in zip(*_event_coordinates(events)):
        j = fourcurrent_planewaves(s, kind, t, x)
        j_b = fourcurrent_planewaves(s_b, kind, *boost_event(t, x, b))
        here.append((j.j0, j.j1))
        there.append((j_b.j0, j_b.j1))
    gap = _fourvector_gap(np.transpose(here), np.transpose(there), b.gamma, b.velocity)
    return float(np.max(gap))
