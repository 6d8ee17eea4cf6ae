"""The benchmark's own reference computations, written apart from salpeter1d.

Nothing here imports the package under test: the formulas are restated from
the paper's definitions so that a fault in the program cannot hide in its own
cross-check.  Natural units (hbar = c = m = 1).
"""

import numpy as np

#: relative gap allowed between a program output and its reference
REL_TOL = 1e-10
#: the scalar density may dip below zero only by roundoff
POSITIVITY_FLOOR = -1e-10
#: a real state has rho(t) = rho(-t) and J = 0, so its continuity residual is
#: roundoff over dt: at most 2e-9 seen at N = 2^20 (box widths 0.5 to 2)
CONTINUITY_BOUND = 1e-6


def seeded_waves(rng, dp, count=6, k_max=15):
    """Lattice-aligned plane-wave superposition: distinct k in [-k_max, k_max]."""
    ks = rng.choice(np.arange(-k_max, k_max + 1), size=count, replace=False)
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    return amps, dp * ks


def _energy(p):
    return np.sqrt(p * p + 1.0)


def pair_weights(kernel, p, current):
    """F(p_i, p_l), times the pair velocity u when ``current`` is set."""
    e = _energy(p)
    u = (p[:, None] + p[None, :]) / (e[:, None] + e[None, :])
    if kernel == "born":
        f = np.ones_like(u)
    elif kernel == "scalar":
        f = 1.0 / np.sqrt(1.0 - u * u)
    elif kernel == "spinhalf":
        d = p / (1.0 + e)
        f = 1.0 + d[:, None] * d[None, :]
    else:
        raise ValueError(f"no reference for kernel {kernel!r}")
    return f * u if current else f


def planewave_field(kernel, amps, momenta, x, current=False):
    """Closed-form double sum  sum_il W_il A_i* A_l exp(i (p_l - p_i) x)."""
    w = pair_weights(kernel, momenta, current)
    waves = amps[:, None] * np.exp(1j * np.multiply.outer(momenta, x))
    return np.real(np.sum(np.conj(waves) * (w @ waves), axis=0))


def mean_energy(values, dx):
    """<H> = sum E(k) |psi_k|^2 dx / N with numpy's own FFT."""
    n = values.size
    k = 2.0 * np.pi * np.fft.fftfreq(n, dx)
    return float(np.sum(_energy(k) * np.abs(np.fft.fft(values)) ** 2) * dx / n)


def box_born_density(box_width, n, x):
    """Normalised sin^2 density of the n-th infinite-well mode on [0, L]."""
    inside = (x >= 0.0) & (x <= box_width)
    rho = np.where(inside, np.sin(n * np.pi * x / box_width) ** 2, 0.0)
    return rho / (np.sum(rho) * (x[1] - x[0]))


def rel_gap(got, want):
    """Sup-norm gap over the reference's sup norm."""
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - want))) / scale
