import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import salpeter1d as s


def test_make_grid_basic_geometry():
    g = s.make_grid(-5, 5, 8)
    assert g.dx == 1.25
    np.testing.assert_allclose(g.dp, 2 * np.pi / 10, rtol=1e-15)
    assert g.p[0] == -4 * g.dp
    assert g.p[-1] == 3 * g.dp
    assert s.make_grid(0, 1, 4).dx == 0.25


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError, match="degenerate"):
        s.make_grid(0, 0, 8)
    with pytest.raises(ValueError, match="power of two"):
        s.make_grid(0, 1, 12)
    with pytest.raises(ValueError, match="power of two"):
        s.make_grid(0, 1, 2)


def test_round_trip_is_identity():
    rng = np.random.default_rng(0)
    g = s.make_grid(-10, 10, 256)
    for _ in range(5):
        vals = rng.normal(size=256) + 1j * rng.normal(size=256)
        psi = s.WaveFunction(g, vals)
        back = s.to_position(s.to_momentum(psi))
        np.testing.assert_allclose(back.values, psi.values, atol=1e-12)


def test_parseval():
    rng = np.random.default_rng(1)
    g = s.make_grid(-7, 9, 512)
    vals = rng.normal(size=512) + 1j * rng.normal(size=512)
    psi = s.WaveFunction(g, vals)
    phi = s.to_momentum(psi)
    assert abs(phi.norm() ** 2 - psi.norm() ** 2) <= 1e-12 * psi.norm() ** 2


def test_lattice_plane_wave_concentrates():
    g = s.make_grid(-10, 10, 128)
    k = 9
    p0 = g.dp * k
    psi = s.WaveFunction(g, np.exp(1j * p0 * g.x))
    phi = s.to_momentum(psi)
    weights = np.abs(phi.values) ** 2
    assert np.argmax(weights) == np.argmin(np.abs(g.p - p0))
    off_peak = np.sum(weights) - np.max(weights)
    assert off_peak <= 1e-20 * np.max(weights)


def test_zero_and_linearity():
    g = s.make_grid(-4, 4, 64)
    zero = s.WaveFunction(g, np.zeros(64))
    assert s.to_momentum(zero).norm() == 0.0
    rng = np.random.default_rng(2)
    a = s.MomentumSpectrum(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    b = s.MomentumSpectrum(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    combo = s.MomentumSpectrum(g, 2.0 * a.values - 1.5j * b.values)
    lhs = s.to_position(combo).values
    rhs = 2.0 * s.to_position(a).values - 1.5j * s.to_position(b).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_spectral_multiplier_identity_symbol():
    g = s.make_grid(-4, 4, 64)
    rng = np.random.default_rng(3)
    phi = s.MomentumSpectrum(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    out = s.spectral_multiplier(phi, lambda p: np.ones_like(p))
    np.testing.assert_array_equal(out.values, phi.values)


def test_momentum_symbol_matches_derivative():
    # p-multiplication must equal -i d/dx; check against finite differences
    g = s.make_grid(-20, 20, 1024)
    psi = s.gaussian_state(0.0, 0.4, 0.5, g)
    by_symbol = s.apply_symbol(psi, lambda p: p).values
    h = g.dx
    fd = (np.roll(psi.values, -1) - np.roll(psi.values, 1)) / (2 * h)
    np.testing.assert_allclose(by_symbol, -1j * fd, atol=5e-4)


def test_spectral_derivative_of_sine():
    g = s.make_grid(-np.pi, np.pi, 256)
    f = np.sin(3 * g.x)
    df = s.spectral_derivative(g, f)
    assert np.isrealobj(df)
    np.testing.assert_allclose(df, 3 * np.cos(3 * g.x), atol=1e-12)


@pytest.mark.parametrize("n_points", [4, 8, 64, 1024, 4096])
def test_real_derivative_matches_complex_path(n_points):
    # irfft(rfft(f) i p) against the real part of ifft(fft(f) i p): the
    # Nyquist bin's derivative is imaginary and drops out of both
    g = s.make_grid(-2.0, 3.0, n_points)
    rng = np.random.default_rng(n_points)
    nyquist = (-1.0) ** np.arange(n_points)
    noise = rng.normal(size=n_points)
    fields = [noise, noise + nyquist, rng.uniform(0.0, 1.0, n_points)]
    for f in fields:
        by_complex = s.apply_symbol(s.WaveFunction(g, f), lambda p: 1j * p).values.real
        df = s.spectral_derivative(g, f)
        assert df.dtype == np.float64
        peak = np.max(np.abs(by_complex))
        assert np.max(np.abs(df - by_complex)) <= 1e-15 * peak
    np.testing.assert_array_equal(s.spectral_derivative(g, nyquist), 0.0)
    with_nyquist = s.spectral_derivative(g, noise + nyquist)
    alone = s.spectral_derivative(g, noise)
    assert np.max(np.abs(with_nyquist - alone)) <= 1e-15 * np.max(np.abs(alone))


def test_complex_derivative_keeps_the_complex_path():
    g = s.make_grid(-2.0, 3.0, 256)
    rng = np.random.default_rng(5)
    f = rng.normal(size=256) + 1j * rng.normal(size=256)
    by_symbol = s.apply_symbol(s.WaveFunction(g, f), lambda p: 1j * p).values
    df = s.spectral_derivative(g, f)
    assert df.dtype == np.complex128
    assert df.tobytes() == by_symbol.tobytes()


@pytest.mark.parametrize("values", [np.zeros(65), np.zeros(65, complex), np.zeros((2, 64))])
def test_derivative_rejects_wrong_shape(values):
    g = s.make_grid(-4, 4, 64)
    with pytest.raises(ValueError, match="shape"):
        s.spectral_derivative(g, values)


def test_spectrum_is_the_raw_fft_computed_once():
    g = s.make_grid(-3.0, 5.0, 256)
    rng = np.random.default_rng(9)
    psi = s.WaveFunction(g, rng.normal(size=256) + 1j * rng.normal(size=256))
    spectrum = psi.spectrum
    assert spectrum.tobytes() == np.fft.fft(psi.values).tobytes()
    assert psi.spectrum is spectrum
    with pytest.raises(ValueError):
        spectrum[0] = 0.0


def test_energy_lattice_is_energy_in_fft_order():
    g = s.make_grid(-3.0, 5.0, 256)
    assert g.e_fft.tobytes() == s.energy(g.p_fft).tobytes()
    assert g.e_fft is g.e_fft
    with pytest.raises(ValueError):
        g.e_fft[0] = 0.0


def test_symbol_error_names_lattice_point():
    g = s.make_grid(-4, 4, 64)
    phi = s.MomentumSpectrum(g, np.ones(64))

    def bad(p):
        out = np.asarray(p, dtype=complex).copy()
        out[p == 0.0] = np.nan
        return out

    with pytest.raises(ValueError, match="not finite at lattice point"):
        s.spectral_multiplier(phi, bad)


def test_real_symbol_norm_preservation_iff_unimodular():
    g = s.make_grid(-16, 16, 256)
    psi = s.gaussian_state(0.0, 0.5, 0.4, g)
    phi = s.to_momentum(psi)
    evolved = s.spectral_multiplier(phi, lambda p: np.exp(-1j * s.energy(p) * 2.7))
    assert abs(evolved.norm() - phi.norm()) <= 1e-12
    scaled = s.spectral_multiplier(phi, s.energy)
    assert abs(scaled.norm() - phi.norm()) > 1e-3


def test_values_are_immutable():
    g = s.make_grid(-4, 4, 64)
    psi = s.WaveFunction(g, np.zeros(64))
    with pytest.raises(ValueError):
        psi.values[0] = 1.0
    with pytest.raises(ValueError):
        g.x[0] = 99.0


def test_wrong_length_rejected():
    g = s.make_grid(-4, 4, 64)
    with pytest.raises(ValueError, match="shape"):
        s.WaveFunction(g, np.zeros(65))


def test_inner_product_adjoint_pairing():
    g = s.make_grid(-8, 8, 128)
    rng = np.random.default_rng(4)
    a = s.WaveFunction(g, rng.normal(size=128) + 1j * rng.normal(size=128))
    b = s.WaveFunction(g, rng.normal(size=128) + 1j * rng.normal(size=128))
    assert s.inner_product(a, b) == pytest.approx(np.conj(s.inner_product(b, a)))


def _random_state(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.n_points
    return s.WaveFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n))


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(
    x_min=st.floats(-50.0, 50.0),
    width=st.floats(0.5, 100.0),
    n_points=st.sampled_from([4, 8, 64, 256, 1024]),
    seed=st.integers(0, 2**32 - 1),
)
def test_unitary_round_trip_and_parseval(x_min, width, n_points, seed):
    g = s.make_grid(x_min, x_min + width, n_points)
    psi = _random_state(g, seed)
    phi = s.to_momentum(psi)
    scale = np.max(np.abs(psi.values))
    assert np.max(np.abs(s.to_position(phi).values - psi.values)) <= 1e-13 * scale
    assert abs(phi.norm() ** 2 - psi.norm() ** 2) <= 1e-13 * psi.norm() ** 2


SYMBOLS = {
    "energy": s.energy,
    "d_plus": s.d_plus,
    "d_minus_signed": s.d_minus_signed,
    "d_vel": s.d_vel,
    "derivative": lambda p: 1j * p,
    "evolution": lambda p: np.exp(-1j * s.energy(p) * 0.7),
}


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(
    x_min=st.floats(-50.0, 50.0),
    width=st.floats(0.5, 100.0),
    n_points=st.sampled_from([4, 8, 64, 256, 1024]),
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(sorted(SYMBOLS)),
)
def test_apply_symbol_equals_unitary_frame(x_min, width, n_points, seed, name):
    # the x_min phase, centring shift and weights of to_momentum cancel
    # against those of to_position
    g = s.make_grid(x_min, x_min + width, n_points)
    psi = _random_state(g, seed)
    symbol = SYMBOLS[name]
    framed = s.to_position(s.spectral_multiplier(s.to_momentum(psi), symbol)).values
    raw = s.apply_symbol(psi, symbol).values
    assert np.max(np.abs(raw - framed)) <= 1e-13 * np.max(np.abs(framed))


def test_symbol_error_names_centred_index_on_every_path():
    g = s.make_grid(-4, 4, 64)
    psi = s.WaveFunction(g, np.ones(64))

    def bad(p):
        return np.where(p == g.p[5], np.nan, 1.0)

    expected = f"symbol is not finite at lattice point p_5 = {g.p[5]!r}"
    for apply in (
        lambda: s.spectral_multiplier(s.to_momentum(psi), bad),
        lambda: s.apply_symbol(psi, bad),
    ):
        with pytest.raises(ValueError) as info:
            apply()
        assert str(info.value).startswith(expected)
