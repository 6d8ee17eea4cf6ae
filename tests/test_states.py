import tracemalloc

import numpy as np
import pytest
from conftest import box_grid

import salpeter1d as s


class TestBoxState:
    def test_ground_state_peak_value(self):
        g = box_grid(1.0)
        psi = s.box_state(1.0, 1, g)
        j = np.argmin(np.abs(g.x - 0.5))
        assert g.x[j] == 0.5
        np.testing.assert_allclose(psi.values[j].real, np.sqrt(2), rtol=1e-12)

    def test_first_excited_node_at_center(self):
        g = box_grid(1.0)
        psi = s.box_state(1.0, 2, g)
        j = np.argmin(np.abs(g.x - 0.5))
        assert abs(psi.values[j]) < 1e-12

    @pytest.mark.parametrize("width,n", [(1.0, 1), (0.5, 2), (10.0, 3), (0.1, 2)])
    def test_unit_norm(self, width, n):
        psi = s.box_state(width, n, box_grid(width, n_points=2048))
        assert abs(psi.norm() - 1.0) < 1e-10

    def test_zero_outside_box(self):
        g = box_grid(1.0, n_points=512)
        psi = s.box_state(1.0, 2, g)
        outside = (g.x < 0.0) | (g.x > 1.0)
        assert np.max(np.abs(psi.values[outside])) == 0.0

    def test_rejects_box_outside_grid(self):
        g = s.make_grid(0.5, 4.5, 256)
        with pytest.raises(ValueError, match="strictly contain"):
            s.box_state(1.0, 1, g)

    def test_rejects_insufficient_padding(self):
        g = s.make_grid(-1.0, 2.0, 256)
        with pytest.raises(ValueError, match="padding"):
            s.box_state(1.0, 1, g)

    def test_rejects_bad_quantum_number(self):
        with pytest.raises(ValueError, match="quantum number"):
            s.box_state(1.0, 0, box_grid(1.0, n_points=256))


class TestSuperposedBoxState:
    def test_unit_norm(self):
        psi = s.superposed_box_state(0.5, box_grid(0.5))
        assert abs(psi.norm() - 1.0) < 1e-10

    def test_center_value_is_inverse_sqrt_width(self):
        # the second mode vanishes at L/2, the first contributes N = 1/sqrt(L)
        for width in (1.0, 0.5):
            g = box_grid(width)
            psi = s.superposed_box_state(width, g)
            j = np.argmin(np.abs(g.x - 0.5 * width))
            np.testing.assert_allclose(
                psi.values[j].real, 1.0 / np.sqrt(width), rtol=1e-10
            )

    def test_equal_mode_weights(self):
        # the two sine modes are orthogonal on [0, L]; each carries weight 1/2
        width = 0.7
        g = box_grid(width)
        psi = s.superposed_box_state(width, g)
        for n in (1, 2):
            mode = s.box_state(width, n, g)
            overlap = s.inner_product(mode, psi)
            np.testing.assert_allclose(abs(overlap) ** 2, 0.5, rtol=1e-10)


class TestGaussianState:
    def test_unit_norm_and_spectrum_peak(self):
        g = s.make_grid(-600, 600, 4096)
        psi = s.gaussian_state(0.0, 0.0, 0.01, g)
        assert abs(psi.norm() - 1.0) < 1e-10
        phi = s.to_momentum(psi)
        assert abs(g.p[np.argmax(np.abs(phi.values))]) < g.dp

    def test_momentum_variance(self):
        g = s.make_grid(-80, 80, 2048)
        sigma_p = 0.2
        psi = s.gaussian_state(0.0, 0.3, sigma_p, g)
        w = np.abs(s.to_momentum(psi).values) ** 2
        w /= np.sum(w)
        mean = np.sum(g.p * w)
        var = np.sum((g.p - mean) ** 2 * w)
        np.testing.assert_allclose(var, sigma_p**2, rtol=1e-2)

    def test_rejects_boundary_leak(self):
        g = s.make_grid(-8, 8, 256)
        with pytest.raises(ValueError, match="leaks past the grid"):
            s.gaussian_state(0.0, 0.0, 0.05, g)  # sigma_x = 10 on a 16-wide grid

    def test_rejects_nyquist_leak(self):
        g = s.make_grid(-8, 8, 64)  # p_nyquist ~ 12.6
        with pytest.raises(ValueError, match="Nyquist"):
            s.gaussian_state(0.0, 11.0, 2.0, g)

    def test_rejects_nonpositive_spread(self):
        g = s.make_grid(-8, 8, 64)
        with pytest.raises(ValueError, match="sigma_p"):
            s.gaussian_state(0.0, 0.0, 0.0, g)


class TestPlaneWaveSuperposition:
    def test_single_term_sample(self):
        sp = s.PlaneWaveSuperposition([1.0], [0.0])
        np.testing.assert_allclose(
            s.sample_superposition(sp, 1.0, 0.0), np.exp(-1j), rtol=1e-15
        )

    def test_conjugate_pair_is_cosine(self):
        q = 0.8
        sp = s.PlaneWaveSuperposition([0.5, 0.5], [q, -q])
        x = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(
            s.sample_superposition(sp, 0.0, x), np.cos(q * x), atol=1e-14
        )

    def test_origin_sample_is_amplitude_sum(self):
        amps = np.array([0.3 + 0.1j, -0.2, 1.1j])
        sp = s.PlaneWaveSuperposition(amps, [0.1, 0.5, -0.4])
        np.testing.assert_allclose(
            s.sample_superposition(sp, 0.0, 0.0), np.sum(amps), rtol=1e-15
        )

    def test_time_derivative_matches_on_shell_energies(self):
        sp = s.PlaneWaveSuperposition([1.0, 0.5 - 0.3j, 0.2j], [0.3, -0.9, 1.4])
        t0, x0, dt = 0.37, 0.81, 1e-5
        numeric = (
            s.sample_superposition(sp, t0 + dt, x0)
            - s.sample_superposition(sp, t0 - dt, x0)
        ) / (2 * dt)
        exact = sum(
            -1j * e * a * np.exp(1j * (p * x0 - e * t0))
            for a, p, e in zip(sp.amplitudes, sp.momenta, sp.energies)
        )
        assert abs(numeric - exact) < 1e-8

    def test_rejects_coincident_momenta(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            s.PlaneWaveSuperposition([1.0, 1.0], [0.5, 0.5 + 1e-13])

    def test_near_duplicate_reports_original_indices(self):
        moms = np.array([0.9, 0.5 + 1e-13, -0.3, 1.7, 0.5, 0.2])
        expected = (
            f"momenta must be pairwise distinct: p[1]={moms[1]!r} and "
            f"p[4]={moms[4]!r} are closer than 1e-12"
        )
        with pytest.raises(ValueError) as info:
            s.PlaneWaveSuperposition(np.ones(moms.size), moms)
        assert str(info.value) == expected

    def test_large_superposition_constructs_in_linear_memory(self):
        n = 2**16
        moms = np.random.default_rng(5).permutation(np.linspace(-50.0, 50.0, n))
        tracemalloc.start()
        try:
            sp = s.PlaneWaveSuperposition(np.ones(n), moms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sp) == n
        # one N x N float64 matrix would be 32 GiB; the inputs are 1.5 MiB
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "amps,moms,bad",
        [
            ([1.0, 1.0], [0.5, np.nan], "p[1]=nan"),
            ([1.0, 1.0], [-np.inf, 0.5], "p[0]=-inf"),
            ([1.0, np.inf], [0.5, 0.7], "A[1]=(inf+0j)"),
            ([1.0, complex(0.0, np.nan)], [0.5, 0.7], "A[1]=nanj"),
            # a NaN gap used to hide the exact duplicate beside it
            ([1.0, 1.0, 1.0], [0.5, 0.5, np.nan], "p[2]=nan"),
        ],
        ids=["nan-momentum", "inf-momentum", "inf-amplitude", "nan-amplitude",
             "duplicate-beside-nan"],
    )
    def test_rejects_non_finite_terms(self, amps, moms, bad):
        with pytest.raises(ValueError, match="must be finite") as info:
            s.PlaneWaveSuperposition(amps, moms)
        assert bad in str(info.value)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one term"):
            s.PlaneWaveSuperposition([], [])

    def test_sample_on_grid_concentrates_on_lattice(self):
        g = s.make_grid(-10, 10, 128)
        sp = s.PlaneWaveSuperposition([1.0, 2.0], g.dp * np.array([3, -5]))
        phi = s.to_momentum(s.sample_on_grid(sp, g))
        weights = np.abs(phi.values) ** 2
        top = np.sort(weights)[-2:]
        assert np.sum(weights) - np.sum(top) < 1e-20 * np.max(weights)
