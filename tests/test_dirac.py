import numpy as np
import pytest
from conftest import box_grid, lattice_wave, random_state

import salpeter1d as s


class TestLift:
    def test_rest_wave_has_empty_lower_component(self):
        g = s.make_grid(-12, 12, 256)
        psi, _ = lattice_wave(g, 0.0)
        field = s.lift(psi)
        assert np.max(np.abs(field.lower)) < 1e-14

    def test_lower_component_ratio(self):
        g = s.make_grid(-12, 12, 256)
        psi, p0 = lattice_wave(g, 0.8)
        field = s.lift(psi)
        np.testing.assert_allclose(
            field.lower / field.upper, s.d_vel(p0), atol=1e-12
        )

    def test_linearity(self):
        g = s.make_grid(-12, 12, 256)
        a, _ = lattice_wave(g, 0.4)
        b, _ = lattice_wave(g, -1.3)
        combo = s.WaveFunction(g, 1.5 * a.values - 0.7j * b.values)
        direct = s.lift(combo)
        fa, fb = s.lift(a), s.lift(b)
        np.testing.assert_allclose(
            direct.lower, 1.5 * fa.lower - 0.7j * fb.lower, atol=1e-12
        )


class TestDiracCurrent:
    def test_empty_lower_component(self):
        g = s.make_grid(-12, 12, 64)
        upper = np.exp(-g.x**2) * (1.0 + 0.5j)
        field = s.DiracField(g, upper, np.zeros(64))
        rho, j = s.dirac_current(field)
        np.testing.assert_allclose(rho.values, np.abs(upper) ** 2, atol=1e-15)
        assert np.max(np.abs(j.values)) == 0.0

    def test_lifted_wave_velocity(self):
        g = s.make_grid(-12, 12, 256)
        psi, p0 = lattice_wave(g, 0.5)
        rho, j = s.dirac_current(s.lift(psi))
        np.testing.assert_allclose(
            j.values / rho.values, p0 / s.energy(p0), atol=1e-12
        )

    def test_matches_spinhalf_pair_on_random_states(self):
        g = s.make_grid(-16, 16, 256)
        rng = np.random.default_rng(20)
        psi = random_state(g, rng)
        rho_d, j_d = s.dirac_current(s.lift(psi))
        np.testing.assert_allclose(
            rho_d.values, s.density(psi, s.SPIN_HALF).values, atol=1e-12
        )
        np.testing.assert_allclose(
            j_d.values, s.current(psi, s.SPIN_HALF).values, atol=1e-12
        )
        # and against the double-sum oracle path
        np.testing.assert_allclose(
            rho_d.values, s.density(psi, s.SPIN_HALF, path="generic").values, atol=1e-10
        )

    def test_component_length_validation(self):
        g = s.make_grid(-12, 12, 64)
        with pytest.raises(ValueError, match="shape"):
            s.DiracField(g, np.zeros(64), np.zeros(63))

    @pytest.mark.parametrize("component", ["upper", "lower"])
    def test_nonfinite_component_rejected(self, component):
        g = s.make_grid(-12, 12, 64)
        parts = {"upper": np.zeros(64), "lower": np.zeros(64)}
        parts[component][7] = np.nan
        with pytest.raises(ValueError, match=r"values must be finite: values\[7\]"):
            s.DiracField(g, **parts)


class TestDiracEvolve:
    def test_zero_time_is_identity(self):
        g = s.make_grid(-12, 12, 256)
        rng = np.random.default_rng(21)
        field = s.lift(random_state(g, rng))
        out = s.dirac_evolve(field, 0.0)
        np.testing.assert_allclose(out.upper, field.upper, atol=1e-14)
        np.testing.assert_allclose(out.lower, field.lower, atol=1e-14)

    def test_positive_energy_mode_phase(self):
        g = s.make_grid(-12, 12, 256)
        psi, p0 = lattice_wave(g, 1.1)
        field = s.lift(psi)
        t = 0.9
        out = s.dirac_evolve(field, t)
        phase = np.exp(-1j * s.energy(p0) * t)
        np.testing.assert_allclose(out.upper, phase * field.upper, atol=1e-12)
        np.testing.assert_allclose(out.lower, phase * field.lower, atol=1e-12)

    def test_probability_conserved(self):
        g = s.make_grid(-12, 12, 256)
        rng = np.random.default_rng(22)
        field = s.lift(random_state(g, rng))
        before = field.total_probability()
        after = s.dirac_evolve(field, 2.4).total_probability()
        assert abs(after - before) <= 1e-12 * before

    def test_intertwines_with_lift(self):
        g = s.make_grid(-16, 16, 512)
        rng = np.random.default_rng(23)
        psi = random_state(g, rng)
        t = 1.3
        via_dirac = s.dirac_evolve(s.lift(psi), t)
        via_lift = s.lift(s.evolve_free(psi, t))
        np.testing.assert_allclose(via_dirac.upper, via_lift.upper, atol=1e-12)
        np.testing.assert_allclose(via_dirac.lower, via_lift.lower, atol=1e-12)


class TestPositiveEnergyContent:
    def test_lift_has_no_negative_energy_component(self):
        g = s.make_grid(-16, 16, 512)
        rng = np.random.default_rng(24)
        assert s.negative_energy_fraction(s.lift(random_state(g, rng))) < 1e-12

    def test_lower_only_field_is_not_positive_energy(self):
        g = s.make_grid(-12, 12, 256)
        psi, _ = lattice_wave(g, 0.9)
        field = s.DiracField(g, np.zeros(256), psi.values)
        assert s.negative_energy_fraction(field) > 0.5

    def test_zero_field(self):
        g = s.make_grid(-12, 12, 64)
        field = s.DiracField(g, np.zeros(64), np.zeros(64))
        assert s.negative_energy_fraction(field) == 0.0


class TestEquivalenceResiduals:
    def test_superposition_residuals_vanish(self):
        g = s.make_grid(-16, 16, 1024)
        rng = np.random.default_rng(25)
        ks = rng.choice(np.arange(-40, 41), size=8, replace=False)
        sp = s.PlaneWaveSuperposition(
            rng.normal(size=8) + 1j * rng.normal(size=8), g.dp * ks
        )
        cur, evo = s.equivalence_residuals(s.sample_on_grid(sp, g), 0.7)
        assert cur < 1e-12
        assert evo < 1e-12

    def test_box_state_residuals(self):
        psi = s.box_state(1.0, 2, box_grid(1.0, n_points=4096))
        cur, evo = s.equivalence_residuals(psi, 0.7)
        assert cur < 1e-8
        assert evo < 1e-8

    def test_zero_state(self):
        g = s.make_grid(-12, 12, 64)
        zero = s.WaveFunction(g, np.zeros(64))
        assert s.equivalence_residuals(zero, 1.0) == (0.0, 0.0)
