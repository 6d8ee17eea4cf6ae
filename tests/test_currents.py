import tracemalloc
import warnings
from decimal import Decimal, localcontext

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import box_grid, lattice_wave, random_state, random_superposition

import salpeter1d as s
from salpeter1d import currents, grids
from salpeter1d.currents import current_kernel_value, kernel_singular
from salpeter1d.thresholds import BORN_SUPERLUMINAL_MIN, ORACLE_EQUIVALENCE_MAX

finite_momenta = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)

ALL_FAST_KINDS = (s.BORN, s.SCALAR, s.SPIN_HALF)


class TestPairFunctions:
    def test_u_reference_values(self):
        assert s.u_pair(0.8, -0.8) == 0.0
        assert s.u_pair(0.0, 0.0) == 0.0
        p = 1.3
        np.testing.assert_allclose(s.u_pair(p, p), p / s.energy(p), rtol=1e-15)

    @hyp.given(p1=finite_momenta, p2=finite_momenta)
    def test_u_subluminal_and_symmetric(self, p1, p2):
        u = s.u_pair(p1, p2)
        assert abs(u) < 1.0
        assert u == s.u_pair(p2, p1)

    def test_gamma_reference_values(self):
        assert s.gamma_pair(0.9, -0.9) == 1.0
        p = 0.6
        np.testing.assert_allclose(s.gamma_pair(p, p), s.energy(p), rtol=1e-14)

    def test_gamma_equals_signed_factor_product(self):
        p1, p2 = 0.5, 1.0
        product = s.d_plus(p1) * s.d_plus(p2) + s.d_minus_signed(p1) * s.d_minus_signed(p2)
        assert abs(s.gamma_pair(p1, p2) - product) < 1e-14

    @hyp.given(p1=finite_momenta, p2=finite_momenta)
    def test_gamma_separation_identity(self, p1, p2):
        product = s.d_plus(p1) * s.d_plus(p2) + s.d_minus_signed(p1) * s.d_minus_signed(p2)
        assert abs(s.gamma_pair(p1, p2) - product) < 1e-12
        assert s.gamma_pair(p1, p2) >= 1.0

    def test_gamma_exact_against_decimal(self):
        # same-sign pairs of large momenta are where 1/sqrt((1 - u)(1 + u))
        # cancels; the light-cone form must hold the float64 roundoff there
        rng = np.random.default_rng(3)
        size = 10.0 ** rng.uniform(-3.0, 6.0, (400, 2))
        sign = np.where(np.arange(400) % 2 == 0, 1.0, -1.0)
        p1, p2 = size[:, 0], sign * size[:, 1]
        p1 = np.concatenate([p1, [1e6, 1e6, -1e6, 1e6, 1e-3, 0.0]])
        p2 = np.concatenate([p2, [1e6, 999999.0, -999999.5, -999999.0, -1e6, 1e6]])
        got = s.gamma_pair(p1, p2)
        with localcontext() as ctx:
            ctx.prec = 60
            for a, c, g in zip(p1, p2, got):
                a, c = Decimal(float(a)), Decimal(float(c))
                u = (a + c) / ((a * a + 1).sqrt() + (c * c + 1).sqrt())
                exact = 1 / (1 - u * u).sqrt()
                assert abs(Decimal(float(g)) - exact) <= Decimal("1e-15") * exact, (a, c)

    @hyp.given(
        p1=st.floats(-1e6, 1e6),
        p2=st.one_of(st.floats(-1e6, 1e6), st.just(None)),
        order=st.integers(1, 3),
    )
    # not singular, but F = 2/u^2 at u = 5e-201 exceeds float64
    @hyp.example(p1=1e-200, p2=0.0, order=1)
    def test_literal_singular_iff_opposite(self, p1, p2, order):
        # None stands for the exact opposite -p1
        p2 = -p1 if p2 is None else p2
        kind = s.literal_half_integer(order)
        singular = kernel_singular(kind, p1, p2)
        assert singular == (p1 + p2 == 0.0)
        # F is finite off the singular pairs, unless it overflows float64
        # at a nearly opposite pair; it raises in both cases, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                f = s.kernel_value(kind, p1, p2)
            except s.KernelSingularityError:
                assert singular or abs(p1 + p2) < 1e-30
            else:
                assert not singular and np.isfinite(f)


class TestKernelValues:
    def test_born_is_one(self):
        assert s.kernel_value(s.BORN, 1.7, -0.3) == 1.0

    def test_spinhalf_reference_values(self):
        assert s.kernel_value(s.SPIN_HALF, 0.0, 0.0) == 1.0
        p = 0.5
        e = s.energy(p)
        np.testing.assert_allclose(
            s.kernel_value(s.SPIN_HALF, p, p), 2 * e / (1 + e), rtol=1e-15
        )

    @hyp.given(p1=finite_momenta, p2=finite_momenta)
    def test_symmetry(self, p1, p2):
        for kind in ALL_FAST_KINDS:
            assert s.kernel_value(kind, p1, p2) == s.kernel_value(kind, p2, p1)

    def test_literal_order_zero_equals_scalar(self):
        assert s.kernel_value(s.literal_half_integer(0), 0.6, -1.3) == s.kernel_value(
            s.SCALAR, 0.6, -1.3
        )

    def test_literal_singular_at_opposite_momenta(self):
        kind = s.literal_half_integer(1)
        with pytest.raises(s.KernelSingularityError, match="gamma = 1"):
            s.kernel_value(kind, 0.7, -0.7)
        with pytest.raises(s.KernelSingularityError):
            s.kernel_value(kind, 0.0, 0.0)
        with pytest.raises(s.KernelSingularityError):
            s.kernel_value(kind, np.array([0.3, 0.5]), np.array([0.4, -0.5]))

    @pytest.mark.parametrize(
        "kind",
        [s.BORN, s.SCALAR, s.SPIN_HALF, *map(s.literal_half_integer, range(3))],
        ids=str,
    )
    def test_singular_mask_is_where_kernel_value_raises(self, kind):
        rng = np.random.default_rng(7)
        p1 = np.concatenate([rng.uniform(-2.0, 2.0, 12), [0.7, 0.0, -1.3]])
        p2 = np.concatenate([rng.uniform(-2.0, 2.0, 12), [-0.7, 0.0, 1.3]])
        mask = kernel_singular(kind, p1, p2)
        assert mask.shape == p1.shape
        raises = []
        for a, c in zip(p1, p2):
            try:
                s.kernel_value(kind, a, c)
            except s.KernelSingularityError:
                raises.append(True)
            else:
                raises.append(False)
        np.testing.assert_array_equal(mask, raises)
        assert mask[-3:].all() == (kind.name == "literal" and kind.order >= 1)
        assert not mask[:-3].any()

    def test_literal_differs_from_spinhalf(self):
        lit = s.kernel_value(s.literal_half_integer(1), 0.5, 0.5)
        half = s.kernel_value(s.SPIN_HALF, 0.5, 0.5)
        assert abs(lit - half) > 1e-3

    def test_parse_kernel(self):
        assert s.parse_kernel("born") == s.BORN
        assert s.parse_kernel("SCALAR") == s.SCALAR
        assert s.parse_kernel("literal:2") == s.literal_half_integer(2)
        with pytest.raises(ValueError):
            s.parse_kernel("weyl")
        with pytest.raises(ValueError):
            s.parse_kernel("literal:x")

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            s.KernelKind("born", order=1)
        with pytest.raises(ValueError):
            s.KernelKind("literal")
        with pytest.raises(ValueError):
            s.KernelKind("other")


class TestDensity:
    def test_born_is_squared_modulus(self):
        g = s.make_grid(-16, 16, 256)
        psi = s.gaussian_state(0.0, 0.4, 0.4, g)
        np.testing.assert_allclose(
            s.density(psi, s.BORN).values, np.abs(psi.values) ** 2, atol=1e-15
        )

    def test_plane_wave_scalar_density_is_uniform(self):
        g = s.make_grid(-16, 16, 256)
        psi, p0 = lattice_wave(g, 1.1)
        rho = s.density(psi, s.SCALAR).values
        np.testing.assert_allclose(rho, s.energy(p0), atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_FAST_KINDS, ids=str)
    @pytest.mark.parametrize("n_points", [256, 512])
    def test_fast_equals_generic(self, kind, n_points):
        g = s.make_grid(-16, 16, n_points)
        rng = np.random.default_rng(10)
        for psi in (
            s.gaussian_state(0.3, 0.6, 0.4, g),
            s.box_state(1.0, 2, box_grid(1.0, n_points=n_points, pad=8.0)),
            random_state(g, rng),
        ):
            fast = s.density(psi, kind, path="fast").values
            generic = s.density(psi, kind, path="generic").values
            assert np.max(np.abs(fast - generic)) < ORACLE_EQUIVALENCE_MAX
            fast = s.current(psi, kind, path="fast").values
            generic = s.current(psi, kind, path="generic").values
            assert np.max(np.abs(fast - generic)) < ORACLE_EQUIVALENCE_MAX

    def test_generic_path_positivity_within_roundoff(self):
        g = s.make_grid(-16, 16, 256)
        rng = np.random.default_rng(11)
        psi = random_state(g, rng)
        for kind in (s.SCALAR, s.SPIN_HALF):
            assert np.min(s.density(psi, kind, path="generic").values) > -1e-10

    def test_fast_path_positivity_on_random_states(self):
        g = s.make_grid(-20, 20, 512)
        rng = np.random.default_rng(12)
        for _ in range(20):
            psi = random_state(g, rng)
            assert np.min(s.density(psi, s.SCALAR).values) >= 0.0
            assert np.min(s.density(psi, s.SPIN_HALF).values) >= 0.0

    def test_unsigned_variant_breaks_pair_weights(self):
        # diagnostic check: dropping the sign on the odd factor disagrees
        # with the defining double-sum for states holding both momentum signs
        g = box_grid(1.0, n_points=512)
        psi = s.box_state(1.0, 2, g)
        plus = s.apply_d_operator(psi, "plus").values
        minus_unsigned = s.apply_d_operator(psi, "minus_unsigned").values
        rho_unsigned = np.abs(plus) ** 2 + np.abs(minus_unsigned) ** 2
        rho_oracle = s.density(psi, s.SCALAR, path="generic").values
        assert np.max(np.abs(rho_unsigned - rho_oracle)) > 1.0
        rho_signed = s.density(psi, s.SCALAR, path="fast").values
        assert np.max(np.abs(rho_signed - rho_oracle)) < 1e-10

    def test_literal_density_propagates_singularity(self):
        g = s.make_grid(-16, 16, 64)
        psi = s.gaussian_state(0.0, 0.0, 0.5, g)
        with pytest.raises(s.KernelSingularityError):
            s.density(psi, s.literal_half_integer(1))

    @pytest.mark.parametrize("field", [s.density, s.current])
    def test_literal_singularity_raised_before_any_field(self, field):
        # every centered lattice holds an opposite pair; each path finds
        # that without building one array of the grid's size
        n = 2**16
        g = s.make_grid(-16, 16, n)
        psi = s.WaveFunction(g, np.ones(n))
        g.p  # the cached lattice is built before measuring
        for path in ("fast", "generic"):
            tracemalloc.start()
            try:
                with pytest.raises(s.KernelSingularityError, match="gamma = 1"):
                    field(psi, s.literal_half_integer(2), path=path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n

    def test_literal_zero_uses_scalar_pairs(self):
        g = s.make_grid(-16, 16, 256)
        psi = random_state(g, np.random.default_rng(15))
        zero = s.literal_half_integer(0)
        for field in (s.density, s.current):
            np.testing.assert_array_equal(
                field(psi, zero).values, field(psi, s.SCALAR, path="fast").values
            )

    def test_total_density_conserved_under_evolution(self):
        g = s.make_grid(-20, 20, 512)
        rng = np.random.default_rng(13)
        psi = random_state(g, rng)
        psi_t = s.evolve_free(psi, 1.3)
        for kind in ALL_FAST_KINDS:
            before = s.density(psi, kind).integral()
            after = s.density(psi_t, kind).integral()
            assert abs(after - before) <= 1e-10 * before


class TestCurrent:
    def test_real_state_has_zero_spinhalf_current(self):
        g = box_grid(1.0, n_points=1024)
        psi = s.box_state(1.0, 2, g)
        assert np.max(np.abs(s.current(psi, s.SPIN_HALF).values)) < 1e-12

    def test_plane_wave_currents(self):
        g = s.make_grid(-16, 16, 256)
        psi, p0 = lattice_wave(g, 0.9)
        born = s.current(psi, s.BORN).values
        np.testing.assert_allclose(born, p0 / s.energy(p0), atol=1e-12)
        scalar = s.current(psi, s.SCALAR).values
        np.testing.assert_allclose(scalar, p0, atol=1e-12)

    def test_spinhalf_local_equals_generic(self):
        g = s.make_grid(-16, 16, 256)
        psi = s.gaussian_state(0.5, 0.7, 0.4, g)
        local = s.current(psi, s.SPIN_HALF).values
        generic = s.current(psi, s.SPIN_HALF, path="generic").values
        assert np.max(np.abs(local - generic)) < 1e-10

    def test_scalar_current_matches_factor_cross_term(self):
        # gamma * u separates as d+(p1) d-(p2) + d-(p1) d+(p2)
        g = s.make_grid(-16, 16, 256)
        psi = s.gaussian_state(0.0, 0.5, 0.4, g)
        generic = s.current(psi, s.SCALAR, path="generic").values
        plus = s.apply_d_operator(psi, "plus").values
        minus = s.apply_d_operator(psi, "minus_signed").values
        separated = 2.0 * np.real(np.conj(plus) * minus)
        assert np.max(np.abs(generic - separated)) < 1e-10


def _explicit_double_sum(psi, kind, with_velocity):
    """rho_j (or J_j) straight from the lattice double sum in the module docstring."""
    g = psi.grid
    p, x = g.p, g.x
    phi = s.to_momentum(psi).values
    weight = s.kernel_value(kind, p[:, None], p[None, :])
    if with_velocity:
        weight = weight * s.u_pair(p[:, None], p[None, :])
    pair = weight * np.conj(phi)[:, None] * phi[None, :]
    phase = np.exp(1j * (p[None, :, None] - p[:, None, None]) * x[None, None, :])
    return np.sum(pair[:, :, None] * phase, axis=(0, 1)) * (g.dp**2 / (2.0 * np.pi))


def _binned_double_sum(psi, kind, with_velocity):
    """The same double sum with all N^2 pair terms added into their lag bin
    (l - k) mod N, without the kernel's symmetry; O(N^2) memory, not N^3."""
    g = psi.grid
    n, p = g.n_points, g.p
    phi = s.to_momentum(psi).values * np.exp(1j * p * g.x_min)
    weight = s.kernel_value(kind, p[:, None], p[None, :])
    if with_velocity:
        weight = weight * s.u_pair(p[:, None], p[None, :])
    pair = weight * np.conj(phi)[:, None] * phi[None, :]
    lag = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    bins = np.zeros(n, dtype=np.complex128)
    np.add.at(bins, lag, pair)
    return np.fft.ifft(bins) * (n * g.dp**2 / (2.0 * np.pi))


class TestDoubleSumOracle:
    # the explicit sum rounds its phase arguments (p_l - p_k) x_j, which grow
    # as N |x| / width; these ranges keep that rounding far below 1e-12
    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(
        n_points=st.sampled_from([8, 16, 32, 64]),
        x_min=st.floats(-5.0, 5.0),
        width=st.floats(2.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_explicit_double_sum(self, n_points, x_min, width, seed):
        g = s.make_grid(x_min, x_min + width, n_points)
        psi = random_state(g, np.random.default_rng(seed))
        for kind in (s.BORN, s.SCALAR, s.SPIN_HALF, s.literal_half_integer(0)):
            for with_velocity, field in ((False, s.density), (True, s.current)):
                explicit = _explicit_double_sum(psi, kind, with_velocity)
                generic = field(psi, kind, path="generic").values
                scale = np.max(np.abs(explicit))
                assert np.max(np.abs(explicit.imag)) <= 1e-12 * scale
                assert np.max(np.abs(generic - explicit.real)) <= 1e-12 * scale

    # N = 4 is the smallest grid, with one mirrored lag bin; N = 256 has 129
    # lags, two full lag blocks and a partial one
    @hyp.settings(max_examples=5, deadline=None)
    @hyp.given(
        x_min=st.floats(-5.0, 5.0),
        width=st.floats(2.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @pytest.mark.parametrize(
        ("n_points", "reference"),
        [(4, _explicit_double_sum), (256, _binned_double_sum)],
    )
    def test_matches_reference_across_lag_blocks(
        self, n_points, reference, x_min, width, seed
    ):
        g = s.make_grid(x_min, x_min + width, n_points)
        psi = random_state(g, np.random.default_rng(seed))
        for kind in (s.BORN, s.SCALAR, s.SPIN_HALF, s.literal_half_integer(0)):
            for with_velocity, field in ((False, s.density), (True, s.current)):
                expected = reference(psi, kind, with_velocity)
                generic = field(psi, kind, path="generic").values
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(expected.imag)) <= 1e-12 * scale
                assert np.max(np.abs(generic - expected.real)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "kind", [s.BORN, s.SCALAR, s.SPIN_HALF, s.literal_half_integer(0)], ids=str
    )
    @pytest.mark.parametrize(
        ("x_min", "width", "n"), [(-16, 32, 64), (0.3, 2.7, 4), (-900, 4000, 512)]
    )
    def test_pair_weights_symmetric_bit_for_bit(self, kind, x_min, width, n):
        # the oracle sums only lags 0..N/2 and takes bin N - r as conj(bin r),
        # which holds only for weights that equal their transpose exactly
        p = s.make_grid(x_min, x_min + width, n).p
        for weight in (s.kernel_value, current_kernel_value):
            w = weight(kind, p[:, None], p[None, :])
            np.testing.assert_array_equal(w, w.T)

    def test_memory_stays_below_one_pair_matrix(self):
        n = 1024
        g = s.make_grid(-16, 16, n)
        psi = s.gaussian_state(0.0, 0.5, 0.4, g)
        one_matrix = n * n * np.dtype(np.complex128).itemsize
        for field, kind in ((s.current, s.BORN), (s.density, s.SCALAR)):
            tracemalloc.start()
            try:
                field(psi, kind, path="generic")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < one_matrix, (field.__name__, kind)

    def test_memory_holds_one_lag_block_at_a_time(self):
        # a block's weights and weighted phi window are freed before the next
        # block's weights are built: keeping them alive adds a complex block
        n = 1024
        g = s.make_grid(-16, 16, n)
        psi = s.gaussian_state(0.0, 0.5, 0.4, g)
        block = currents._LAG_BLOCK * n * np.dtype(np.complex128).itemsize
        for kind in (s.BORN, s.SCALAR, s.SPIN_HALF, s.literal_half_integer(0)):
            for field in (s.density, s.current):
                tracemalloc.start()
                try:
                    field(psi, kind, path="generic")
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 2.5 * block, (field.__name__, str(kind), peak / block)

    @pytest.mark.parametrize(
        "kind", [s.BORN, s.SCALAR, s.SPIN_HALF, s.literal_half_integer(0)], ids=str
    )
    @pytest.mark.parametrize(
        ("x_min", "width", "n"), [(-16, 32, 256), (-900, 4000, 512), (0.3, 2.7, 4)]
    )
    def test_lag_weights_equal_pair_matrix_rows(self, kind, x_min, width, n):
        # block row i is lag r = lags.start + i: the pairs (p_k, p_{(k + r) mod N}),
        # bit for bit
        p = s.make_grid(x_min, x_min + width, n).p
        k = np.arange(n)
        for with_velocity, weight in ((False, s.kernel_value), (True, current_kernel_value)):
            full = weight(kind, p[:, None], p[None, :])
            assert full.dtype == np.float64
            covered = 0
            for lags, block in currents._lag_weights(kind, p, with_velocity):
                rows = np.array([full[k, (k + r) % n] for r in range(lags.start, lags.stop)])
                if block is None:
                    assert kind is s.BORN and not with_velocity
                    assert np.all(rows == 1.0)
                else:
                    assert block.dtype == np.float64 and block.shape == rows.shape
                    assert np.all(block == rows)
                assert lags.start == covered
                covered = lags.stop
            assert covered == n // 2 + 1

    def test_energy_evaluated_once_per_lattice_point(self, monkeypatch):
        # the lags' energies are windows of the lattice's N energies: the
        # number of energy evaluations does not grow with the lag blocks
        calls = []

        def counted(p):
            calls.append(np.shape(p))
            return s.energy(p)

        monkeypatch.setattr(currents, "energy", counted)
        counts = {}
        for n in (512, 2048):
            g = s.make_grid(-20, 20, n)
            psi = random_state(g, np.random.default_rng(n))
            calls.clear()
            s.density(psi, s.SCALAR, path="generic")
            s.current(psi, s.BORN, path="generic")
            assert all(shape == (n,) for shape in calls), calls
            counts[n] = len(calls)
        assert counts[512] == counts[2048]

    @pytest.mark.parametrize("field", [s.density, s.current])
    def test_literal_singularity_message_unchanged(self, field):
        g = s.make_grid(-16, 16, 64)
        psi = s.gaussian_state(0.0, 0.0, 0.5, g)
        kind = s.literal_half_integer(1)
        with pytest.raises(s.KernelSingularityError) as dense:
            s.kernel_value(kind, g.p[:, None], g.p[None, :])
        with pytest.raises(s.KernelSingularityError) as folded:
            field(psi, kind, path="generic")
        assert str(folded.value) == str(dense.value)
        with pytest.raises(s.KernelSingularityError) as early:
            field(psi, kind)
        assert str(early.value) == str(dense.value)


class TestPairTable:
    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(
        n_points=st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024]),
        x_min=st.floats(-10.0, 10.0),
        width=st.floats(1.0, 4000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_double_sum(self, n_points, x_min, width, seed):
        g = s.make_grid(x_min, x_min + width, n_points)
        psi = random_state(g, np.random.default_rng(seed))
        for kind in (s.BORN, s.SCALAR, s.SPIN_HALF, s.literal_half_integer(0)):
            for field in (s.density, s.current):
                fast = field(psi, kind, path="fast").values
                generic = field(psi, kind, path="generic").values
                # the double sum's roundoff grows with N and the largest
                # energy on the lattice; relative to the field's peak
                scale = max(1.0, float(np.max(np.abs(generic))))
                assert np.max(np.abs(fast - generic)) <= ORACLE_EQUIVALENCE_MAX * scale

    @pytest.mark.parametrize(
        "grid",
        [s.make_grid(-0.5, 0.5, 2048), box_grid(1.0)],
        ids=["N2048-width1", "figure1-default"],
    )
    def test_matches_double_sum_at_production_momenta(self, grid):
        # p_max 6.4e3 and 3.2e3: the momenta the CLI's grids reach, where
        # the oracle's pair factor must not cancel
        psi = random_state(grid, np.random.default_rng(grid.n_points))
        fields = [(s.density, kind) for kind in (*ALL_FAST_KINDS, s.literal_half_integer(0))]
        fields += [(s.current, kind) for kind in ALL_FAST_KINDS]
        for field, kind in fields:
            fast = field(psi, kind, path="fast").values
            generic = field(psi, kind, path="generic").values
            scale = float(np.max(np.abs(generic)))
            assert np.max(np.abs(fast - generic)) <= ORACLE_EQUIVALENCE_MAX * scale

    def test_default_path_never_reaches_the_double_sum(self, monkeypatch):
        def oracle(*args):
            raise AssertionError("the double sum was reached")

        monkeypatch.setattr(currents, "_kernel_sum", oracle)
        g = s.make_grid(-16, 16, 256)
        psi = random_state(g, np.random.default_rng(31))
        for kind in (*ALL_FAST_KINDS, s.literal_half_integer(0)):
            s.density(psi, kind)
            s.current(psi, kind)
            s.continuity_residual(psi, kind, 1e-4)
        for field in (s.density, s.current):
            with pytest.raises(AssertionError, match="double sum"):
                field(psi, s.BORN, path="generic")
            with pytest.raises(ValueError, match="unknown path 'auto'"):
                field(psi, s.BORN, path="auto")

    # Peak traced allocation of each fast field at N = 2^16, in complex
    # arrays of N points, as the separate-transform implementation measured
    # it: 0.5, 4.5, 4.5, 4.0 and 7.0 arrays, plus up to 4.2 kB of Python
    # objects (8 KiB allowed for those).  That implementation sent the scalar
    # current and scalar continuity through the double sum, whose 64-row
    # weight blocks alone take 64 such arrays; they are held to the bounds of
    # the scalar density and of the spin-half continuity.  The Born current's
    # correlation holds two 2N-point spectra at once: 6.6 arrays measured
    # (7.1 for its continuity), where ten would still be O(N).
    @pytest.mark.parametrize(
        "name,call,arrays",
        [
            ("density born", lambda psi: s.density(psi, s.BORN), 0.5),
            ("density scalar", lambda psi: s.density(psi, s.SCALAR), 4.5),
            ("density spinhalf", lambda psi: s.density(psi, s.SPIN_HALF), 4.5),
            ("current scalar", lambda psi: s.current(psi, s.SCALAR), 4.5),
            ("current spinhalf", lambda psi: s.current(psi, s.SPIN_HALF), 4.0),
            ("current born", lambda psi: s.current(psi, s.BORN), 7.0),
            ("continuity born",
             lambda psi: s.continuity_residual(psi, s.BORN, 1e-4), 7.5),
            ("continuity scalar",
             lambda psi: s.continuity_residual(psi, s.SCALAR, 1e-4), 7.0),
            ("continuity spinhalf",
             lambda psi: s.continuity_residual(psi, s.SPIN_HALF, 1e-4), 7.0),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_peak_memory(self, name, call, arrays):
        n = 2**16
        psi = s.box_state(1.0, 2, box_grid(1.0, n_points=n))
        call(psi)  # fills the grid's cached lattices
        tracemalloc.start()
        try:
            call(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= arrays * n * np.dtype(np.complex128).itemsize + 8192, name


def _field_set(psi):
    """The spectral benchmark's field set: three densities, the spin-half
    current and its continuity residual."""
    return [
        s.density(psi, s.BORN).values,
        s.density(psi, s.SCALAR).values,
        s.density(psi, s.SPIN_HALF).values,
        s.current(psi, s.SPIN_HALF).values,
        s.continuity_residual(psi, s.SPIN_HALF, 1e-4),
    ]


class TestOneSpectrumPerState:
    """A state is transformed once and a grid's energies are evaluated once,
    whatever fields are taken from them."""

    def test_one_forward_fft_per_state(self, monkeypatch):
        calls = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        g = s.make_grid(-16, 16, 512)
        psi = random_state(g, np.random.default_rng(21))
        _field_set(psi)
        s.current(psi, s.SCALAR)
        assert calls == [(512,)]
        _field_set(s.box_state(1.0, 2, g))
        assert calls == [(512,), (512,)]

    def test_energy_evaluated_once_per_grid(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(np.shape(p))
            return s.energy(p)

        monkeypatch.setattr(grids, "energy", counted)
        monkeypatch.setattr(currents, "energy", counted)
        g = s.make_grid(-16, 16, 512)
        _field_set(random_state(g, np.random.default_rng(22)))
        _field_set(s.box_state(1.0, 2, g))
        for kind in (s.BORN, s.SCALAR):
            s.current(s.box_state(1.0, 2, g), kind)
        assert calls == [(512,)]

    @pytest.mark.parametrize("state", ["white noise", "box"])
    def test_reused_state_gives_the_fresh_fields(self, state):
        g = box_grid(1.0, n_points=1024)
        if state == "box":
            values = s.box_state(1.0, 2, g).values
        else:
            values = random_state(g, np.random.default_rng(23)).values
        fields = [
            *(lambda psi, k=k: s.density(psi, k).values for k in ALL_FAST_KINDS),
            *(lambda psi, k=k: s.current(psi, k).values for k in ALL_FAST_KINDS),
            *(lambda psi, k=k: s.continuity_residual(psi, k, 1e-4) for k in ALL_FAST_KINDS),
        ]
        fresh = [field(s.WaveFunction(g, values)) for field in fields]
        reused = s.WaveFunction(g, values)
        for _ in range(2):
            for field, want in zip(fields, fresh):
                assert np.array_equal(field(reused), want)

    def test_field_set_memory(self):
        # a fresh state's field set keeps the state's spectrum and the grid's
        # energy lattice, 1.5 complex N-arrays, and no evaluated symbol.  The
        # peak, with the four output fields held (2 arrays), is 8.5 arrays;
        # it was 8.0 with neither spectrum nor energies kept, and a kept
        # symbol adds at least another half
        n = 2**16
        g = box_grid(1.0, n_points=n)
        psi = s.box_state(1.0, 2, g)
        g.p, g.p_fft  # the momentum lattices are built before measuring
        array = n * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            _field_set(psi)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 1.5 * array + 8192
        assert peak <= 8.75 * array


class TestFourCurrent:
    def test_single_term_scalar(self):
        amp = 0.8 + 0.1j
        p = 0.7
        sample = s.fourcurrent_planewaves(
            s.PlaneWaveSuperposition([amp], [p]), s.SCALAR, 0.3, -0.2
        )
        np.testing.assert_allclose(sample.j0, s.energy(p) * abs(amp) ** 2, rtol=1e-14)
        np.testing.assert_allclose(sample.j1, p * abs(amp) ** 2, rtol=1e-14)

    def test_single_term_scalar_is_timelike(self):
        amp = 1.3 - 0.4j
        p = -1.1
        sample = s.fourcurrent_planewaves(
            s.PlaneWaveSuperposition([amp], [p]), s.SCALAR, 0.0, 0.5
        )
        interval = sample.j0**2 - sample.j1**2
        np.testing.assert_allclose(interval, abs(amp) ** 4, rtol=1e-12)
        assert interval > 0.0

    def test_born_density_factorizes(self):
        amps = np.array([1.0, 0.5 - 0.2j, -0.3j])
        moms = np.array([0.2, -0.8, 1.5])
        sp = s.PlaneWaveSuperposition(amps, moms)
        for x in (-1.3, 0.0, 0.77):
            sample = s.fourcurrent_planewaves(sp, s.BORN, 0.0, x)
            direct = abs(np.sum(amps * np.exp(1j * moms * x))) ** 2
            np.testing.assert_allclose(sample.j0, direct, rtol=1e-13)

    def test_matches_independent_double_sum(self):
        rng = np.random.default_rng(14)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        moms = np.array([-1.4, -0.2, 0.5, 1.9])
        sp = s.PlaneWaveSuperposition(amps, moms)
        t, x = 0.4, -0.9
        for kind in ALL_FAST_KINDS:
            j0 = 0.0 + 0.0j
            j1 = 0.0 + 0.0j
            for i in range(4):
                for j in range(4):
                    w = s.kernel_value(kind, moms[i], moms[j])
                    u = s.u_pair(moms[i], moms[j])
                    phase = np.exp(
                        1j
                        * (
                            (moms[j] - moms[i]) * x
                            - (s.energy(moms[j]) - s.energy(moms[i])) * t
                        )
                    )
                    term = w * np.conj(amps[i]) * amps[j] * phase
                    j0 += term
                    j1 += u * term
            assert abs(j0.imag) < 1e-12
            assert abs(j1.imag) < 1e-12
            sample = s.fourcurrent_planewaves(sp, kind, t, x)
            np.testing.assert_allclose(sample.j0, j0.real, atol=1e-12)
            np.testing.assert_allclose(sample.j1, j1.real, atol=1e-12)

    def test_grid_density_matches_pointwise(self):
        g = s.make_grid(-16, 16, 256)
        ks = np.array([3, -5, 11, 20])
        sp = s.PlaneWaveSuperposition(
            np.array([1.0, 0.5 + 0.2j, -0.3j, 0.8]), g.dp * ks
        )
        psi = s.sample_on_grid(sp, g)
        for kind in ALL_FAST_KINDS:
            dens = s.density(psi, kind).values
            j0 = np.array(
                [s.fourcurrent_planewaves(sp, kind, 0.0, x).j0 for x in g.x]
            )
            assert np.max(np.abs(dens - j0)) < 1e-10


class TestFourCurrentDefinitions:
    """The plane-wave four-current against sums written from the definitions."""

    events = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)

    @hyp.settings(max_examples=50, deadline=None)
    @hyp.given(
        n_terms=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), t=events, x=events
    )
    def test_born_density_is_squared_sum(self, n_terms, seed, t, x):
        sp = random_superposition(np.random.default_rng(seed), n_terms)
        j0 = s.fourcurrent_planewaves(sp, s.BORN, t, x).j0
        expected = abs(s.sample_superposition(sp, t, x)) ** 2
        scale = np.sum(np.abs(sp.amplitudes)) ** 2
        assert abs(j0 - expected) <= 1e-12 * scale

    @hyp.settings(max_examples=50, deadline=None)
    @hyp.given(
        n_terms=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), t=events, x=events
    )
    def test_scalar_current_from_square_root_factors(self, n_terms, seed, t, x):
        # S+- = sum_i A_i d+-(p_i) e^{i(p_i x - E_i t)};
        # j0 = |S+|^2 + |S-|^2 and j1 = 2 Re(conj(S+) S-)
        sp = random_superposition(np.random.default_rng(seed), n_terms)
        p = sp.momenta
        waves = np.array([
            a * np.exp(1j * (pk * x - s.energy(pk) * t))
            for a, pk in zip(sp.amplitudes, p)
        ])
        d_plus, d_minus = s.d_plus(p), s.d_minus_signed(p)
        s_plus = np.sum(d_plus * waves)
        s_minus = np.sum(d_minus * waves)
        sample = s.fourcurrent_planewaves(sp, s.SCALAR, t, x)
        scale = np.sum(np.abs(waves) * (d_plus + np.abs(d_minus))) ** 2
        assert abs(sample.j0 - (abs(s_plus) ** 2 + abs(s_minus) ** 2)) <= 1e-12 * scale
        assert abs(sample.j1 - 2.0 * np.real(np.conj(s_plus) * s_minus)) <= 1e-12 * scale


class TestContinuity:
    def test_plane_wave_is_stationary(self):
        g = s.make_grid(-16, 16, 256)
        psi, _ = lattice_wave(g, 1.2)
        for kind in ALL_FAST_KINDS:
            assert s.continuity_residual(psi, kind, 1e-4) < 1e-10

    def test_second_order_decay_for_all_kernels(self):
        g = s.make_grid(-16, 16, 256)
        p1 = g.dp * round(0.2 / g.dp)
        p2 = g.dp * round(1.96 / g.dp)
        psi = s.sample_on_grid(s.PlaneWaveSuperposition([1.0, 0.7], [p1, p2]), g)
        for kind in ALL_FAST_KINDS:
            coarse = s.continuity_residual(psi, kind, 1e-4)
            fine = s.continuity_residual(psi, kind, 5e-5)
            assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize("kind", ALL_FAST_KINDS, ids=str)
    def test_split_phase_is_the_evolved_density_difference(self, kind):
        # 4 sum_A Im(conj(U) V) is rho(t + dt) - rho(t - dt) exactly; at
        # dt = 0.1 the two evolved densities differ by O(1), so subtracting
        # them is a roundoff-level reference
        g = s.make_grid(-16, 16, 256)
        psi = random_state(g, np.random.default_rng(7))
        dt = 0.1
        plus, minus = (s.density(s.evolve_free(psi, t), kind).values for t in (dt, -dt))
        j = s.current(psi, kind).values
        want = np.max(np.abs((plus - minus) / (2 * dt) + s.spectral_derivative(g, j)))
        assert abs(s.continuity_residual(psi, kind, dt) - want) <= 1e-13 * want

    def test_evolved_box_state_spinhalf(self):
        g = box_grid(1.0, n_points=4096)
        psi = s.box_state(1.0, 2, g)
        # regression bound pinned by a reference run at this exact geometry
        assert s.continuity_residual(psi, s.SPIN_HALF, 1e-4) < 1e-9

    def test_rejects_nonpositive_dt(self):
        g = s.make_grid(-16, 16, 64)
        psi = s.gaussian_state(0.0, 0.0, 0.5, g)
        with pytest.raises(ValueError, match="dt"):
            s.continuity_residual(psi, s.BORN, 0.0)


    @pytest.mark.parametrize("kind", ALL_FAST_KINDS, ids=str)
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_exact_without_dt(self, kind, n):
        # d(rho)/dt = sum_A 2 Im(conj(A psi) A H psi) over the density
        # symbols, and d(rho)/dt + dJ/dx cancels pair by pair.  A lag that
        # wraps past N/2 takes the derivative of the aliased lag, so the
        # spectrum is zero outside half the Nyquist band
        g = s.make_grid(-20, 20, n)
        rng = np.random.default_rng(n)
        band = np.abs(g.p) < 0.5 * g.p_nyquist
        phi = np.where(band, rng.normal(size=n) + 1j * rng.normal(size=n), 0.0)
        psi = s.to_position(s.MomentumSpectrum(g, phi))
        h_psi = s.apply_hamiltonian(psi)
        symbols = {
            "born": [None], "scalar": ["plus", "minus_signed"], "spinhalf": [None, "vel"],
        }[kind.name]
        rho_dot = 0.0
        for a in symbols:
            a_psi, a_h_psi = (
                v.values if a is None else s.apply_d_operator(v, a).values
                for v in (psi, h_psi)
            )
            rho_dot = rho_dot + 2.0 * np.imag(np.conj(a_psi) * a_h_psi)
        j = s.current(psi, kind).values
        residual = rho_dot + s.spectral_derivative(g, j)
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rho_dot))


# rho + J and rho - J as squares, written from the light-cone momenta a and b
# and from d, with neither the pair table nor the pair weights:
# scalar S+ = sqrt(b), S- = sqrt(a); spin-half S+- = 1 +- d
_LIGHT_CONE_FACTORS = {
    "scalar": (lambda p: np.sqrt(currents._on_shell(p)[3]),
               lambda p: np.sqrt(currents._on_shell(p)[2])),
    "spinhalf": (lambda p: 1.0 + s.d_vel(p), lambda p: 1.0 - s.d_vel(p)),
}
EPS = np.finfo(float).eps


class TestCausality:
    """|J| <= rho pointwise for the separable kernels; Born's current breaks it."""

    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(
        n_points=st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024]),
        x_min=st.floats(-10.0, 10.0),
        width=st.floats(1.0, 4000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_light_cone_components_are_squares(self, n_points, x_min, width, seed):
        g = s.make_grid(x_min, x_min + width, n_points)
        psi = random_state(g, np.random.default_rng(seed))
        for kind in (s.SCALAR, s.SPIN_HALF):
            plus, minus = (
                np.abs(s.apply_symbol(psi, f).values) ** 2
                for f in _LIGHT_CONE_FACTORS[kind.name]
            )
            peak = max(np.max(plus), np.max(minus))
            for path in ("fast", "generic"):
                rho = s.density(psi, kind, path=path).values
                j = s.current(psi, kind, path=path).values
                # 4.3 eps measured on both paths up to N = 1024
                assert np.max(np.abs(rho + j - plus)) <= 16 * EPS * peak
                assert np.max(np.abs(rho - j - minus)) <= 16 * EPS * peak
                assert np.min(rho - np.abs(j)) >= -EPS * peak

    def test_born_current_exceeds_its_density_on_the_grid(self):
        # the `continuity` command's state at N = 2^14; measured max |J|/rho:
        # born 3.43, scalar 0.61, spin-half 0.995
        g = s.make_grid(-16.0, 16.0, 2**14)
        p1 = g.dp * round(0.2 / g.dp)
        p2 = g.dp * round(1.96 / g.dp)
        psi = s.sample_on_grid(s.PlaneWaveSuperposition([1.0, 0.7], [p1, p2]), g)
        ratio, margin = {}, {}
        for kind in ALL_FAST_KINDS:
            rho = s.density(psi, kind).values
            j = s.current(psi, kind).values
            ratio[kind.name] = float(np.max(np.abs(j) / rho))
            margin[kind.name] = float(np.min(rho - np.abs(j)) / np.max(rho))
        assert ratio["born"] > 3.0
        assert margin["born"] < -0.05  # measured -0.076
        assert ratio["scalar"] < 1.0 and ratio["spinhalf"] < 1.0
        assert margin["scalar"] > 0.0 and margin["spinhalf"] > 0.0

    def test_born_superluminal_in_closed_form(self):
        # two unit plane waves at the asymmetric pair (0.2, 1.96), t = 0: Born's
        # min(j0 - |j1|) is -0.25, the others stay >= 0.17.  The symmetric
        # pair (0.5, -0.5) gives Born exactly 0 and witnesses nothing
        x = np.linspace(-10.0, 10.0, 2001)[None]
        margin = {}
        for kind in ALL_FAST_KINDS:
            j0, j1 = currents.fourcurrents(kind, [[0.2, 1.96]], [[1.0, 1.0]], [[0.0]], x)
            margin[kind.name] = float(np.min(j0 - np.abs(j1)))
        assert margin["born"] < -BORN_SUPERLUMINAL_MIN
        assert margin["scalar"] > 0.0 and margin["spinhalf"] > 0.0


class TestNormalizeForKernel:
    def test_born_is_plain_l2(self):
        g = s.make_grid(-16, 16, 256)
        psi = s.WaveFunction(g, 3.7 * s.gaussian_state(0.0, 0.2, 0.4, g).values)
        out = s.normalize_for_kernel(psi, s.BORN)
        assert abs(out.norm() - 1.0) < 1e-12

    def test_scalar_rescales_by_energy_root(self):
        g = s.make_grid(-60, 60, 2048)
        p0 = 0.8
        psi = s.gaussian_state(0.0, p0, 0.2, g)
        out = s.normalize_for_kernel(psi, s.SCALAR)
        ratio = np.abs(out.values[1024] / psi.values[1024])
        np.testing.assert_allclose(ratio, 1.0 / np.sqrt(s.energy(p0)), rtol=1e-2)
        assert abs(s.density(out, s.SCALAR).integral() - 1.0) < 1e-10

    def test_idempotent(self):
        g = s.make_grid(-16, 16, 256)
        psi = s.gaussian_state(0.0, 0.5, 0.4, g)
        once = s.normalize_for_kernel(psi, s.SPIN_HALF)
        twice = s.normalize_for_kernel(once, s.SPIN_HALF)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    @pytest.mark.parametrize("kind", [s.BORN, s.SCALAR, s.SPIN_HALF], ids=str)
    def test_overflowing_total_rejected_without_warnings(self, kind):
        # |psi|^2 overflows: the total is inf, which once came back as an
        # all-zero state after an overflow warning
        g = s.make_grid(-16, 16, 256)
        psi = s.WaveFunction(g, 1e200 * s.gaussian_state(0.0, 0.5, 0.4, g).values)
        with pytest.raises(ValueError, match="total density is inf"):
            s.normalize_for_kernel(psi, kind)

    def test_zero_state_rejected(self):
        g = s.make_grid(-16, 16, 64)
        zero = s.WaveFunction(g, np.zeros(64))
        with pytest.raises(ValueError, match="zero or negative"):
            s.normalize_for_kernel(zero, s.BORN)
