import numpy as np
import pytest
from click.testing import CliRunner

from heatctx import (
    Crossing,
    DecompositionError,
    NonResonantInteraction,
    NumericsError,
    ParamError,
    PartialSwapInteraction,
    ResonantInteraction,
    Superoperator,
    builtin_micadei,
    choi_matrix,
    extract_stochastic_reversibility,
    find_critical_times,
    find_minimal_pd,
    interaction_unitary,
    nc_bound_theorem1,
    nc_bound_theorem2,
    qutrit_critical_times_analytic,
    sequential_b_factors,
    swap_operator,
    trace_preservation_residual,
    unitary_to_superoperator,
)

from heatctx.contextuality import (
    CHOI_EIGENVALUE_FLOOR,
    IDENTITY_GAP_TOL,
    MINIMAL_PD_TOL,
    _cptp_verdict,
    _eigenbasis_gaps,
    _residual_channel,
    _symmetrized_conjugation,
)
from heatctx import dynamics
from heatctx.cli import main
from heatctx.scenarios import FACTORS, _ScenarioEngine

from conftest import (
    count_calls,
    random_density,
    random_hermitian,
    random_unitary,
    reference_cptp_verdict,
    reference_minimal_pd,
    reference_tp_residual,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)

# Every named factor on qubits, plus the qutrit partial SWAP (d = 9).
FACTOR_CASES = [(kind, 2) for kind in FACTORS] + [("partial-swap", 3)]


def factor_generator(kind, local_dim, g, a=0.0, theta=0.0):
    return FACTORS[kind].generator(g, a, theta, local_dim)


def seeded_factor_cases(kind, local_dim, seed, n, gt_range=(1e-5, 2 * np.pi)):
    """n (generator, t, g t, analytic p_d) of one factor: g t log-uniform, random g, a, theta."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        gt = float(np.exp(rng.uniform(*np.log(gt_range))))
        g = rng.uniform(0.2, 2.0)
        a, theta = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2 * np.pi)
        h = factor_generator(kind, local_dim, g, a, theta)
        yield h, gt / g, gt, float(FACTORS[kind].p_d(g, gt / g, a))


# Below this g t the eigvalsh reference divides the roundoff of the d^2 x d^2
# Choi matrix by a p_d near 0 and misjudges; there the analytic p_d is the
# reference.
REFERENCE_GT_MIN = 0.05
# The minimal p_d lies above its threshold by at most one bracket
# (MINIMAL_PD_TOL relative), and the threshold, where min eig(A) meets the
# -1e-9 floor, below the analytic p_d by less than 1e-9 relative.
PD_REL_RESOLUTION = 2 * MINIMAL_PD_TOL


def assert_matches_the_reference(h, t, gt, p_analytic):
    p, report = find_minimal_pd(h, t)
    ref_p, ref_cptp = reference_minimal_pd(h, t)
    if gt >= REFERENCE_GT_MIN:
        assert (p, report.is_cptp) == (ref_p, ref_cptp)
    else:
        # The reference's roundoff errs towards "not CPTP"; where it flips the
        # verdict at the bisection point nearest the threshold, the two searches
        # part within one bracket.
        assert report.is_cptp
        assert p <= ref_p * (1 + MINIMAL_PD_TOL)
        assert abs(p - p_analytic) <= PD_REL_RESOLUTION * p_analytic


class TestSuperoperator:
    def test_identity(self):
        s = Superoperator.identity(3)
        x = np.arange(9).reshape(3, 3).astype(complex)
        assert np.array_equal(s.apply(x), x)

    def test_conjugation_matches_direct(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 4):
            u = random_unitary(rng, d)
            s = unitary_to_superoperator(u)
            x = random_density(rng, d)
            assert np.max(np.abs(s.apply(x) - u @ x @ u.conj().T)) < 1e-12

    def test_sigma_x_on_basis_matrices(self):
        s = unitary_to_superoperator(SX)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                assert np.allclose(s.apply(e), SX @ e @ SX)

    def test_swap_point_conjugation(self):
        u = interaction_unitary(PartialSwapInteraction(1.0, 2).hamiltonian(), np.pi / 2)
        s = unitary_to_superoperator(u)
        swap = swap_operator(2)
        rng = np.random.default_rng(44)
        x = random_density(rng, 4)
        assert np.max(np.abs(s.apply(x) - swap @ x @ swap)) < 1e-12


class TestChoi:
    def test_identity_channel_choi(self):
        lam = choi_matrix(Superoperator.identity(2)).matrix
        w = np.linalg.eigvalsh(lam)
        assert np.allclose(w, [0, 0, 0, 2], atol=1e-12)
        assert np.trace(lam).real == pytest.approx(2.0)

    def test_matches_the_blockwise_construction(self):
        # Lambda assembled block by block: block (i, j) is C(|i><j|).
        rng = np.random.default_rng(12)
        for k in range(200):
            d = (2, 3, 4, 9)[k % 4]
            m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            s = Superoperator(d, m)
            lam = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    block = m[:, j * d + i].reshape(d, d, order="F")
                    lam[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
            assert np.array_equal(choi_matrix(s).matrix, (lam + lam.conj().T) / 2)

    def test_unitary_conjugation_choi_is_rank_one(self):
        rng = np.random.default_rng(9)
        for d in (2, 4):
            s = unitary_to_superoperator(random_unitary(rng, d))
            w = np.linalg.eigvalsh(choi_matrix(s).matrix)
            assert np.max(np.abs(w[:-1])) < 1e-9
            assert w[-1] == pytest.approx(d, abs=1e-9)
            assert trace_preservation_residual(s) < 1e-12


def map_with_choi(lam):
    """The superoperator whose Choi matrix is lam (the Choi reshape is its own inverse)."""
    d = int(round(np.sqrt(lam.shape[0])))
    return Superoperator(d, lam.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d))


class TestCptpVerdict:
    @pytest.mark.parametrize("min_eig,ok", [(-2e-9, False), (-0.5e-9, True)])
    def test_choi_floor(self, min_eig, ok):
        # A classical qubit channel: its Choi matrix is diag(P(a|i)), rows summing to 1.
        lam = np.diag([1 - min_eig, min_eig, 0.5, 0.5]).astype(complex)
        s = map_with_choi(lam)
        assert np.array_equal(choi_matrix(s).matrix, lam)
        assert np.linalg.eigvalsh(lam).min() == min_eig
        assert _cptp_verdict(lam) is ok
        assert reference_cptp_verdict(s) is ok

    def test_not_trace_preserving(self):
        s = map_with_choi(np.diag([1.0, 1e-8, 0.5, 0.5]).astype(complex))
        assert trace_preservation_residual(s) == pytest.approx(1e-8)
        assert reference_cptp_verdict(s) is False

    def test_tp_residual_matches_the_loop(self):
        # The einsum sums each trace in another order than np.trace: a few ulps apart.
        rng = np.random.default_rng(12)
        for k in range(200):
            d = (2, 3, 4, 9)[k % 4]
            m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            s = Superoperator(d, m)
            ref = reference_tp_residual(s)
            assert abs(trace_preservation_residual(s) - ref) <= 1e-15 * max(1.0, ref)


class TestDecomposition:
    def test_partial_swap_channel_is_swap_conjugation(self):
        g, t = 1.0, 0.8
        h = PartialSwapInteraction(g, 2).hamiltonian()
        p_d = np.sin(g * t) ** 2
        assert extract_stochastic_reversibility(h, t, p_d).is_cptp
        c = _residual_channel(_symmetrized_conjugation(interaction_unitary(h, t)), p_d)
        swap_conj = unitary_to_superoperator(swap_operator(2))
        assert np.max(np.abs(c.matrix - swap_conj.matrix)) < 1e-10

    def test_nonresonant_choi_spectrum(self):
        g, t = 0.7, 1.3
        h = NonResonantInteraction(g).hamiltonian()
        report = extract_stochastic_reversibility(h, t, np.sin(g * t / 2) ** 2)
        assert report.is_cptp
        w = np.sort(report.choi_eigenvalues)
        assert np.max(np.abs(w[:15])) < 1e-9
        assert w[15] == pytest.approx(4.0, abs=1e-9)

    def test_exchange_factor_choi_spectrum(self):
        g, t = 1.0, 0.6
        for theta in (0.0, np.pi / 4, np.pi / 2):
            inter = ResonantInteraction(g, a=0.0, theta=theta)
            report = extract_stochastic_reversibility(inter.exchange_part(), t, np.sin(g * t) ** 2)
            assert report.is_cptp
            w = np.sort(report.choi_eigenvalues)
            assert np.max(np.abs(w[:15])) < 1e-9
            assert w[15] == pytest.approx(4.0, abs=1e-9)

    def test_pd_zero_requires_identity(self):
        h = NonResonantInteraction(1.0).hamiltonian()
        with pytest.raises(DecompositionError):
            extract_stochastic_reversibility(h, 0.5, 0.0)
        report = extract_stochastic_reversibility(h, 0.0, 0.0)  # U(0) is the identity
        assert report.is_cptp and report.p_d == 0.0

    def test_out_of_range_pd(self):
        with pytest.raises(ParamError):
            extract_stochastic_reversibility(np.zeros((2, 2)), 0.5, 1.5)

    def test_a_non_unitary_is_rejected(self):
        # e^{-itH} is unitary, and the channel trace preserving, only for a Hermitian H.
        with pytest.raises(NumericsError):
            extract_stochastic_reversibility(np.array([[0.0, 1.0], [1.0 + 1e-8, 0.0]]), 0.5, 0.5)
        with pytest.raises(NumericsError):
            find_minimal_pd(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_time_is_rejected(self, t):
        h = PartialSwapInteraction(1.0, 2).hamiltonian()
        with pytest.raises(ParamError, match="t must be finite"):
            extract_stochastic_reversibility(h, t, 0.5)
        with pytest.raises(ParamError, match="t must be finite"):
            find_minimal_pd(h, t)

    @pytest.mark.parametrize("kind,local_dim", FACTOR_CASES)
    def test_verdict_agrees_with_the_spectrum(self, kind, local_dim):
        rng = np.random.default_rng(5)
        for h, t, _, _ in seeded_factor_cases(kind, local_dim, seed=31, n=20):
            for p_d in (rng.uniform(), 1.0):
                report = extract_stochastic_reversibility(h, t, p_d)
                floor_ok = report.choi_eigenvalues.min() >= CHOI_EIGENVALUE_FLOOR
                assert report.is_cptp == floor_ok

    def test_certification_builds_no_superoperator(self, monkeypatch):
        original = Superoperator.__post_init__
        built = []

        def counted(self):
            built.append(self.dim)
            original(self)

        monkeypatch.setattr(Superoperator, "__post_init__", counted)
        # Nor U(t), nor a general eigensolver: one eig_hermitian of the generator.
        u_trip = count_calls(
            monkeypatch,
            [
                ("heatctx.dynamics", "interaction_unitary"),
                ("heatctx.linalg", "expm_hermitian_generator"),
                ("numpy.linalg", "eigvals"),
            ],
        )
        for kind, local_dim in FACTOR_CASES:
            for command in (["verify-decomposition", "--minimal"], ["choi"]):
                args = [*command, "--interaction", kind, "--local-dim", str(local_dim)]
                result = CliRunner().invoke(main, [*args, "--t", "0.8"])
                assert result.exit_code == 0, result.output
        for kind, local_dim in FACTOR_CASES:
            for h, t, _, p_analytic in seeded_factor_cases(kind, local_dim, seed=43, n=4):
                extract_stochastic_reversibility(h, t, p_analytic)
                find_minimal_pd(h, t)
        h = factor_generator("nonresonant", 2, 1.0)
        extract_stochastic_reversibility(h, 0.0, 0.0)
        find_minimal_pd(h, 0.0)
        with pytest.raises(DecompositionError):
            extract_stochastic_reversibility(h, 0.5, 0.0)
        assert built == []
        assert u_trip == {"interaction_unitary": 0, "expm_hermitian_generator": 0, "eigvals": 0}
        unitary_to_superoperator(dynamics.interaction_unitary(h, 0.5))  # the counts see the reference
        assert built == [4]
        assert u_trip == {"interaction_unitary": 1, "expm_hermitian_generator": 1, "eigvals": 0}


class TestMinimalPd:
    def test_identity_gives_zero(self):
        p, report = find_minimal_pd(np.zeros((4, 4)), 0.8)
        assert p == 0.0 and report.is_cptp

    def test_partial_swap_quarter(self):
        p, report = find_minimal_pd(PartialSwapInteraction(1.0, 2).hamiltonian(), np.pi / 4)
        assert p == pytest.approx(0.5, abs=1e-8)
        assert report.is_cptp

    def test_detuning_factor(self):
        inter = ResonantInteraction(1.0, a=0.0)
        p, _ = find_minimal_pd(inter.detuning_part(), 0.6)
        assert p == pytest.approx(np.sin(0.3) ** 2, abs=1e-8)

    def test_never_exceeds_analytic(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            g = rng.uniform(0.2, 1.5)
            t = rng.uniform(0.2, 2.5)
            p, _ = find_minimal_pd(NonResonantInteraction(g).hamiltonian(), t)
            assert p <= np.sin(g * t / 2) ** 2 + 1e-8

    @pytest.mark.parametrize("kind,local_dim", FACTOR_CASES)
    def test_factors_match_the_eigvalsh_reference(self, kind, local_dim):
        h = factor_generator(kind, local_dim, 1.0, a=0.4, theta=0.7)
        for gt in (1e-3, 0.3, 0.8, np.pi / 2, 2.9):
            assert_matches_the_reference(h, gt, gt, float(FACTORS[kind].p_d(1.0, gt, 0.4)))

    @pytest.mark.parametrize("kind,local_dim", FACTOR_CASES)
    def test_seeded_times_match_the_eigvalsh_reference(self, kind, local_dim):
        for h, t, gt, p_analytic in seeded_factor_cases(kind, local_dim, seed=29, n=12):
            assert_matches_the_reference(h, t, gt, p_analytic)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_unitaries_match_the_eigvalsh_reference(self, d):
        # U = e^{-itH} of a random generator, its eigenphases spread over the circle.
        rng = np.random.default_rng(40 + d)
        for _ in range(20):
            h, t = random_hermitian(rng, d), rng.uniform(0.5, 3.0)
            p, report = find_minimal_pd(h, t)
            assert (p, report.is_cptp) == reference_minimal_pd(h, t)

    @pytest.mark.parametrize("kind,local_dim", FACTOR_CASES)
    def test_closing_report_is_the_report_at_p(self, kind, local_dim):
        for h, t, _, _ in seeded_factor_cases(kind, local_dim, seed=37, n=8):
            p, report = find_minimal_pd(h, t)
            assert report.p_d == p
            assert report.is_cptp


class TestSmallPd:
    """The p_d -> 0 corner, where the d^2 x d^2 Choi matrix divides roundoff by p_d."""

    @pytest.mark.parametrize("kind,local_dim", FACTOR_CASES)
    def test_analytic_pd_is_cptp_and_minimal(self, kind, local_dim):
        # At g t = 1e-7 and 1e-8 a U stored in doubles loses the eigenvalue
        # gaps; the generator's spectrum keeps them.
        rng = np.random.default_rng(53)
        for gt in [*np.logspace(-5, -2, 13), 1e-7, 1e-8]:
            g = rng.uniform(0.2, 2.0)
            a, theta = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2 * np.pi)
            h = factor_generator(kind, local_dim, g, a, theta)
            p_analytic = float(FACTORS[kind].p_d(g, gt / g, a))
            assert extract_stochastic_reversibility(h, gt / g, p_analytic).is_cptp
            p, report = find_minimal_pd(h, gt / g)
            if 2 * p_analytic <= IDENTITY_GAP_TOL:  # G_max = 2 p_d: the map is the identity
                assert p == 0.0
            else:
                assert abs(p - p_analytic) <= PD_REL_RESOLUTION * p_analytic
            assert report.is_cptp

    @pytest.mark.parametrize("a", [0.0, 0.37, 2.5])
    @pytest.mark.parametrize("kind,local_dim", FACTOR_CASES)
    def test_minimal_pd_is_the_analytic_pd(self, kind, local_dim, a):
        # On a seeded grid of g t from 1e-7 to 3: where some G_ij exceeds
        # IDENTITY_GAP_TOL the search finds the analytic p_d, else it returns 0.
        rng = np.random.default_rng(71)
        g = 1.3
        h = factor_generator(kind, local_dim, g, a)
        for gt in np.exp(rng.uniform(np.log(1e-7), np.log(3.0), 40)):
            t = gt / g
            p, report = find_minimal_pd(h, t)
            if _eigenbasis_gaps(h, t).max() <= IDENTITY_GAP_TOL:
                assert p == 0.0
            else:
                p_analytic = float(FACTORS[kind].p_d(g, t, a))
                assert abs(p - p_analytic) <= 1e-9 * p_analytic, (gt, p, p_analytic)
            assert report.is_cptp

    @pytest.mark.parametrize("kind,local_dim", FACTOR_CASES)
    def test_spectrum_matches_the_choi_matrix(self, kind, local_dim):
        # eig(A) plus d^2 - d zeros is the spectrum of the d^2 x d^2 Choi matrix.
        rng = np.random.default_rng(59)
        cases = seeded_factor_cases(kind, local_dim, seed=61, n=20, gt_range=(0.05, np.pi))
        for h, t, _, p_analytic in cases:
            u = interaction_unitary(h, t)
            for p_d in (p_analytic, rng.uniform(p_analytic, 1.0), 1.0):
                report = extract_stochastic_reversibility(h, t, p_d)
                c = _residual_channel(_symmetrized_conjugation(u), p_d)
                choi = np.linalg.eigvalsh(choi_matrix(c).matrix)
                assert np.max(np.abs(report.choi_eigenvalues - choi)) <= 1e-9
                d = h.dim
                assert np.count_nonzero(report.choi_eigenvalues == 0.0) >= d * d - d


class TestBounds:
    def test_theorem1_half_alpha(self):
        b = nc_bound_theorem1(2.0, 0.3, 0.5)
        assert b.lower == pytest.approx(-4 * 2.0 * 0.3)
        assert b.upper == pytest.approx(2 * 2.0 * 0.3)

    def test_theorem1_degenerate_cases(self):
        b = nc_bound_theorem1(1.0, 0.0, 0.5)
        assert b.lower == 0.0 and b.upper == 0.0
        b = nc_bound_theorem1(1.0, 0.1, 1.0)
        assert b.lower == pytest.approx(-0.1)
        assert b.upper == pytest.approx(0.1)

    def test_theorem2_reduces_to_theorem1(self):
        for p in np.linspace(0, 1, 21):
            b2 = nc_bound_theorem2(1.7, p, 0.0)
            b1 = nc_bound_theorem1(1.7, p, 0.5)
            assert b2.lower == b1.lower
            assert b2.upper == b1.upper

    def test_theorem2_extremes(self):
        b = nc_bound_theorem2(1.0, 1.0, 1.0)
        assert b.lower == pytest.approx(-4.0)
        assert b.upper == pytest.approx(2.0)
        b = nc_bound_theorem2(1.0, 0.0, 0.0)
        assert b.lower == 0.0 and b.upper == 0.0

    def test_b_factors_ordering(self):
        for p1 in np.linspace(0, 1, 11):
            for p2 in np.linspace(0, 1, 11):
                b_minus, b_plus = sequential_b_factors(p1, p2)
                assert b_minus >= b_plus - 1e-15
                assert b_plus >= -1e-15

    def test_experiment_bound_values(self):
        # The NMR experiment's upper bound (a = 0, g = J pi):
        # B_nc = 2 omega [sin^2(J pi t) + 2 sin^2(J pi t / 2) - 2 sin^2(J pi t) sin^2(J pi t / 2)]
        def b_nc(omega, J, t):
            x = np.pi * J * np.asarray(t, dtype=float)
            s2, s2h = np.sin(x) ** 2, np.sin(x / 2) ** 2
            return 2 * omega * (s2 + 2 * s2h - 2 * s2 * s2h)

        config = builtin_micadei()
        engine = _ScenarioEngine(config)
        omega, J = config.state["omega"], config.interaction["g"] / np.pi
        upper = lambda t: engine.bounds(t)[0]
        assert upper(0.0) == 0.0
        # O(t^2) near zero, in units of omega and of 1/J
        for s in (1e-3, 1e-4, 1e-5):
            assert upper(s / J) / omega / s < 0.1 * np.pi**2
        # the engine's sequential bound is B_nc
        ts = np.linspace(0.0, 5e-3, 101)
        assert np.max(np.abs(upper(ts) - b_nc(omega, J, ts))) <= 1e-12 * omega
        x = np.pi * J * 0.37e-3
        b_minus, b_plus = sequential_b_factors(np.sin(x) ** 2, np.sin(x / 2) ** 2)
        assert upper(0.37e-3) == pytest.approx(2 * omega * b_plus, abs=1e-12 * omega)


def scan(heat, upper, lower, t_max, n_grid):
    """find_critical_times on n_grid points over [0, t_max], a scan: no frequencies are given."""
    ts = np.linspace(0.0, t_max, n_grid)
    bounds_at = lambda t: (upper(t), lower(t))
    return find_critical_times(ts, heat, bounds_at)


class TestCriticalTimes:
    def test_no_crossing_returns_empty(self):
        out = scan(
            lambda t: 0.0 * np.asarray(t),
            lambda t: 1.0 + 0.0 * np.asarray(t),
            lambda t: -1.0 + 0.0 * np.asarray(t),
            5.0,
            100_000,
        )
        assert out == []

    def test_simple_linear_crossing(self):
        out = scan(
            lambda t: np.asarray(t, dtype=float),
            lambda t: 1.0 + 0.0 * np.asarray(t),
            lambda t: -1.0 + 0.0 * np.asarray(t),
            5.0,
            2000,
        )
        assert len(out) == 1
        assert out[0].time == pytest.approx(1.0, rel=1e-9)
        assert out[0].side == "upper"

    def test_touch_is_no_crossing(self):
        out = scan(
            lambda t: (np.asarray(t) - 1) ** 2,
            lambda t: 0 * np.asarray(t),
            lambda t: -1 + 0 * np.asarray(t),
            2.0,
            5,
        )
        assert out == []

    def test_grid_point_on_the_bound_is_the_crossing(self):
        out = scan(
            lambda t: np.asarray(t) - 1,
            lambda t: 0 * np.asarray(t),
            lambda t: -2 + 0 * np.asarray(t),
            2.0,
            5,
        )
        assert out == [Crossing(time=1.0, side="upper")]

    def test_lower_bound_crossing(self):
        out = scan(
            lambda t: -np.asarray(t, dtype=float),
            lambda t: 10.0 + 0.0 * np.asarray(t),
            lambda t: -1.0 + 0.0 * np.asarray(t),
            5.0,
            2000,
        )
        assert len(out) == 1
        assert out[0].side == "lower"
        assert out[0].time == pytest.approx(1.0, rel=1e-9)

    def test_qutrit_analytic_formulas(self):
        zeta, xi, omega_max, g = 0.4, 0.9, 1.5, 1.2
        tau_u, tau_l = qutrit_critical_times_analytic(zeta, xi, omega_max, g)
        for tau, scale in ((tau_u, 2 * omega_max), (tau_l, -4 * omega_max)):
            x = g * tau
            lhs = zeta * np.sin(x) ** 2 + xi * np.sin(x) * np.cos(x)
            assert lhs == pytest.approx(scale * np.sin(x) ** 2, abs=1e-12)

    def test_xi_sign_flip_swaps_sides(self):
        zeta, omega_max, g = 0.2, 1.0, 1.0
        heat = lambda xi: (
            lambda t: zeta * np.sin(g * np.asarray(t)) ** 2
            + xi * np.sin(g * np.asarray(t)) * np.cos(g * np.asarray(t))
        )
        upper = lambda t: 2 * omega_max * np.sin(g * np.asarray(t)) ** 2
        lower = lambda t: -4 * omega_max * np.sin(g * np.asarray(t)) ** 2
        t_max = 0.99 * np.pi / g
        pos = scan(heat(0.8), upper, lower, t_max, 20000)
        neg = scan(heat(-0.8), upper, lower, t_max, 20000)
        assert pos and pos[0].side == "upper"
        assert neg and neg[0].side == "lower"

    def test_xi_zero_rejected(self):
        with pytest.raises(ParamError):
            qutrit_critical_times_analytic(0.3, 0.0, 1.0, 1.0)

    def test_small_xi_limit(self):
        tau_u, _ = qutrit_critical_times_analytic(0.0, 1e-8, 1.0, 1.0)
        assert 0 < tau_u < 1e-7
