"""Tests of the independent references in ``jittervan.verify``: the Bell and
Stirling counts, the complex sampling matrix G, its Gram matrix, the
estimator demo and the finite-grid lattice sum."""

import numpy as np
import pytest

from jittervan import verify
from jittervan.constraints import class_representative
from jittervan.ensemble import EnsembleConfig, frequency_vectors, sample_positions, spectrum
from jittervan.errors import BudgetError, NumericalError
from jittervan.integrate import cf_integral, term_integral
from jittervan.jitter import JitterDistribution, point_mass_half, triangular01, uniform01
from jittervan.moments import moment
from jittervan.partitions import Partition, enumerate_partitions, enumerate_partitions_k
from jittervan.verify import (
    bell,
    finite_grid_term,
    gram_matrix,
    lmmse_demo,
    sampling_matrix,
    stirling2,
)
from test_moments import cf_pairs, two_point
from test_partitions import brute_force_partitions, dihedral_representative

LAWS = {"uniform01": uniform01, "triangular01": triangular01, "two_point": two_point}


class TestCounting:
    def test_reference_values(self):
        assert stirling2(3, 2) == 3
        assert bell(1) == 1
        assert bell(7) == 877

    @pytest.mark.slow
    def test_bell_seven_by_brute_force(self):
        assert bell(7) == len(brute_force_partitions(7))

    @pytest.mark.parametrize("p", range(1, 8))
    def test_counts_match_enumeration(self, p):
        assert verify.count_matches_bell(p)
        assert verify.count_matches_stirling(p)

    def test_exact_large_values(self):
        # arbitrary-precision integers cannot overflow; spot check p=20
        assert bell(20) == 51724158235372
        assert stirling2(20, 10) == 5917584964655

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            stirling2(3, 0)
        with pytest.raises(ValueError):
            bell(0)


class TestMatrices:
    def test_zero_frequency_row_and_column_norms(self):
        config = EnsembleConfig(d=2, M=1, rho=4, dist=uniform01())
        G = sampling_matrix(config, sample_positions(config, 1))
        mid = (config.n_rows - 1) // 2
        assert not frequency_vectors(1, 2)[mid].any()
        assert np.allclose(G[mid], 1 / 3)
        assert np.allclose(np.sum(np.abs(G) ** 2, axis=0), 1.0, atol=1e-12)

    def test_half_cell_roots_of_unity_identity(self):
        config = EnsembleConfig(d=1, M=1, rho=3, dist=point_mass_half())
        G = sampling_matrix(config, sample_positions(config, 0))
        T = gram_matrix(G, config.beta)
        assert np.allclose(T, np.eye(3), atol=1e-12)

    def test_unit_diagonal_and_trace(self):
        config = EnsembleConfig(d=1, M=10, rho=30, dist=uniform01())
        G = sampling_matrix(config, sample_positions(config, 5))
        T = gram_matrix(G, config.beta)
        assert np.allclose(np.diag(T).real, 1.0, atol=1e-12)
        eigs = spectrum(T)
        assert eigs.sum() == pytest.approx(np.trace(T).real, rel=1e-8)
        assert eigs.min() >= 0.0

    def test_eigen_residuals(self):
        config = EnsembleConfig(d=1, M=8, rho=20, dist=uniform01())
        G = sampling_matrix(config, sample_positions(config, 9))
        T = gram_matrix(G, config.beta)
        values, vectors = np.linalg.eigh(T)
        norm = np.linalg.norm(T, 2)
        for idx in (0, len(values) // 2, len(values) - 1):
            residual = np.linalg.norm(T @ vectors[:, idx] - values[idx] * vectors[:, idx])
            assert residual <= 1e-8 * norm

    def test_global_shift_leaves_spectrum(self):
        config = EnsembleConfig(d=1, M=6, rho=20, dist=uniform01())
        positions = sample_positions(config, 7)
        base = spectrum(gram_matrix(sampling_matrix(config, positions), config.beta))
        shifted = (positions + 0.317) % 1.0
        moved = spectrum(gram_matrix(sampling_matrix(config, shifted), config.beta))
        assert np.allclose(base, moved, atol=1e-9)

    def test_positions_shape_checked(self):
        config = EnsembleConfig(d=1, M=2, rho=8, dist=uniform01())
        with pytest.raises(ValueError, match=r"must have shape \(8, 1\), got \(3, 1\)"):
            sampling_matrix(config, np.zeros((3, 1)))


class TestLmmseDemo:
    def test_half_cell_trace_is_closed_form(self):
        config = EnsembleConfig(d=1, M=5, rho=12, dist=point_mass_half())
        result = lmmse_demo(config, 5.0, seed=0, draws=50)
        assert result.trace_mse == pytest.approx(
            config.beta / (5.0 + config.beta), abs=1e-12
        )

    def test_empirical_matches_trace(self):
        config = EnsembleConfig(d=1, M=25, rho=102, dist=uniform01())
        result = lmmse_demo(config, 10.0, seed=2, draws=500)
        assert abs(result.empirical_mse - result.trace_mse) <= 3 * result.std_error

    def test_no_information_limit(self):
        config = EnsembleConfig(d=1, M=6, rho=20, dist=uniform01())
        result = lmmse_demo(config, 1e-6, seed=1, draws=100)
        # the estimate vanishes, so the empirical error is the mean power of
        # the drawn signal, rebuilt here from the signal's stream
        rng = np.random.default_rng(np.random.SeedSequence(1).spawn(2)[0])
        shape = (config.n_rows, 100)
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        assert result.empirical_mse == pytest.approx(np.mean(np.abs(a) ** 2), abs=1e-3)
        assert result.trace_mse == pytest.approx(1.0, abs=1e-3)

    def test_trace_equals_error_covariance(self):
        # direct error-covariance trace against the eigenvalue form, M=5
        from jittervan.ensemble import sample_positions

        config = EnsembleConfig(d=1, M=5, rho=16, dist=uniform01())
        snr = 7.0
        positions = sample_positions(config, np.random.SeedSequence(4).spawn(2)[1])
        G = sampling_matrix(config, positions)
        n = G.shape[0]
        covariance = np.linalg.inv(np.eye(n) + snr * (G @ G.conj().T))
        direct = float(np.trace(covariance).real) / n
        result = lmmse_demo(config, snr, seed=4, draws=10)
        assert result.trace_mse == pytest.approx(direct, rel=1e-8)

    def test_signal_and_positions_draw_separate_streams(self, monkeypatch):
        # with one seed for both, the signal generator replayed the bits
        # that placed the samples: default_rng(7).random(8) were the offsets
        config = EnsembleConfig(d=1, M=2, rho=8, dist=uniform01())
        real_rng = np.random.default_rng
        seeds = []

        def recording_rng(seed=None):
            seeds.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        lmmse_demo(config, 5.0, seed=7, draws=4)
        monkeypatch.undo()
        assert len(seeds) == 2
        first, second = (real_rng(seed).random(8) for seed in seeds)
        assert not np.any(first == second)
        assert not np.any(real_rng(7).random(8) == first)

    def test_validation(self):
        config = EnsembleConfig(d=1, M=3, rho=10, dist=uniform01())
        with pytest.raises(ValueError):
            lmmse_demo(config, 0.0, seed=0)
        with pytest.raises(ValueError):
            lmmse_demo(config, 1.0, seed=0, draws=1)


#: (law, beta, d) at which the extrapolated grid checks the engine's terms.
GRID_CONFIGS = [("uniform01", 0.6, 1), ("uniform01", 0.55, 2), ("two_point", 0.55, 2)]


def extrapolated_grid(partition, grouping, beta, d, dist, boxes=(4, 8, 16)):
    """Richardson limit of ``finite_grid_term`` over growing boxes.

    At odd width W = 2 * box + 1 the grid value expands in even powers of
    1 / W (the Euler-Maclaurin expansion; Lyness and Puri, Math. Comp.,
    1973), so the values at len(boxes) widths are fitted by 1, W^-2, W^-4,
    ..., and the constant of the fit is the limit.
    """
    widths = 2.0 * np.array(boxes) + 1
    grid = [finite_grid_term(partition, grouping, box, beta, d, dist) for box in boxes]
    fit = np.vander(widths**-2.0, len(boxes), increasing=True)
    return float(np.linalg.solve(fit, grid)[0])


def order_five_members():
    """One order-5 cf pair per class, with the fewest free coordinates.

    A pair outside the representative's dihedral orbit is taken where the
    class has one, else a pair of that orbit other than the representative.
    Only the five-cycle in one group has neither: its class is that one pair.
    """
    chosen = {}
    for pair in cf_pairs(5):
        rep = class_representative(*pair)
        score = (
            dihedral_representative(*pair) == dihedral_representative(*rep),
            pair == rep,
            pair[0].p - pair[1].k,
        )
        if rep not in chosen or score < chosen[rep][0]:
            chosen[rep] = (score, pair)
    return [pair for _, pair in chosen.values()]


class TestFiniteGridTerm:
    def test_non_integer_box_refused(self):
        # box = 2.5 once passed the range check and raised TypeError later
        with pytest.raises(ValueError, match="integer"):
            finite_grid_term(
                Partition((1, 2)), Partition((1, 1)), 2.5, 0.5, 1, uniform01()
            )

    def test_single_block_counts_to_one(self):
        for m in (3, 9):
            assert finite_grid_term(
                Partition((1, 1)), Partition((1,)), m, 0.5, 1, uniform01()
            ) == pytest.approx(1.0)

    def test_fully_pinned_pair_is_one(self):
        assert finite_grid_term(
            Partition((1, 2)), Partition((1, 2)), 10, 0.5, 1, uniform01()
        ) == pytest.approx(1.0)

    def test_converges_to_qmc_value(self):
        est = cf_integral(Partition((1, 2)), Partition((1, 1)), 0.5, 1, uniform01())
        gaps = []
        for m in (8, 16, 32):
            gaps.append(abs(finite_grid_term(Partition((1, 2)), Partition((1, 1)), m, 0.5, 1, uniform01()) - est.value))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[-1] < 1e-2

    @pytest.mark.parametrize("p", [2, 3])
    def test_agreement_all_pairs(self, p):
        # every evaluation regime against the independent finite-grid path
        for w in enumerate_partitions(p):
            for h in range(1, w.k + 1):
                for g in enumerate_partitions_k(w.k, h):
                    grid = finite_grid_term(w, g, 32, 0.6, 1, uniform01())
                    value = term_integral(w, g, 0.6, 1, uniform01())
                    tol = max(5 * value.std_error, 0.02)
                    assert abs(value.value - grid) <= tol, (w.omega, g.omega)

    def test_agreement_sampled_order_four(self):
        pairs = [
            (Partition((1, 2, 1, 2)), Partition((1, 2))),
            (Partition((1, 2, 3, 4)), Partition((1, 2, 1, 2))),
            (Partition((1, 2, 1, 3)), Partition((1, 1, 1))),
            (Partition((1, 1, 2, 3)), Partition((1, 2, 2))),
        ]
        for w, g in pairs:
            grid = finite_grid_term(w, g, 24, 0.6, 1, uniform01())
            value = term_integral(w, g, 0.6, 1, uniform01())
            assert abs(value.value - grid) <= max(5 * value.std_error, 0.03)

    @pytest.mark.slow
    def test_agreement_every_pair_order_four(self):
        # every pair with p <= 4, fully pinned ones included, against the
        # engine's term, whose value comes from its class representative
        for law, beta, d in GRID_CONFIGS:
            for p in range(1, 5):
                for term in moment(p, beta, d, LAWS[law]()).terms:
                    pair = (term.omega, term.omega_prime)
                    grid = extrapolated_grid(*pair, beta, d, LAWS[law]())
                    assert abs(grid - term.v.value) <= 1e-7, (law, beta, d, pair)

    @pytest.mark.slow
    def test_agreement_class_members_order_five(self):
        # the widths 5, 7, 9 and 13, fitted through W^-6, keep the
        # five-dimensional grids small
        members = order_five_members()
        assert len(members) == 17
        for law, beta, d in GRID_CONFIGS:
            value_of = {
                (t.omega, t.omega_prime): t.v.value
                for t in moment(5, beta, d, LAWS[law]()).terms
            }
            for pair in members:
                grid = extrapolated_grid(*pair, beta, d, LAWS[law](), boxes=(2, 3, 4, 6))
                assert abs(grid - value_of[pair]) <= 1e-7, (law, beta, d, pair)

    def test_budget_guard(self):
        # three free labels in [-232, 232]: 465^3 nodes, over the budget
        assert 465**3 > verify.GRID_BUDGET
        with pytest.raises(BudgetError):
            finite_grid_term(
                Partition((1, 2, 3)), Partition((1, 1, 1)), 232, 0.5, 1, uniform01()
            )

    def test_solution_map_guards(self, monkeypatch):
        # y1 = -y2 is off the kernel of the pinned pair's rows (y1 = y2),
        # which is caught before any node reaches the cf
        basis = np.array([[1], [-1]], dtype=np.int64)
        monkeypatch.setattr(verify, "constraint_system", lambda *_: basis)
        law, calls = uniform01(), []
        counted = JitterDistribution(
            law.kind, lambda t: calls.append(t) or law.cf(t), law.draw, True
        )
        calls.clear()
        w = Partition((1, 2))
        with pytest.raises(NumericalError):
            finite_grid_term(w, w, 4, 0.5, 1, counted)
        assert calls == []

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_grid_term(Partition((1, 2)), Partition((1, 1)), 0, 0.5, 1, uniform01())
        with pytest.raises(ValueError):
            finite_grid_term(Partition((1, 2)), Partition((1, 1)), 4, 2.0, 1, uniform01())
