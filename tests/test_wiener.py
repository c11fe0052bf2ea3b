"""Tests for the block Wiener solution."""

import tracemalloc
import warnings

import numpy as np
import pytest

from quatlink import channel, harness, linalg, modem, quat, wiener
from quatlink.errors import DimensionMismatchError, InsufficientDataError, SingularMatrixError

from oracles import (
    hermitian_transpose_loop,
    matvec_loop,
    outer_h_loop,
    recursion_statistics,
    solve_via_adjoint,
    table_conj,
    table_mul,
)


def equalization_instance(seed, n=4000, snr_db=20.0):
    rng = channel.make_rng(seed)
    taps = channel.random_channel_taps(rng, 4, normalize=True)
    symbols = modem.index_to_symbol(rng.integers(0, modem.NUM_SYMBOLS, n))
    clean = channel.convolve(symbols, taps)
    variance = channel.noise_variance_for_snr(channel.expected_output_power(taps), snr_db)
    received = clean + channel.gaussian_quaternions(rng, variance, clean.shape[0])
    return received, symbols


def outer_product_statistics(signal, reference, length, delay):
    """One run's R and p as averages of lag-matrix outer products, for a (C, N, 4) signal."""
    from quatlink.adaptive import lag_matrix

    regressors = lag_matrix(signal, length)[delay:]
    refs = reference[: signal.shape[-2] - delay]
    return linalg.mean_outer_h(regressors), quat.mul(regressors, quat.conj(refs)[:, None, :]).mean(axis=0)


def relative_gap(value, oracle):
    return np.abs(value - oracle).max() / np.abs(oracle).max()


class TestEstimateStatistics:
    def test_constant_signal(self):
        ones = np.broadcast_to(quat.ONE, (50, 4)).copy()
        problem = wiener.estimate_statistics(ones, ones, length=1, delay=0)
        assert np.allclose(problem.autocorrelation, quat.ONE[None, None], atol=1e-14)
        assert np.allclose(problem.cross_correlation, quat.ONE[None], atol=1e-14)
        assert problem.sample_count == 50

    def test_iid_symbols_give_diagonal_autocorrelation(self):
        rng = channel.make_rng(80)
        symbols = modem.index_to_symbol(rng.integers(0, 16, 100_000))
        problem = wiener.estimate_statistics(symbols, symbols, length=2, delay=0)
        diag = problem.autocorrelation[[0, 1], [0, 1]]
        assert np.allclose(diag[:, 0], 4.0, atol=0.1)
        off = problem.autocorrelation[0, 1]
        assert np.sqrt(quat.norm_sq(off)) < 0.1

    def test_matches_naive_outer_average(self):
        """Sample statistics must equal the brute-force definition."""
        rng = np.random.default_rng(81)
        signal, reference = rng.normal(size=(60, 4)), rng.normal(size=(60, 4))
        length, delay = 3, 2
        problem = wiener.estimate_statistics(signal, reference, length, delay)

        padded = np.concatenate([np.zeros((length - 1, 4)), signal])
        r_sum = np.zeros((length, length, 4))
        p_sum = np.zeros((length, 4))
        count = 0
        for t in range(delay, signal.shape[0]):
            x = padded[t : t + length][::-1]
            for a in range(length):
                for b in range(length):
                    r_sum[a, b] += table_mul(x[a], table_conj(x[b]))
                p_sum[a] += table_mul(x[a], table_conj(reference[t - delay]))
            count += 1
        assert count == problem.sample_count
        assert np.allclose(problem.autocorrelation, r_sum / count, atol=1e-12)
        assert np.allclose(problem.cross_correlation, p_sum / count, atol=1e-12)

    def test_autocorrelation_is_hermitian_psd(self):
        received, symbols = equalization_instance(82, n=800)
        problem = wiener.estimate_statistics(received, symbols, length=8, delay=3)
        r = problem.autocorrelation
        assert np.allclose(r, hermitian_transpose_loop(r), atol=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(8, 4))
            quad = sum(quat.mul(quat.conj(x[l]), matvec_loop(r, x)[l])[..., 0] for l in range(8))
            assert quad >= -1e-12 * quat.norm_sq(x).sum()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            wiener.estimate_statistics(np.zeros((5, 4)), np.zeros((5, 4)), length=2, delay=5)


class TestSolveWiener:
    def test_scalar_conjugation(self):
        """R=[[1]], p=[k] solves to y=[k]; the returned weight is conj(y)=[-k]."""
        problem = wiener.WienerProblem(quat.ONE[None, None], quat.K[None], 1)
        weights = wiener.solve_wiener(problem, ridge=0.0)
        assert np.array_equal(weights, -quat.K[None])

    def test_identity_channel_gives_identity_weight(self):
        symbols = modem.index_to_symbol(channel.make_rng(83).integers(0, 16, 2000))
        problem = wiener.estimate_statistics(symbols, symbols, length=1, delay=0)
        weights = wiener.solve_wiener(problem, ridge=0.0)
        assert np.allclose(weights, quat.ONE[None], atol=1e-9)

    def test_singular_without_ridge(self):
        """A rank-one sample autocorrelation must trip the singularity guard."""
        v = np.random.default_rng(95).normal(size=(3, 4))
        problem = wiener.WienerProblem(outer_h_loop(v, v), v, 1)
        with pytest.raises(SingularMatrixError, match="ridge"):
            wiener.solve_wiener(problem, ridge=0.0)
        wiener.solve_wiener(problem)  # default ridge regularizes it

    def test_singular_run_in_a_well_conditioned_batch(self):
        """One rank-one R among well-conditioned ones fails the batch's certificate,
        and the eigenvalue check then names the batch singular, whatever its place."""
        v = np.random.default_rng(95).normal(size=(3, 4))
        good = 2.0 * linalg.identity(3)
        for runs in ([good, outer_h_loop(v, v)], [outer_h_loop(v, v), good, good]):
            problem = wiener.WienerProblem(np.stack(runs), np.stack([v] * len(runs)), 1)
            with pytest.raises(SingularMatrixError, match="ridge"):
                wiener.solve_wiener(problem, ridge=0.0)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_huge_well_conditioned_problem_solves(self, scale):
        """Entries whose squares overflow still set a finite singularity bound, so a
        scaled identity solves exactly at ridge 0 with no warning."""
        problem = wiener.WienerProblem(scale * linalg.identity(3), np.tile(quat.K, (3, 1)), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = wiener.solve_wiener(problem, ridge=0.0)
        assert np.array_equal(weights, np.tile(-quat.K / scale, (3, 1)))

    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_certificate_agrees_with_eigenvalues_near_the_bound(self, factor, monkeypatch):
        """An R whose smallest eigenvalue sits at `factor` times the singularity bound
        is accepted or rejected as its eigenvalues say; an accepted one is accepted
        by the Cholesky certificate alone."""
        rng = np.random.default_rng(98)
        b = rng.normal(size=(5, 5, 4))
        r = quat.mul(b[:, None], quat.conj(b)[None]).sum(axis=2)  # B B^H
        for _ in range(2):  # the shift moves the bound a little, so shift twice
            bound = np.sqrt(linalg.SINGULARITY_RTOL * quat.norm_sq(r).max())
            smallest = np.linalg.eigvalsh(linalg.to_complex_adjoint(r)).min()
            r = r - (smallest - factor * bound) * linalg.identity(5)
        bound = np.sqrt(linalg.SINGULARITY_RTOL * quat.norm_sq(r).max())
        smallest = np.abs(np.linalg.eigvalsh(linalg.to_complex_adjoint(r))).min()
        assert smallest / bound == pytest.approx(factor, rel=1e-2)
        problem = wiener.WienerProblem(r, rng.normal(size=(5, 4)), 1)
        if smallest > bound:
            monkeypatch.setattr(np.linalg, "eigvalsh", None)
            wiener.solve_wiener(problem, ridge=0.0)
        else:
            with pytest.raises(SingularMatrixError):
                wiener.solve_wiener(problem, ridge=0.0)

    def test_negative_ridge_rejected(self):
        problem = wiener.WienerProblem(quat.ONE[None, None], quat.K[None], 1)
        with pytest.raises(ValueError):
            wiener.solve_wiener(problem, ridge=-1.0)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, np.array([1e-3, np.nan])], ids=["nan", "inf", "one-nan-run"])
    def test_nonfinite_ridge_rejected(self, ridge):
        """A NaN or infinite ridge is named, not left to fail inside the eigensolver."""
        runs = np.shape(ridge)
        problem = wiener.WienerProblem(np.zeros(runs + (1, 1, 4)) + quat.ONE, np.zeros(runs + (1, 4)) + quat.K, 1)
        with pytest.raises(ValueError, match="ridge"):
            wiener.solve_wiener(problem, ridge=ridge)

    def test_agrees_with_adjoint_oracle(self):
        """Solving entirely in the complex adjoint image gives the same weights."""
        received, symbols = equalization_instance(84)
        problem = wiener.estimate_statistics(received, symbols, length=15, delay=7)
        weights = wiener.solve_wiener(problem, ridge=0.0)
        expected = solve_via_adjoint(problem.autocorrelation, problem.cross_correlation, 0.0)
        rel = np.abs(weights - expected).max() / np.abs(expected).max()
        assert rel < 1e-9

    @pytest.mark.parametrize("symbols,length", [(400, 15), (400, 40), (5000, 15), (5000, 40)])
    def test_equals_the_adjoint_oracle_bit_for_bit(self, symbols, length):
        """The weights equal `oracles.solve_via_adjoint`'s, signed zeros included, at ridge 0
        and at the default ridge: for harness slices of 1, 8 and 9 SISO runs, and for
        symbols with only a real or only a complex part, whose R and p hold exact zeros,
        as computed (+0.0) and with every zero turned to -0.0."""
        config = harness.ExperimentConfig(num_runs=9, symbols_per_run=symbols, master_seed=3)
        problems = []
        for runs in (1, 8, 9):
            received, indices = harness._draw(config, 0, runs)
            problems.append(wiener.estimate_statistics(received, modem.CONSTELLATION[indices[:, 0]], length, 7))
        points = modem.CONSTELLATION[channel.make_rng(symbols).integers(0, modem.NUM_SYMBOLS, (2, symbols))]
        for parts in (1, 2):  # real-only, complex-only
            masked = points.copy()
            masked[..., parts:] = 0.0
            problem = wiener.estimate_statistics(masked, masked, length, 7)
            r, p = (np.where(x == 0.0, -0.0, x) for x in (problem.autocorrelation, problem.cross_correlation))
            problems += [problem, wiener.WienerProblem(r, p, problem.sample_count)]
        for problem in problems:
            for ridge in (0.0, wiener.default_ridge(problem)):
                weights = wiener.solve_wiener(problem, ridge)
                expected = solve_via_adjoint(problem.autocorrelation, problem.cross_correlation, ridge)
                assert np.array_equal(weights.view(np.int64), expected.view(np.int64))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            wiener.WienerProblem(np.zeros((2, 3, 4)), np.zeros((2, 4)), 1)
        tilted = linalg.identity(2)
        tilted[0, 1] = quat.I
        with pytest.raises(ValueError):
            wiener.WienerProblem(tilted, np.zeros((2, 4)), 1)

    @pytest.mark.parametrize("ridge", [0.0, None], ids=["ridge0", "default-ridge"])
    @pytest.mark.parametrize(
        "r",
        [np.full((1, 1, 4), np.nan), np.array([[[np.inf, 0, 0, 0]]]), np.full((1, 1, 4), np.inf)],
        ids=["nan", "inf", "all-inf"],
    )
    def test_nonfinite_statistics_rejected(self, r, ridge):
        """A problem with a non-finite R or p is built, as the harness's overflowing
        statistics are, with no warning (the Hermitian check takes inf - inf), but
        solving it raises an error naming the statistic instead of returning NaN weights."""
        problem = wiener.WienerProblem(r, np.zeros((1, 4)), 1)
        with pytest.raises(ValueError, match="autocorrelation must be finite"):
            wiener.solve_wiener(problem, ridge)
        problem = wiener.WienerProblem(2.0 * linalg.identity(2), np.array([quat.ONE, r[0, 0]]), 1)
        with pytest.raises(ValueError, match="cross_correlation must be finite"):
            wiener.solve_wiener(problem, ridge)

    @pytest.mark.parametrize("count", [-3, 0, 2.0, True, "5"])
    def test_sample_count_must_be_a_positive_integer(self, count):
        """A count below 1, or one that is not an integer, counts no samples; the
        `MseReport`s of the problem would carry it."""
        with pytest.raises(ValueError, match=f"sample_count: must be an integer of at least 1, got {count!r}"):
            wiener.WienerProblem(np.array([[[2.0, 0, 0, 0]]]), np.zeros((1, 4)), count)
        assert wiener.WienerProblem(np.array([[[2.0, 0, 0, 0]]]), np.zeros((1, 4)), np.int64(5)).sample_count == 5

    def test_problem_from_nested_lists_keeps_its_checked_arrays(self):
        """R = 2 and p = 1 given as lists are stored as the float64 arrays they were
        checked as, so the problem has a length and solves to w = 1/2."""
        problem = wiener.WienerProblem([[[2.0, 0, 0, 0]]], [[1.0, 0, 0, 0]], 1)
        assert problem.length == 1
        assert problem.autocorrelation.dtype == problem.cross_correlation.dtype == np.float64
        assert np.array_equal(wiener.solve_wiener(problem, 0.0), [[0.5, 0.0, 0.0, 0.0]])
        assert np.allclose(wiener.solve_wiener(problem), [[0.5, 0.0, 0.0, 0.0]], rtol=1e-7)


class TestOptimality:
    def test_sampled_orthogonality_principle(self):
        """avg x[n] conj(e[n]) vanishes at the optimum for every lag."""
        from quatlink.adaptive import lag_matrix

        for seed in (85, 86, 87):
            received, symbols = equalization_instance(seed)
            length, delay = 15, 7
            problem = wiener.estimate_statistics(received, symbols, length, delay)
            weights = wiener.solve_wiener(problem, ridge=0.0)
            regressors = lag_matrix(received, length)[delay:]
            refs = symbols[: symbols.shape[0] - delay]
            errors = refs - linalg.dot_left(weights[None], regressors)
            residual = quat.mul(regressors, quat.conj(errors)[:, None, :]).mean(axis=0)
            signal_power = quat.norm_sq(received).mean()
            assert np.sqrt(quat.norm_sq(residual).max()) < 1e-8 * signal_power

    def test_random_perturbations_never_improve(self):
        received, symbols = equalization_instance(88, n=2500)
        length, delay = 8, 4
        problem = wiener.estimate_statistics(received, symbols, length, delay)
        weights = wiener.solve_wiener(problem, ridge=0.0)
        base = wiener.evaluate_mse(weights, received, symbols, length, delay).linear
        rng = np.random.default_rng(1)
        for _ in range(100):
            bump = rng.normal(size=(length, 4))
            bump *= 1e-3 / np.sqrt(quat.norm_sq(bump).sum())
            perturbed = wiener.evaluate_mse(weights + bump, received, symbols, length, delay).linear
            assert perturbed >= base

    def test_consistency_with_more_data(self):
        """Doubling the sample count moves the weights by less than 5%."""
        rng = channel.make_rng(89)
        taps = channel.random_channel_taps(rng, 4, normalize=True)
        variance = channel.noise_variance_for_snr(channel.expected_output_power(taps), 20.0)
        length, delay, n = 15, 7, 20_000

        def weights_from(count, seed):
            gen = channel.make_rng(seed)
            symbols = modem.index_to_symbol(gen.integers(0, 16, count))
            clean = channel.convolve(symbols, taps)
            received = clean + channel.gaussian_quaternions(gen, variance, count)
            problem = wiener.estimate_statistics(received, symbols, length, delay)
            return wiener.solve_wiener(problem)

        w_half = weights_from(n, 90)
        w_full = weights_from(2 * n, 90)
        diff = np.sqrt(quat.norm_sq(w_half - w_full).sum())
        assert diff < 0.05 * np.sqrt(quat.norm_sq(w_full).sum())


class TestEvaluateMse:
    def test_perfect_weights_hit_the_floor(self):
        symbols = modem.index_to_symbol(channel.make_rng(91).integers(0, 16, 500))
        weights = np.zeros((1, 4))
        weights[0] = quat.ONE
        report = wiener.evaluate_mse(weights, symbols, symbols, length=1, delay=0)
        assert report.linear == 0.0
        assert report.db == wiener.DB_FLOOR

    def test_zero_weights_give_reference_power(self):
        symbols = modem.index_to_symbol(channel.make_rng(92).integers(0, 16, 500))
        report = wiener.evaluate_mse(np.zeros((3, 4)), symbols, symbols, length=3, delay=1)
        assert np.isclose(report.linear, 4.0)
        assert np.isclose(report.db, 0.0)
        assert np.isclose(report.reference_power, 4.0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(93)
        signal, reference = rng.normal(size=(40, 4)), rng.normal(size=(40, 4))
        weights = rng.normal(size=(3, 4))
        report = wiener.evaluate_mse(weights, signal, reference, length=3, delay=2)

        padded = np.concatenate([np.zeros((2, 4)), signal])
        total, count = 0.0, 0
        for t in range(2, 40):
            x = padded[t : t + 3][::-1]
            prediction = np.zeros(4)
            for l in range(3):
                prediction += table_mul(weights[l], x[l])
            err = reference[t - 2] - prediction
            total += float((err * err).sum())
            count += 1
        assert np.isclose(report.linear, total / count, rtol=1e-12)
        assert report.sample_count == count

    def test_infinite_sample_gives_infinite_mse(self):
        """An infinite i component reaches the error as infinities, not as NaN."""
        symbols = modem.index_to_symbol(channel.make_rng(96).integers(0, 16, 6))
        signal = symbols.copy()
        signal[2] = quat.quat(0.0, np.inf)
        report = wiener.evaluate_mse(np.ones((1, 4)), signal, symbols, length=1, delay=0)
        assert report.linear == np.inf
        assert report.db == np.inf

    def test_wiener_beats_qlms_on_same_data(self):
        """The block solution is the in-sample optimum among tested filters."""
        from quatlink.adaptive import run_qlms_batch

        received, symbols = equalization_instance(94, n=10_000)
        length, delay = 15, 7
        problem = wiener.estimate_statistics(received, symbols, length, delay)
        weights = wiener.solve_wiener(problem)
        wiener_mse = wiener.evaluate_mse(weights, received, symbols, length, delay).linear
        qlms = run_qlms_batch(received[None, None], np.arange(10_000)[None], symbols, length, 0.01, delay)
        qlms_steady = np.nanmean(qlms.traces[0, -2500:])
        assert wiener_mse <= qlms_steady


class TestFlooredDb:
    @pytest.mark.parametrize("reference_power", [1.0, 4.0, 3.0, np.full(60, 0.25)], ids=["1", "4", "3", "per-run"])
    def test_db_above_the_floor_and_the_floor_below(self, reference_power):
        """At or above the floor the figure is 10 log10(linear / reference_power) bit for
        bit, and below it exactly DB_FLOOR, for a scalar or a per-run reference."""
        linear = np.append(10.0 ** np.random.default_rng(3).uniform(-30.0, 5.0, 59), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            db = wiener.floored_db(linear, reference_power)
        with np.errstate(divide="ignore"):
            exact = 10.0 * np.log10(linear / reference_power)
        above = exact >= wiener.DB_FLOOR
        assert 0 < above.sum() < linear.size
        assert np.array_equal(db[above], exact[above])
        assert (db[~above] == wiener.DB_FLOOR).all()

    def test_nan_stays_nan_and_a_zero_reference_gives_the_floor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(wiener.floored_db(np.float64(np.nan), 4.0))
            assert np.isnan(wiener.floored_db(np.array([np.nan]), np.array([4.0]))).all()
            silent = wiener.floored_db(np.array([0.0, 2.0]), np.array([0.0, 0.0]))
            assert wiener.floored_db(np.float64(2.0), 0.0) == wiener.DB_FLOOR
        assert np.array_equal(silent, [wiener.DB_FLOOR, wiener.DB_FLOOR])

    @pytest.mark.parametrize("shape", [(), (7,), (3, 50)], ids=["0-d", "1-d", "2-d"])
    @pytest.mark.parametrize("per_run", [False, True], ids=["scalar-power", "per-run-power"])
    def test_equals_the_masked_expression(self, shape, per_run):
        """The in-place conversion is np.where(fitted, max(10 log10(x / p), floor), floor)
        bit for bit, over NaN, zero, negative, infinite, tiny and huge values, with one
        reference power or one per run (some zero or negative), and returns an array."""
        rng = np.random.default_rng(41)
        special = np.array([np.nan, 0.0, -0.0, -2.0, np.inf, 1e-300, 1e300, 1.0, 4.0])
        linear = np.concatenate([special, 10.0 ** rng.uniform(-15.0, 5.0, 150)])[: int(np.prod(shape, dtype=int))]
        linear = rng.permutation(linear).reshape(shape)
        power = 4.0
        if per_run:
            power = rng.uniform(0.1, 5.0, shape[:1] + (1,) * max(len(shape) - 1, 0))
            power.flat[:2] = [0.0, -1.0][: power.size]
        with np.errstate(divide="ignore", invalid="ignore"):
            fitted = ~((linear <= 0.0) | (power <= 0.0))
            expected = np.where(fitted, np.maximum(10 * np.log10(linear / power), wiener.DB_FLOOR), wiener.DB_FLOOR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            db = wiener.floored_db(linear, power)
        assert isinstance(db, np.ndarray) and db.shape == expected.shape and db.dtype == np.float64
        assert np.array_equal(db, expected, equal_nan=True)
        assert np.array_equal(np.signbit(db), np.signbit(expected))

    def test_converts_in_one_array(self):
        """The conversion's traced peak is its result plus one boolean mask."""
        linear = 10.0 ** np.random.default_rng(43).uniform(-12.0, 2.0, 100_000)
        tracemalloc.start()
        try:
            db = wiener.floored_db(linear, 4.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * db.nbytes


class TestStatisticsMse:
    @pytest.mark.parametrize("snr_db", [20.0, 40.0, np.inf])
    @pytest.mark.parametrize("n,delay", [(600, 7), (600, 400), (10, 3)])
    def test_matches_evaluate_mse(self, snr_db, n, delay):
        """J(w) from R, p and the reference power equals filtering the block again,
        for the optimum and perturbed weights, with delay > N//2 and with N < L."""
        instances = [equalization_instance(seed, n=n, snr_db=snr_db) for seed in range(110, 114)]
        received, symbols = np.stack([rx for rx, _ in instances]), np.stack([s for _, s in instances])
        length = 15
        problem = wiener.estimate_statistics(received, symbols, length, delay)
        optimal = wiener.solve_wiener(problem)
        perturbed = optimal + 0.05 * np.random.default_rng(97).normal(size=optimal.shape)
        for weights in (optimal, perturbed):
            expected = wiener.evaluate_mse(weights, received, symbols, length, delay)
            report = wiener.statistics_mse(problem, weights, expected.reference_power)
            assert np.abs(report.db - expected.db).max() <= 1e-9
            assert np.allclose(report.linear, expected.linear, rtol=1e-9, atol=1e-12)
            assert np.array_equal(report.reference_power, expected.reference_power)
            assert report.sample_count == expected.sample_count == n - delay
            one_run = wiener.estimate_statistics(received[0], symbols[0], length, delay)
            single = wiener.statistics_mse(one_run, weights[0], expected.reference_power[0])
            assert isinstance(single.db, float) and abs(single.db - expected.db[0]) <= 1e-9

    def test_perfect_fit_and_silence_hit_the_floor(self):
        symbols = modem.index_to_symbol(channel.make_rng(91).integers(0, 16, 500))
        weights = np.zeros((1, 4))
        weights[0] = quat.ONE
        silence = np.zeros_like(symbols)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = wiener.statistics_mse(
                wiener.estimate_statistics(symbols, symbols, 1), weights, quat.norm_sq(symbols).mean(-1)
            )
            silent = wiener.statistics_mse(
                wiener.estimate_statistics(silence, silence, 1), weights, quat.norm_sq(silence).mean(-1)
            )
        assert fitted.db == silent.db == wiener.DB_FLOOR

    def test_mismatched_inputs_rejected(self):
        received, symbols = equalization_instance(95, n=50)
        problem = wiener.estimate_statistics(received, symbols, 3, 2)
        power = quat.norm_sq(symbols[: problem.sample_count]).mean(-1)
        with pytest.raises(DimensionMismatchError):
            wiener.statistics_mse(problem, np.zeros((4, 4)), power)
        with pytest.raises(ValueError, match="broadcast"):
            wiener.statistics_mse(problem, np.zeros((3, 4)), np.full(2, power))


def quaternion_elimination_db(received, symbols, length, delay):
    """One run's Wiener dB the long way: lag matrix, mean_outer_h, quaternion Gaussian elimination."""
    from quatlink.adaptive import lag_matrix

    regressors = lag_matrix(received, length)[delay:]
    refs = symbols[: symbols.shape[0] - delay]
    r = linalg.mean_outer_h(regressors)
    p = quat.mul(regressors, quat.conj(refs)[:, None, :]).mean(axis=0)
    size = r.shape[0]
    ridge = 1e-8 * r[np.arange(size), np.arange(size), 0].sum() / size
    weights = quat.conj(linalg.solve(r + ridge * linalg.identity(size), p))
    errors = refs - linalg.dot_left(weights[None], regressors)
    return 10.0 * np.log10(quat.norm_sq(errors).mean() / quat.norm_sq(refs).mean())


class TestBatchedRuns:
    def group(self, n=600):
        """Eight runs, each over its own random channel."""
        instances = [equalization_instance(seed, n=n) for seed in range(100, 108)]
        return np.stack([rx for rx, _ in instances]), np.stack([s for _, s in instances])

    def test_group_matches_quaternion_elimination_per_run(self):
        received, symbols = self.group()
        length, delay = 15, 7
        problem = wiener.estimate_statistics(received, symbols, length, delay)
        report = wiener.evaluate_mse(wiener.solve_wiener(problem), received, symbols, length, delay)
        assert report.db.shape == (8,)
        for run in range(8):
            oracle = quaternion_elimination_db(received[run], symbols[run], length, delay)
            assert abs(report.db[run] - oracle) < 1e-12

    def test_each_run_equals_its_single_run_call(self):
        received, symbols = self.group(n=300)
        length, delay = 6, 2
        problem = wiener.estimate_statistics(received, symbols, length, delay)
        weights = wiener.solve_wiener(problem)
        report = wiener.evaluate_mse(weights, received, symbols, length, delay)
        for run in range(8):
            single = wiener.estimate_statistics(received[run], symbols[run], length, delay)
            assert np.allclose(problem.autocorrelation[run], single.autocorrelation, rtol=0, atol=1e-13)
            assert np.allclose(weights[run], wiener.solve_wiener(single), rtol=0, atol=1e-12)
            alone = wiener.evaluate_mse(weights[run], received[run], symbols[run], length, delay)
            assert abs(report.db[run] - alone.db) < 1e-12

    @pytest.mark.parametrize("streams", [1, 2])
    def test_zero_runs_give_empty_figures(self, streams):
        """A batch of no runs flows through statistics, solve and scoring to (0,) figures
        without an error or a warning, as `evaluate_mse` does."""
        signal, reference = np.zeros((0, streams, 50, 4)), np.zeros((0, 50, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = wiener.estimate_statistics(signal, reference, 5, 2)
            weights = wiener.solve_wiener(problem)
            scored = wiener.statistics_mse(problem, weights, quat.norm_sq(reference[..., :48, :]).mean(-1))
            filtered = wiener.evaluate_mse(weights, signal, reference, 5, 2)
        assert problem.autocorrelation.shape == (0, 5 * streams, 5 * streams, 4)
        assert weights.shape == (0, 5 * streams, 4)
        assert scored.db.shape == scored.linear.shape == filtered.db.shape == (0,)

    def test_one_run_figures_are_floats_equal_to_their_batch_entries(self):
        """One run's ridge and scores are read out of the run shape () as floats, bit for
        bit the entries of the (8,) arrays of the 8-run call."""
        received, symbols = self.group(n=300)
        length, delay = 6, 2
        problem = wiener.estimate_statistics(received, symbols, length, delay)
        weights = wiener.solve_wiener(problem)
        ridge = wiener.default_ridge(problem)
        filtered = wiener.evaluate_mse(weights, received, symbols, length, delay)
        scored = wiener.statistics_mse(problem, weights, filtered.reference_power)
        assert ridge.shape == scored.db.shape == filtered.linear.shape == (8,)
        for run in range(8):
            single = wiener.estimate_statistics(received[run], symbols[run], length, delay)
            figures = (
                wiener.default_ridge(single),
                wiener.statistics_mse(single, weights[run], filtered.reference_power[run]).db,
                wiener.evaluate_mse(weights[run], received[run], symbols[run], length, delay).linear,
            )
            for figure, batched in zip(figures, (ridge[run], scored.db[run], filtered.linear[run])):
                assert isinstance(figure, float)
                assert figure == batched, run

    def test_stacked_statistics_match_lag_matrix_outer_average(self):
        rng = np.random.default_rng(96)
        streams, reference = rng.normal(size=(2, 120, 4)), rng.normal(size=(120, 4))
        length, delay = 5, 3
        problem = wiener.estimate_statistics(streams, reference, length, delay)
        r, p = outer_product_statistics(streams, reference, length, delay)
        assert problem.autocorrelation.shape == (2 * length, 2 * length, 4)
        assert np.allclose(problem.autocorrelation, r, rtol=0, atol=1e-13)
        assert np.allclose(problem.cross_correlation, p, rtol=0, atol=1e-13)

    def test_indefinite_hermitian_problem_solves(self):
        """A Hermitian R with eigenvalues of both signs has no Cholesky factor but is invertible."""
        r = linalg.identity(3)
        r[1, 1] = -2.0 * quat.ONE
        r[0, 2] = quat.quat(0.3, 0.1, -0.2, 0.5)
        r[2, 0] = quat.conj(r[0, 2])
        eigenvalues = np.linalg.eigvalsh(linalg.to_complex_adjoint(r))
        assert eigenvalues.min() < 0.0 < eigenvalues.max()
        p = np.random.default_rng(97).normal(size=(3, 4))
        weights = wiener.solve_wiener(wiener.WienerProblem(r, p, 1), ridge=0.0)
        assert np.allclose(weights, quat.conj(linalg.solve(r, p)), rtol=0, atol=1e-12)


class TestCompiledStatistics:
    """`estimate_statistics` sums each accumulator of its first block row and of the cross
    moments over t = delay, delay + 1, ... in one C pass that runs 8 runs across SIMD lanes."""

    # (length, delay, N): delay 0, delay >= L, delay = N - 1 and N < L, a filter longer than the
    # window's span of 16; then N and the delay on the window's edges for any span up to 64: N on
    # either side of 16 and 64 and past two windows of 64, delays from 0 to past the first window
    CASES = [(1, 0, 40), (15, 0, 40), (15, 20, 40), (15, 39, 40), (1, 39, 40), (15, 3, 9), (20, 17, 40)] + [
        (4, d, n) for n in (15, 16, 17, 63, 64, 65, 131) for d in (0, 1, 15, 16, 17, 63, 64, 65) if d < n
    ]

    @pytest.mark.parametrize("runs", [1, 7, 8, 9, 17])
    @pytest.mark.parametrize("streams", [1, 2, 3])
    def test_matches_lag_matrix_outer_products(self, runs, streams):
        rng = np.random.default_rng(runs * 10 + streams)
        for length, delay, n in self.CASES:
            signal, reference = rng.normal(size=(runs, streams, n, 4)), rng.normal(size=(runs, n, 4))
            problem = wiener.estimate_statistics(signal, reference, length, delay)
            assert problem.sample_count == n - delay
            for run in range(runs):
                r, p = outer_product_statistics(signal[run], reference[run], length, delay)
                assert relative_gap(problem.autocorrelation[run], r) <= 1e-13
                assert relative_gap(problem.cross_correlation[run], p) <= 1e-13

    @pytest.mark.parametrize("runs", [1, 7, 8, 9, 17])
    @pytest.mark.parametrize("streams", [1, 2, 3])
    def test_equals_the_recursion_oracle_bit_for_bit(self, runs, streams):
        """R and p carry the bytes of `oracles.recursion_statistics`, the covariance recursion
        and fold in numpy: the C pass adds in the order that oracle states."""
        rng = np.random.default_rng(runs * 10 + streams + 500)
        for length, delay, n in self.CASES:
            signal, reference = rng.normal(size=(runs, streams, n, 4)), rng.normal(size=(runs, n, 4))
            problem = wiener.estimate_statistics(signal, reference, length, delay)
            r, p = recursion_statistics(signal, reference, length, delay)
            assert problem.autocorrelation.shape == r.shape and problem.autocorrelation.tobytes() == r.tobytes()
            assert problem.cross_correlation.shape == p.shape and problem.cross_correlation.tobytes() == p.tobytes()

    @pytest.mark.parametrize("streams", [1, 2])
    def test_views_are_read_in_place(self, streams):
        """A time slice, a run-broadcast input and reversed streams give the bits of their
        contiguous copies, and the slice matches the oracle."""
        rng = np.random.default_rng(120)
        length, delay = 15, 4
        received, symbols = rng.normal(size=(9, streams, 130, 4)), rng.normal(size=(9, 130, 4))
        window, targets = received[..., 30:, :], symbols[:, 30:]
        shared = np.broadcast_to(received[0], received.shape)
        reference = np.broadcast_to(symbols[0], symbols.shape)
        assert not window.flags.c_contiguous and shared.strides[0] == reference.strides[0] == 0
        for signal, refs in ((window, targets), (shared, reference), (received[:, ::-1], symbols)):
            problem = wiener.estimate_statistics(signal, refs, length, delay)
            copied = wiener.estimate_statistics(signal.copy(), refs.copy(), length, delay)
            assert np.array_equal(problem.autocorrelation, copied.autocorrelation)
            assert np.array_equal(problem.cross_correlation, copied.cross_correlation)
        problem = wiener.estimate_statistics(window, targets, length, delay)
        for run in range(9):
            r, p = outer_product_statistics(window[run], targets[run], length, delay)
            assert relative_gap(problem.autocorrelation[run], r) <= 1e-13
            assert relative_gap(problem.cross_correlation[run], p) <= 1e-13

    def test_each_run_equals_its_entry_in_a_larger_batch(self):
        """A run's bits depend neither on the lane nor on the group of 8 it lands in."""
        rng = np.random.default_rng(121)
        received, symbols = rng.normal(size=(17, 2, 200, 4)), rng.normal(size=(17, 200, 4))
        whole = wiener.estimate_statistics(received, symbols, 6, 3)
        part = wiener.estimate_statistics(received[5:14], symbols[5:14], 6, 3)
        for run in range(17):
            alone = wiener.estimate_statistics(received[run], symbols[run], 6, 3)
            assert np.array_equal(alone.autocorrelation, whole.autocorrelation[run])
            assert np.array_equal(alone.cross_correlation, whole.cross_correlation[run])
        assert np.array_equal(part.autocorrelation, whole.autocorrelation[5:14])
        assert np.array_equal(part.cross_correlation, whole.cross_correlation[5:14])

    def test_non_finite_samples_stay_in_their_runs(self):
        rng = np.random.default_rng(122)
        received, symbols = rng.normal(size=(9, 2, 100, 4)), rng.normal(size=(9, 100, 4))
        clean = wiener.estimate_statistics(received, symbols, 5, 2)
        received[2, 1, 40, 3], symbols[6, 10, 0] = np.inf, np.nan
        with np.errstate(invalid="ignore"):
            spoiled = wiener.estimate_statistics(received, symbols, 5, 2)
        for run in (0, 1, 3, 4, 5, 7, 8):
            assert np.array_equal(spoiled.autocorrelation[run], clean.autocorrelation[run])
            assert np.array_equal(spoiled.cross_correlation[run], clean.cross_correlation[run])
        assert not np.isfinite(spoiled.autocorrelation[2]).all() and not np.isfinite(spoiled.cross_correlation[2]).all()
        assert np.array_equal(spoiled.autocorrelation[6], clean.autocorrelation[6])
        assert not np.isfinite(spoiled.cross_correlation[6]).all()

    def test_traced_peak_stays_below_the_received_slice(self):
        """No copy the size of the signal or the references: on an 8-run 5000-symbol SISO
        slice the traced peak stays below the slice's received bytes.  The C pass's own
        window and sums, 67 kB here, are not traced."""
        instances = [equalization_instance(seed, n=5000) for seed in range(100, 108)]
        received, symbols = np.stack([rx for rx, _ in instances])[:, None], np.stack([s for _, s in instances])
        wiener.estimate_statistics(received, symbols, 15, 7)
        tracemalloc.start()
        try:
            wiener.estimate_statistics(received, symbols, 15, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < received.nbytes

    def test_recursion_steps_one_lag_row_at_a_time(self):
        """The covariance recursion and the fold run in the C pass, one block row of
        the moments at a time, so the (4L)^2 real moment matrix never reaches the Python
        heap: on one 2000-symbol run at L = 300 the traced peak, R and the temporaries of
        `WienerProblem`'s Hermitian check, stays within 3.5x R's bytes."""
        rng = np.random.default_rng(123)
        length = 300
        signal, reference = rng.normal(size=(2000, 4)), rng.normal(size=(2000, 4))
        tracemalloc.start()
        try:
            wiener.estimate_statistics(signal, reference, length, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * length**2 * 4 * 8
