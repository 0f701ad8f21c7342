"""Truncation, binning, interval statistics, imputation, normalization.

The array code is also checked against the loop code it replaced, kept in
``preprocess_oracle``.
"""

import tracemalloc

import numpy as np
import pytest

from icurisk import preprocess
from icurisk.ingest import TIME_SERIES_PARAMETERS, parse_record
from icurisk.preprocess import (
    N_STATS,
    apply_truncation,
    assemble_matrix,
    build_features,
    episode_series_means,
    feature_names,
    feature_width,
    fit_imputation,
    fit_normalization,
    fit_pipeline,
    fit_truncation,
    impute,
    normalize,
    NormalizationStats,
    PipelineStats,
)

import preprocess_oracle as oracle
from conftest import record_text, synth_record_text

HR = TIME_SERIES_PARAMETERS.index("HR")
GCS = TIME_SERIES_PARAMETERS.index("GCS")


def episode(rows, statics=None, record_id=1, label=0):
    ep = parse_record(record_text(record_id, statics, rows))
    ep.label = label
    return ep


def nearest_rank_oracle(values, percent):
    """Independent percentile oracle: sort and index at ceil(p*n/100)."""
    ordered = sorted(values)
    rank = -(-percent * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


class TestTruncation:
    def test_one_to_hundred(self):
        ep = episode([(i, "HR", float(i)) for i in range(1, 101)])
        bounds = fit_truncation([ep])
        assert bounds.lower[HR] == 1.0
        assert bounds.upper[HR] == 99.0

    def test_constant_values(self):
        ep = episode([(0, "HR", 7.0), (1, "HR", 7.0), (2, "HR", 7.0)])
        bounds = fit_truncation([ep])
        assert bounds.lower[HR] == bounds.upper[HR] == 7.0

    def test_four_samples_match_oracle(self):
        values = [0.0, 5.0, 10.0, 1000.0]
        ep = episode([(i, "HR", v) for i, v in enumerate(values)])
        bounds = fit_truncation([ep])
        assert bounds.lower[HR] == nearest_rank_oracle(values, 1)
        assert bounds.upper[HR] == nearest_rank_oracle(values, 99)

    def test_random_sets_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = list(np.round(rng.normal(0, 10, size=rng.integers(1, 200)), 3))
            ep = episode([(i % 2880, "HR", float(v)) for i, v in enumerate(values)])
            bounds = fit_truncation([ep])
            assert bounds.lower[HR] == nearest_rank_oracle(values, 1)
            assert bounds.upper[HR] == nearest_rank_oracle(values, 99)

    def test_unobserved_parameter_open_bounds(self):
        bounds = fit_truncation([episode([(0, "HR", 70.0)])])
        assert bounds.lower[GCS] == -np.inf
        assert bounds.upper[GCS] == np.inf
        assert "GCS" in bounds.unobserved

    def test_clamp(self):
        ep = episode([(0, "HR", 1000.0), (1, "HR", 50.0), (2, "HR", 0.0)])
        bounds = fit_truncation([episode([(i, "HR", float(i)) for i in range(1, 101)])])
        clamped = apply_truncation(ep, bounds)
        assert clamped.measurements["value"].tolist() == [99.0, 50.0, 1.0]
        assert clamped.measurements["minutes"].tolist() == [0, 1, 2]
        assert ep.measurements["value"].tolist() == [1000.0, 50.0, 0.0]  # input untouched

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        ep = episode([(int(m), "HR", float(v)) for m, v in
                      zip(rng.integers(0, 2881, 60), rng.normal(80, 30, 60))])
        bounds = fit_truncation([ep])
        once = apply_truncation(ep, bounds)
        twice = apply_truncation(once, bounds)
        assert once == twice


def hr_block(matrix, row):
    return matrix[row, HR * N_STATS:(HR + 1) * N_STATS]


class TestBinning:
    def test_sixteen_bins_for_48h(self):
        ep = episode([(0, "HR", 70.0), (2875, "HR", 75.0)])
        assert len(assemble_matrix(ep, 180)) == 16

    def test_minute_zero_in_bin_zero(self):
        matrix = assemble_matrix(episode([(0, "HR", 70.0)]), 180)
        np.testing.assert_array_equal(hr_block(matrix, 0), [70, 70, 70, 70, 0])

    def test_minute_180_in_bin_one(self):
        matrix = assemble_matrix(episode([(180, "HR", 70.0)]), 180)
        assert np.isnan(hr_block(matrix, 0)).all()
        np.testing.assert_array_equal(hr_block(matrix, 1), [70, 70, 70, 70, 0])

    def test_exact_endpoint_folds_into_last_bin(self):
        matrix = assemble_matrix(episode([(2880, "HR", 70.0)]), 180)
        assert len(matrix) == 16
        np.testing.assert_array_equal(hr_block(matrix, 15), [70, 70, 70, 70, 0])

    def test_horizon_capping(self):
        assert len(assemble_matrix(episode([(100, "HR", 70.0)]), 180)) == 1

    def test_empty_episode_single_bin(self):
        matrix = assemble_matrix(episode([]), 180)
        assert matrix.shape == (1, 185)
        assert np.isnan(matrix).all()

    def test_every_value_lands_in_its_bin(self):
        rng = np.random.default_rng(5)
        minutes = np.sort(rng.integers(0, 2881, 200))
        values = np.round(rng.normal(0, 1, 200), 6)
        matrix = assemble_matrix(episode([(int(m), "HR", float(v))
                                          for m, v in zip(minutes, values)]), 180)
        bins = np.minimum(minutes // 180, oracle.n_bins_max(180) - 1)
        assert len(matrix) == bins[-1] + 1
        for t in range(len(matrix)):
            inside = values[bins == t]
            block = hr_block(matrix, t)
            if inside.size == 0:
                assert np.isnan(block).all()
                continue
            np.testing.assert_array_equal(block[[0, 1, 3]],
                                          [inside.min(), inside.max(), np.median(inside)])
            np.testing.assert_allclose(block[[2, 4]], [inside.mean(), inside.std()],
                                       rtol=1e-12, atol=1e-15)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            assemble_matrix(episode([]), 0)


def cell_stats(values):
    """The HR block of one interval holding ``values``, all at minute 0."""
    return hr_block(assemble_matrix(episode([(0, "HR", v) for v in values]), 180), 0)


class TestIntervalStats:
    def test_three_values(self):
        np.testing.assert_allclose(cell_stats([1.0, 2.0, 3.0]), [1, 3, 2, 2, 0.816497],
                                   atol=1e-6)

    def test_singleton(self):
        np.testing.assert_array_equal(cell_stats([5.0]), [5, 5, 5, 5, 0])

    def test_empty_is_all_missing(self):
        matrix = assemble_matrix(episode([(0, "GCS", 15.0)]), 180)
        assert np.isnan(hr_block(matrix, 0)).all()

    def test_even_median_averages_central_pair(self):
        assert cell_stats([10.0, 1.0, 20.0, 2.0])[3] == 6.0

    def test_odd_median_is_the_middle_value(self):
        big = np.finfo(np.float64).max
        assert cell_stats([big, big, 1.0])[3] == big

    def test_population_std(self):
        assert cell_stats([3.0, 7.0])[4] == 2.0  # sqrt(((3-5)^2+(7-5)^2)/2)


class TestImputation:
    def test_patient_mean_fills_gap(self):
        # Measured in bins 0 and 2 with values 10 and 14; bin 1 missing.
        ep = episode([(0, "HR", 10.0), (400, "HR", 14.0)])
        bounds = fit_truncation([ep])
        stats = fit_imputation([ep], bounds)
        matrix = assemble_matrix(ep, 180)
        filled = impute(matrix, episode_series_means(ep), stats)
        block = filled[1, HR * N_STATS:(HR + 1) * N_STATS]
        np.testing.assert_array_equal(block, np.full(N_STATS, 12.0))

    def test_population_mean_when_never_measured(self):
        donor = episode([(0, "GCS", 80.0)], record_id=2)
        patient = episode([(0, "HR", 70.0)])
        bounds = fit_truncation([donor, patient])
        stats = fit_imputation([donor, patient], bounds)
        matrix = assemble_matrix(patient, 180)
        filled = impute(matrix, episode_series_means(patient), stats)
        block = filled[0, GCS * N_STATS:(GCS + 1) * N_STATS]
        np.testing.assert_array_equal(block, np.full(N_STATS, 80.0))

    def test_nothing_missing_is_identity(self):
        matrix = np.arange(185, dtype=float).reshape(1, 185)
        stats = fit_imputation([episode([(0, "HR", 70.0)])],
                               fit_truncation([episode([(0, "HR", 70.0)])]))
        np.testing.assert_array_equal(impute(matrix, np.zeros(36), stats), matrix)

    def test_missing_static_filled_from_static_mean(self):
        with_age = episode([(0, "HR", 70.0)], statics={"Age": 60}, record_id=1)
        without = episode([(0, "HR", 72.0)], record_id=2)
        bounds = fit_truncation([with_age, without])
        stats = fit_imputation([with_age, without], bounds)
        matrix = assemble_matrix(without, 180)
        filled = impute(matrix, episode_series_means(without), stats)
        age_col = feature_names().index("Age")
        assert filled[0, age_col] == 60.0


class TestNormalization:
    def test_constant_feature(self):
        stats = fit_normalization(np.full((4, 185), 3.0))
        assert stats.mean[0] == 3.0
        assert stats.std[0] == 0.0
        assert stats.zero_std.all()

    def test_two_value_feature(self):
        matrix = np.zeros((2, 185))
        matrix[1, :] = 2.0
        stats = fit_normalization(matrix)
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0

    def test_exactly_185_pairs(self):
        stats = fit_normalization(np.zeros((3, 185)))
        assert stats.mean.shape == (185,)
        assert stats.std.shape == (185,)

    def test_zscore_values(self):
        stats = fit_normalization(np.array([[3.0] * 185, [7.0] * 185]))
        out = normalize(np.full((1, 185), 7.0), stats)
        np.testing.assert_array_equal(out, np.ones((1, 185)))
        out = normalize(np.full((1, 185), 5.0), stats)
        np.testing.assert_array_equal(out, np.zeros((1, 185)))

    def test_zero_std_maps_to_zero(self):
        stats = fit_normalization(np.full((2, 185), 3.0))
        out = normalize(np.full((1, 185), 99.0), stats)
        np.testing.assert_array_equal(out, np.zeros((1, 185)))

    def test_std_is_read_only_as_its_divisor_is_kept(self):
        # A corrupt model file can carry a negative or NaN std: each divides
        # by 1, as the divisor's rule had it before it was kept.
        stats = NormalizationStats(np.zeros(5), np.array([2.0, 0.0, 4.0, -1.0, np.nan]))
        with pytest.raises(ValueError, match="read-only"):
            stats.std[1] = 1.0
        out = normalize(np.full((1, 5), 8.0), stats)
        np.testing.assert_array_equal(out, [[4.0, 0.0, 2.0, 8.0, 8.0]])
        np.testing.assert_array_equal(out, oracle.normalize(np.full((1, 5), 8.0), stats))

    def test_constant_with_inexact_mean_maps_to_zero(self):
        # The mean of three 0.1s is not exactly 0.1, so the computed std is
        # rounding noise rather than 0.
        stats = fit_normalization(np.full((3, 185), 0.1))
        assert stats.zero_std.all()
        np.testing.assert_array_equal(normalize(np.full((1, 185), 0.1), stats),
                                      np.zeros((1, 185)))

    def test_parameter_seen_in_one_cell_maps_to_zero(self):
        # One Cholesterol reading: after imputation every interval of every
        # stay holds that value in the min, max, mean and median columns.
        rng = np.random.default_rng(13)
        eps = [episode([(int(m), "HR", float(v)) for m, v in
                        zip(np.sort(rng.integers(0, 2881, 20)), np.round(rng.normal(80, 9, 20), 1))],
                       record_id=i + 1) for i in range(30)]
        eps.append(episode([(0, "Cholesterol", 106.13)], record_id=31))
        stats = fit_pipeline(eps)
        chol = TIME_SERIES_PARAMETERS.index("Cholesterol") * N_STATS
        for ep in eps:
            np.testing.assert_array_equal(build_features(ep, stats).matrix[:, chol:chol + 4], 0.0)


class TestBuildFeatures:
    def _pipeline(self, episodes, interval=180):
        return fit_pipeline(episodes, interval)

    def test_48h_record_shape(self):
        rng = np.random.default_rng(6)
        eps = [parse_record(synth_record_text(i + 1, rng)) for i in range(4)]
        stats = self._pipeline(eps)
        for ep in eps:
            feats = build_features(ep, stats)
            assert feats.matrix.shape[0] <= 16
            assert feats.matrix.shape[1] == 185

    def test_dimension_arithmetic(self):
        assert feature_width() == 36 * N_STATS + 5 == 185
        assert len(feature_names()) == 185

    def test_statics_replicated_across_rows(self):
        ep = episode([(0, "HR", 70.0), (500, "HR", 75.0)], statics={"Age": 60})
        stats = self._pipeline([ep, episode([(0, "HR", 60.0)], record_id=2)])
        matrix = build_features(ep, stats).matrix
        age_col = feature_names().index("Age")
        assert (matrix[:, age_col] == matrix[0, age_col]).all()

    def test_empty_episode_single_imputed_row(self):
        empty = episode([], statics={"Age": 70}, record_id=3)
        other = episode([(0, "HR", 70.0)], statics={"Age": 50}, record_id=4)
        stats = self._pipeline([other, empty])
        feats = build_features(empty, stats)
        assert feats.matrix.shape == (1, 185)
        assert np.isfinite(feats.matrix).all()

    def test_no_non_finite_output(self):
        rng = np.random.default_rng(8)
        eps = [parse_record(synth_record_text(i + 1, rng, sick=i % 2 == 0))
               for i in range(10)]
        eps.append(episode([], record_id=99))
        eps.append(episode([(50, "HR", 1e9)], record_id=100))  # extreme outlier
        stats = self._pipeline(eps)
        for ep in eps:
            assert np.isfinite(build_features(ep, stats).matrix).all()

    def test_transform_is_deterministic(self):
        rng = np.random.default_rng(9)
        eps = [parse_record(synth_record_text(i + 1, rng)) for i in range(3)]
        stats = self._pipeline(eps)
        first = build_features(eps[0], stats).matrix
        second = build_features(eps[0], stats).matrix
        np.testing.assert_array_equal(first, second)

    def test_48h_interval_yields_single_row(self):
        rng = np.random.default_rng(10)
        eps = [parse_record(synth_record_text(i + 1, rng)) for i in range(3)]
        stats = self._pipeline(eps, interval=2880)
        for ep in eps:
            assert build_features(ep, stats).matrix.shape == (1, 185)

    def test_stats_round_trip_through_dict(self):
        rng = np.random.default_rng(12)
        eps = [parse_record(synth_record_text(i + 1, rng)) for i in range(3)]
        stats = self._pipeline(eps)
        restored = PipelineStats.from_dict(stats.to_dict())
        original = build_features(eps[1], stats).matrix
        replayed = build_features(eps[1], restored).matrix
        np.testing.assert_array_equal(original, replayed)


def corpus(n=24, seed=21):
    """Synthetic records with tied timestamps, empty and dense stays."""
    rng = np.random.default_rng(seed)
    eps = [parse_record(synth_record_text(i + 1, rng, sick=i % 3 == 0,
                                          n_measurements=[0, 1, 40, 300][i % 4]))
           for i in range(n)]
    for i, ep in enumerate(eps):
        ep.label = i % 2
    return eps


class TestMatchesLoopOracle:
    @pytest.mark.parametrize("interval", [60, 180, 2880])
    def test_fitted_statistics(self, interval):
        eps = corpus()
        new, old = fit_pipeline(eps, interval), oracle.fit_pipeline(eps, interval)
        np.testing.assert_array_equal(new.truncation.lower, old.truncation.lower)
        np.testing.assert_array_equal(new.truncation.upper, old.truncation.upper)
        assert new.truncation.unobserved == old.truncation.unobserved
        np.testing.assert_allclose(new.imputation.series_means, old.imputation.series_means,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(new.imputation.static_means, old.imputation.static_means,
                                   rtol=1e-12, atol=0)
        assert new.imputation.unobserved == old.imputation.unobserved
        np.testing.assert_allclose(new.normalization.mean, old.normalization.mean,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(new.normalization.std, old.normalization.std,
                                   rtol=1e-12, atol=0)

    def test_unobserved_parameters_and_statics(self):
        eps = [episode([(0, "HR", 70.0)], record_id=1), episode([], record_id=2)]
        bounds = fit_truncation(eps)
        assert bounds.unobserved == oracle.fit_truncation(eps).unobserved
        assert len(bounds.unobserved) == 35
        stats = fit_imputation(eps, bounds)
        assert stats.unobserved == oracle.fit_imputation(eps, bounds).unobserved
        np.testing.assert_array_equal(stats.static_means, np.zeros(5))

    @pytest.mark.parametrize("interval", [60, 180, 2880])
    def test_matrices(self, interval):
        eps = corpus()
        stats = fit_pipeline(eps, interval)
        for ep in eps:
            clamped = apply_truncation(ep, stats.truncation)
            assert clamped == oracle.apply_truncation(ep, stats.truncation)
            raw = assemble_matrix(clamped, interval)
            oracle.assert_same_matrix(raw, oracle.assemble_matrix(clamped, interval))
            patient = episode_series_means(clamped)
            np.testing.assert_allclose(patient, oracle.episode_series_means(clamped),
                                       rtol=1e-12, atol=0)
            np.testing.assert_array_equal(impute(raw, patient, stats.imputation),
                                          oracle.impute(raw, patient, stats.imputation))
            # z-scores are unit scale; atol covers those that cancel to ~0
            np.testing.assert_allclose(build_features(ep, stats).matrix,
                                       oracle.build_matrix(ep, stats), rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_statistics_name_record_and_feature():
    ep = episode([(0, "HR", 70.0)], record_id=140000)
    stats = fit_pipeline([ep, episode([(0, "HR", 60.0)], record_id=2)])
    stats.normalization.mean[HR * N_STATS] = np.nan
    with pytest.raises(ValueError, match="record 140000: feature HR_min"):
        build_features(ep, stats)
    # A static near 1e308 over a std under 1 overflows in normalize; the
    # record is refused by name, with no RuntimeWarning raised first.
    stats = fit_pipeline([episode([(0, "HR", 70.0)], {"Weight": 70.0}, record_id=1),
                          episode([(0, "HR", 60.0)], {"Weight": 70.5}, record_id=2)])
    huge = episode([(0, "HR", 70.0)], {"Weight": 1e308}, record_id=140001)
    with pytest.raises(ValueError, match="^record 140001: feature Weight is inf in interval 0$"):
        build_features(huge, stats)


@pytest.mark.parametrize("t,j,value", [(2, 97, np.inf), (1, 184, np.nan), (2, 0, -np.inf)])
def test_non_finite_cell_is_named_after_the_whole_matrix_check(monkeypatch, t, j, value):
    # A second bad cell later in row-major order must not be the one named.
    ep = episode([(0, "HR", 70.0), (200, "HR", 72.0), (400, "GCS", 9.0)], record_id=140000)
    stats = fit_pipeline([ep, episode([(0, "HR", 60.0), (400, "GCS", 15.0)], record_id=2)])
    clean = normalize

    def planted(matrix, norm):
        out = clean(matrix, norm)
        out[t, j] = value
        out[-1, -1] = np.nan
        return out

    monkeypatch.setattr(preprocess, "normalize", planted)
    name = feature_names()[j]
    with pytest.raises(ValueError, match=f"^record 140000: feature {name} is {value} "
                                         f"in interval {t}$"):
        build_features(ep, stats)


@pytest.mark.parametrize("first,second,message", [
    ({"rows": [(0, "HR", 1.5e308)]}, {"rows": [(60, "HR", 1.6e308)]},
     "feature HR: fitted imputation mean is inf"),
    ({"rows": [(0, "HR", 70.0)], "statics": {"Weight": 1.5e308}},
     {"rows": [(0, "HR", 60.0)], "statics": {"Weight": 1.6e308}},
     "feature Weight: fitted imputation mean is inf"),
    ({"rows": [(0, "HR", 1e200)]}, {"rows": [(0, "HR", 70.0)]},
     "feature HR_min: fitted normalization std is inf"),
    ({"rows": [(0, "HR", 1e300)]}, {"rows": [(0, "HR", -1e300)]},
     "feature HR_min: fitted normalization std is inf"),
], ids=["series-mean", "static-mean", "normalization-std", "squares-overflow"])
def test_fit_refuses_a_non_finite_statistic(first, second, message):
    # Values near 1e308 parse, but sums and squares of them overflow.
    episodes = [episode(record_id=i + 1, **spec) for i, spec in enumerate((first, second))]
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_pipeline(episodes)


def test_fit_refuses_an_empty_split():
    with pytest.raises(ValueError, match="^no training episodes were given$"):
        fit_pipeline([])


def test_fit_holds_one_copy_of_the_training_matrices():
    # The list of matrices, their concatenation and np.std's deviations made
    # the traced peak about 3.0x one stacked copy; writing each matrix into
    # one array and fitting it in place reads about 1.02x here.
    rng = np.random.default_rng(41)
    eps = [parse_record(synth_record_text(i + 1, rng)) for i in range(300)]
    stacked_bytes = sum(len(assemble_matrix(ep, 180)) for ep in eps) * feature_width() * 8
    tracemalloc.start()
    try:
        fit_pipeline(eps, 180)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stacked_bytes
