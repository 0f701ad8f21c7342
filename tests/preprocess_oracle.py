"""Reference preprocessing: the loop implementation the array code replaced.

One Python step per measurement and one ``np.median``/``np.std`` call per
(interval, parameter) cell.  Slow, but each rule is spelled out once, so
tests compare :mod:`icurisk.preprocess` against it.  Normalization is not
repeated here: both paths share ``fit_normalization`` and ``normalize``.
"""

from __future__ import annotations

import math

import numpy as np

from icurisk.ingest import DEFAULT_REGISTRY, MAX_MINUTES, Measurement, RawEpisode
from icurisk.preprocess import (
    N_STATS,
    ImputationStats,
    PipelineStats,
    TruncationBounds,
    feature_names,
    feature_width,
    fit_normalization,
    normalize,
)


def _nearest_rank(sorted_values, percent):
    """Nearest-rank percentile: value at rank ceil(percent * n / 100)."""
    n = len(sorted_values)
    rank = max(1, -(-percent * n // 100))
    return float(sorted_values[min(rank, n) - 1])


def _clamp(value, bounds, p):
    return min(float(bounds.upper[p]), max(float(bounds.lower[p]), value))


def fit_truncation(episodes, registry=DEFAULT_REGISTRY):
    n_params = len(registry.time_series)
    values = [[] for _ in range(n_params)]
    for ep in episodes:
        for m in ep.measurements:
            values[m.parameter].append(m.value)
    lower = np.full(n_params, -np.inf)
    upper = np.full(n_params, np.inf)
    unobserved = []
    for p in range(n_params):
        if not values[p]:
            unobserved.append(registry.time_series[p])
            continue
        ordered = np.sort(np.asarray(values[p], dtype=np.float64))
        lower[p] = _nearest_rank(ordered, 1)
        upper[p] = _nearest_rank(ordered, 99)
    return TruncationBounds(lower, upper, unobserved)


def apply_truncation(episode, bounds):
    clamped = [Measurement(m.minutes, m.parameter, _clamp(m.value, bounds, m.parameter))
               for m in episode.measurements]
    return RawEpisode(episode.record_id, list(episode.statics), clamped,
                      list(episode.static_extras), episode.label)


def n_bins_max(interval_minutes):
    return -(-MAX_MINUTES // interval_minutes)


def _bin_index(minutes, interval_minutes):
    # The exact 48h endpoint folds into the last bin; everything else is
    # half-open [k*L, (k+1)*L).
    return min(minutes // interval_minutes, n_bins_max(interval_minutes) - 1)


def bin_intervals(episode, interval_minutes, registry=DEFAULT_REGISTRY):
    """``bins[t][p]``: values of parameter p in interval t, in measurement order.

    The number of intervals stops at the last observed one; an episode with
    no measurements yields one (empty) interval.
    """
    if interval_minutes <= 0:
        raise ValueError("interval_minutes must be positive")
    if episode.measurements:
        horizon = _bin_index(episode.measurements[-1].minutes, interval_minutes) + 1
    else:
        horizon = 1
    bins = [[[] for _ in registry.time_series] for _ in range(horizon)]
    for m in episode.measurements:
        bins[_bin_index(m.minutes, interval_minutes)][m.parameter].append(m.value)
    return bins


def interval_stats(values):
    """(min, max, mean, median, std) of one cell; five NaN when empty."""
    if not values:
        return np.full(N_STATS, np.nan)
    arr = np.asarray(values, dtype=np.float64)
    return np.array([arr.min(), arr.max(), arr.mean(), np.median(arr), arr.std()])


def episode_series_means(episode, registry=DEFAULT_REGISTRY):
    n_params = len(registry.time_series)
    totals = np.zeros(n_params)
    counts = np.zeros(n_params)
    for m in episode.measurements:
        totals[m.parameter] += m.value
        counts[m.parameter] += 1
    return np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)


def fit_imputation(episodes, bounds, registry=DEFAULT_REGISTRY):
    n_params = len(registry.time_series)
    n_statics = len(registry.statics)
    totals, counts = np.zeros(n_params), np.zeros(n_params)
    static_totals, static_counts = np.zeros(n_statics), np.zeros(n_statics)
    for ep in episodes:
        for m in ep.measurements:
            totals[m.parameter] += _clamp(m.value, bounds, m.parameter)
            counts[m.parameter] += 1
        for j, value in enumerate(ep.statics):
            if value is not None:
                static_totals[j] += value
                static_counts[j] += 1
    unobserved = [registry.time_series[p] for p in range(n_params) if counts[p] == 0]
    unobserved += [registry.statics[j] for j in range(n_statics) if static_counts[j] == 0]
    series_means = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    static_means = np.where(static_counts > 0, static_totals / np.maximum(static_counts, 1), 0.0)
    return ImputationStats(series_means, static_means, unobserved)


def assemble_matrix(episode, interval_minutes, registry=DEFAULT_REGISTRY):
    bins = bin_intervals(episode, interval_minutes, registry)
    n_params = len(registry.time_series)
    matrix = np.full((len(bins), feature_width(registry)), np.nan)
    for t, row_bins in enumerate(bins):
        for p in range(n_params):
            matrix[t, p * N_STATS:(p + 1) * N_STATS] = interval_stats(row_bins[p])
    for j, value in enumerate(episode.statics):
        if value is not None:
            matrix[:, n_params * N_STATS + j] = value
    return matrix


def impute(matrix, patient_means, stats, registry=DEFAULT_REGISTRY):
    out = matrix.copy()
    n_params = len(registry.time_series)
    for p in range(n_params):
        block = out[:, p * N_STATS:(p + 1) * N_STATS]
        hole = np.isnan(block)
        if hole.any():
            fill = patient_means[p]
            if not math.isfinite(fill):
                fill = stats.series_means[p]
            block[hole] = fill
    static_block = out[:, n_params * N_STATS:]
    hole = np.isnan(static_block)
    if hole.any():
        static_block[hole] = np.broadcast_to(stats.static_means, static_block.shape)[hole]
    return out


def imputed_matrix(episode, interval_minutes, bounds, imputation, registry=DEFAULT_REGISTRY):
    clamped = apply_truncation(episode, bounds)
    raw = assemble_matrix(clamped, interval_minutes, registry)
    return impute(raw, episode_series_means(clamped, registry), imputation, registry)


def fit_pipeline(episodes, interval_minutes=180, registry=DEFAULT_REGISTRY):
    bounds = fit_truncation(episodes, registry)
    imputation = fit_imputation(episodes, bounds, registry)
    norm = fit_normalization([imputed_matrix(ep, interval_minutes, bounds, imputation, registry)
                              for ep in episodes])
    return PipelineStats(interval_minutes, bounds, imputation, norm, feature_names(registry))


def build_matrix(episode, stats, registry=DEFAULT_REGISTRY):
    """The finished matrix :func:`icurisk.preprocess.build_features` should give."""
    filled = imputed_matrix(episode, stats.interval_minutes, stats.truncation,
                            stats.imputation, registry)
    return normalize(filled, stats.normalization)


def assert_same_matrix(new, old, registry=DEFAULT_REGISTRY):
    """Same shape and NaN cells; min, max, median and statics exactly equal,
    mean and std within 1e-12 relative (their sums may run in another order)."""
    assert new.shape == old.shape
    np.testing.assert_array_equal(np.isnan(new), np.isnan(old))
    column = np.arange(new.shape[1])
    stat = column % N_STATS
    exact = (column >= len(registry.time_series) * N_STATS) | (stat == 0) | (stat == 1) | (stat == 3)
    np.testing.assert_array_equal(new[:, exact], old[:, exact])
    np.testing.assert_allclose(new[:, ~exact], old[:, ~exact], rtol=1e-12, atol=0)
