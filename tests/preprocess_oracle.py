"""Reference preprocessing: the loop implementation the array code replaced.

One Python step per measurement and one ``np.median``/``np.std`` call per
(interval, parameter) cell.  Slow, but each rule is spelled out once, so
tests compare :mod:`icurisk.preprocess` against it.  Measurements are read
row by row as ``(minutes, parameter, value)`` tuples via ``tolist()``.
:func:`fit_normalization` is the form the in-place fit replaced: the
matrices stacked by ``np.concatenate``, then ``std`` on the stack, which
makes a third copy.

:func:`stacked_assemble_matrix`, :func:`normalize` and
:func:`checked_features` are the array transform as it was before the
matrix was written in one preallocated array: values ranked by
``lexsort``, statistics stacked with ``column_stack`` into a NaN-filled
array, ``hstack`` with the statics, two allocations in ``normalize`` and
``argwhere`` over every cell.  Its arithmetic is the production one, so
tests compare them bit for bit.

:func:`stats_to_dict` and :func:`stats_from_dict` are the statistics'
JSON block spelled out field by field, as ``PipelineStats`` wrote and read
it before both were derived from its field declarations; the derived ones
must give the same JSON text and the same bits.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from icurisk import preprocess
from icurisk.ingest import (
    MAX_MINUTES,
    MEASUREMENT_DTYPE,
    STATIC_PARAMETERS,
    TIME_SERIES_PARAMETERS,
)
from icurisk.preprocess import (
    N_SERIES,
    N_STATICS,
    N_STATS,
    ImputationStats,
    NormalizationStats,
    PipelineStats,
    TruncationBounds,
    feature_names,
    feature_width,
)


def _nearest_rank(sorted_values, percent):
    """Nearest-rank percentile: value at rank ceil(percent * n / 100)."""
    n = len(sorted_values)
    rank = max(1, -(-percent * n // 100))
    return float(sorted_values[min(rank, n) - 1])


def _clamp(value, bounds, p):
    return min(float(bounds.upper[p]), max(float(bounds.lower[p]), value))


def fit_truncation(episodes):
    values = [[] for _ in range(N_SERIES)]
    for ep in episodes:
        for _, p, value in ep.measurements.tolist():
            values[p].append(value)
    lower = np.full(N_SERIES, -np.inf)
    upper = np.full(N_SERIES, np.inf)
    unobserved = []
    for p in range(N_SERIES):
        if not values[p]:
            unobserved.append(TIME_SERIES_PARAMETERS[p])
            continue
        ordered = np.sort(np.asarray(values[p], dtype=np.float64))
        lower[p] = _nearest_rank(ordered, 1)
        upper[p] = _nearest_rank(ordered, 99)
    return TruncationBounds(lower, upper, unobserved)


def apply_truncation(episode, bounds):
    clamped = [(minutes, p, _clamp(value, bounds, p))
               for minutes, p, value in episode.measurements.tolist()]
    return replace(episode, measurements=np.array(clamped, dtype=MEASUREMENT_DTYPE))


def n_bins_max(interval_minutes):
    return -(-MAX_MINUTES // interval_minutes)


def _bin_index(minutes, interval_minutes):
    # The exact 48h endpoint folds into the last bin; everything else is
    # half-open [k*L, (k+1)*L).
    return min(minutes // interval_minutes, n_bins_max(interval_minutes) - 1)


def bin_intervals(episode, interval_minutes):
    """``bins[t][p]``: values of parameter p in interval t, in measurement order.

    The number of intervals stops at the last observed one; an episode with
    no measurements yields one (empty) interval.
    """
    if interval_minutes <= 0:
        raise ValueError("interval_minutes must be positive")
    rows = episode.measurements.tolist()
    if rows:
        horizon = _bin_index(rows[-1][0], interval_minutes) + 1
    else:
        horizon = 1
    bins = [[[] for _ in range(N_SERIES)] for _ in range(horizon)]
    for minutes, p, value in rows:
        bins[_bin_index(minutes, interval_minutes)][p].append(value)
    return bins


def interval_stats(values):
    """(min, max, mean, median, std) of one cell; five NaN when empty."""
    if not values:
        return np.full(N_STATS, np.nan)
    arr = np.asarray(values, dtype=np.float64)
    return np.array([arr.min(), arr.max(), arr.mean(), np.median(arr), arr.std()])


def episode_series_means(episode):
    totals = np.zeros(N_SERIES)
    counts = np.zeros(N_SERIES)
    for _, p, value in episode.measurements.tolist():
        totals[p] += value
        counts[p] += 1
    return np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)


def fit_imputation(episodes, bounds):
    totals, counts = np.zeros(N_SERIES), np.zeros(N_SERIES)
    static_totals, static_counts = np.zeros(N_STATICS), np.zeros(N_STATICS)
    for ep in episodes:
        for _, p, value in ep.measurements.tolist():
            totals[p] += _clamp(value, bounds, p)
            counts[p] += 1
        for j, value in enumerate(ep.statics):
            if value is not None:
                static_totals[j] += value
                static_counts[j] += 1
    unobserved = [TIME_SERIES_PARAMETERS[p] for p in range(N_SERIES) if counts[p] == 0]
    unobserved += [STATIC_PARAMETERS[j] for j in range(N_STATICS) if static_counts[j] == 0]
    series_means = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    static_means = np.where(static_counts > 0, static_totals / np.maximum(static_counts, 1), 0.0)
    return ImputationStats(series_means, static_means, unobserved)


def assemble_matrix(episode, interval_minutes):
    bins = bin_intervals(episode, interval_minutes)
    matrix = np.full((len(bins), feature_width()), np.nan)
    for t, row_bins in enumerate(bins):
        for p in range(N_SERIES):
            matrix[t, p * N_STATS:(p + 1) * N_STATS] = interval_stats(row_bins[p])
    for j, value in enumerate(episode.statics):
        if value is not None:
            matrix[:, N_SERIES * N_STATS + j] = value
    return matrix


def impute(matrix, patient_means, stats):
    out = matrix.copy()
    for p in range(N_SERIES):
        block = out[:, p * N_STATS:(p + 1) * N_STATS]
        hole = np.isnan(block)
        if hole.any():
            fill = patient_means[p]
            if not math.isfinite(fill):
                fill = stats.series_means[p]
            block[hole] = fill
    static_block = out[:, N_SERIES * N_STATS:]
    hole = np.isnan(static_block)
    if hole.any():
        static_block[hole] = np.broadcast_to(stats.static_means, static_block.shape)[hole]
    return out


def fit_normalization(stacked):
    """``mean`` and ``std`` of the stacked matrices, leaving them as they are."""
    constant = stacked.max(axis=0) == stacked.min(axis=0)
    return NormalizationStats(stacked.mean(axis=0), np.where(constant, 0.0, stacked.std(axis=0)))


def normalize(matrix, stats):
    """Z-score each column; degenerate (std 0) columns map to 0."""
    safe_std = np.where(stats.std > 0, stats.std, 1.0)
    out = (matrix - stats.mean) / safe_std
    out[:, stats.zero_std] = 0.0
    return out


def imputed_matrix(episode, interval_minutes, bounds, imputation):
    clamped = apply_truncation(episode, bounds)
    raw = assemble_matrix(clamped, interval_minutes)
    return impute(raw, episode_series_means(clamped), imputation)


def fit_pipeline(episodes, interval_minutes=180):
    bounds = fit_truncation(episodes)
    imputation = fit_imputation(episodes, bounds)
    norm = fit_normalization(np.concatenate([imputed_matrix(ep, interval_minutes, bounds,
                                                            imputation) for ep in episodes]))
    return PipelineStats(interval_minutes=interval_minutes, feature_names=feature_names(),
                         truncation=bounds, imputation=imputation, normalization=norm)


def build_matrix(episode, stats):
    """The finished matrix :func:`icurisk.preprocess.build_features` should give."""
    filled = imputed_matrix(episode, stats.interval_minutes, stats.truncation,
                            stats.imputation)
    return normalize(filled, stats.normalization)


def assert_same_matrix(new, old):
    """Same shape and NaN cells; min, max, median and statics exactly equal,
    mean and std within 1e-12 relative (their sums may run in another order)."""
    assert new.shape == old.shape
    np.testing.assert_array_equal(np.isnan(new), np.isnan(old))
    column = np.arange(new.shape[1])
    stat = column % N_STATS
    exact = (column >= N_SERIES * N_STATS) | (stat == 0) | (stat == 1) | (stat == 3)
    np.testing.assert_array_equal(new[:, exact], old[:, exact])
    np.testing.assert_allclose(new[:, ~exact], old[:, ~exact], rtol=1e-12, atol=0)


def stacked_assemble_matrix(episode, interval_minutes):
    """The array ``assemble_matrix`` whose pieces are stacked after the fact."""
    rows = episode.measurements
    values = rows["value"]
    bins = preprocess._bins(rows["minutes"], interval_minutes)
    n_rows = int(bins.max(initial=0)) + 1
    cell = bins * N_SERIES + rows["parameter"]
    counts = np.bincount(cell, minlength=n_rows * N_SERIES)
    seen = counts > 0
    k = counts[seen]
    mean = np.zeros(counts.size)
    mean[seen] = np.bincount(cell, values, counts.size)[seen] / k
    dev = values - mean[cell]
    ranked = values[np.lexsort((values, cell))]
    first = (np.cumsum(counts) - counts)[seen]
    median = ranked[first + k // 2]
    even = k % 2 == 0
    median[even] = (ranked[(first + k // 2 - 1)[even]] + median[even]) / 2
    stats = np.full((counts.size, N_STATS), np.nan)
    stats[seen] = np.column_stack([
        ranked[first], ranked[first + k - 1], mean[seen], median,
        np.sqrt(np.bincount(cell, dev * dev, counts.size)[seen] / k),
    ])
    statics = np.broadcast_to(preprocess._statics(episode), (n_rows, N_STATICS))
    return np.hstack([stats.reshape(n_rows, N_SERIES * N_STATS), statics])


def checked_features(episode, stats):
    """``build_features``'s matrix through the stacked transform, or its ValueError.

    Truncation, the patient means and imputation are the production ones."""
    clamped = preprocess.apply_truncation(episode, stats.truncation)
    raw = stacked_assemble_matrix(clamped, stats.interval_minutes)
    filled = preprocess.impute(raw, preprocess.episode_series_means(clamped), stats.imputation)
    matrix = normalize(filled, stats.normalization)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        t, j = bad[0]
        raise ValueError(f"record {episode.record_id}: feature {stats.feature_names[j]} "
                         f"is {matrix[t, j]} in interval {t}")
    return matrix


def stats_to_dict(stats):
    return {
        "interval_minutes": stats.interval_minutes,
        "feature_names": list(stats.feature_names),
        "truncation": {
            "lower": stats.truncation.lower.tolist(),
            "upper": stats.truncation.upper.tolist(),
            "unobserved": list(stats.truncation.unobserved),
        },
        "imputation": {
            "series_means": stats.imputation.series_means.tolist(),
            "static_means": stats.imputation.static_means.tolist(),
            "unobserved": list(stats.imputation.unobserved),
        },
        "normalization": {
            "mean": stats.normalization.mean.tolist(),
            "std": stats.normalization.std.tolist(),
        },
    }


def stats_from_dict(d):
    """The statistics in ``d``; ``PipelineStats`` checks the interval."""
    return PipelineStats(
        interval_minutes=d["interval_minutes"],
        truncation=TruncationBounds(
            lower=np.asarray(d["truncation"]["lower"], dtype=np.float64),
            upper=np.asarray(d["truncation"]["upper"], dtype=np.float64),
            unobserved=list(d["truncation"]["unobserved"]),
        ),
        imputation=ImputationStats(
            series_means=np.asarray(d["imputation"]["series_means"], dtype=np.float64),
            static_means=np.asarray(d["imputation"]["static_means"], dtype=np.float64),
            unobserved=list(d["imputation"]["unobserved"]),
        ),
        normalization=NormalizationStats(
            mean=np.asarray(d["normalization"]["mean"], dtype=np.float64),
            std=np.asarray(d["normalization"]["std"], dtype=np.float64),
        ),
        feature_names=list(d["feature_names"]),
    )
