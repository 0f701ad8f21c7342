"""Feature extraction: raw episodes to fixed-width per-interval matrices.

The pipeline is: clamp measurement values to fitted 1st/99th percentile
bounds, partition the 48-hour window into equal-length intervals, summarize
each interval's values per parameter with (min, max, mean, median, std),
fill missing cells first with the patient's own across-time mean and then
with the training-population mean, append the five static descriptors to
every row, and z-score every column (a column constant over the training
intervals maps to 0).  The result is T x 185 with
185 = 36 parameters x 5 statistics + 5 statics.  :func:`assemble_matrix`
states the interval and summary rules (endpoint, horizon, median, std).

Every step reads the columns (minutes, parameter, value) of an episode's
measurement array, with bincounts and sorts in place of per-measurement
loops.

All fitting functions consume only the episodes they are given, so handing
them the training split of a fold is what keeps validation data out of the
fitted statistics: one checked type, :class:`PipelineStats`, which alone
writes and reads their JSON block (``stats.json``, a model's ``preprocess``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from icurisk.ingest import (
    MAX_MINUTES,
    MEASUREMENT_DTYPE,
    STATIC_PARAMETERS,
    TIME_SERIES_PARAMETERS,
    RawEpisode,
)

STAT_NAMES = ("min", "max", "mean", "median", "std")
N_STATS = len(STAT_NAMES)
N_SERIES = len(TIME_SERIES_PARAMETERS)
N_STATICS = len(STATIC_PARAMETERS)

# The interval length unless a caller chooses another: 16 intervals of 3 hours.
DEFAULT_INTERVAL_MINUTES = 180


def check_count(name: str, value, least: int = 1) -> None:
    """The one rule for a size, count or interval: raise ValueError naming
    ``name`` unless ``value`` is an int (not a bool) of at least ``least``."""
    if type(value) is not int or value < least:
        what = "a positive integer" if least == 1 else f"an integer of at least {least}"
        raise ValueError(f"{name} is {value!r}, not {what}")


def check_number(name: str, value) -> None:
    """The type rule for a rate: raise ValueError naming ``name`` unless
    ``value`` is an int or a float (a float subclass such as np.float64
    passes), and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} is {value!r}, not a number")


def feature_names() -> list[str]:
    """Column names of the feature matrix, parameter-major then statics."""
    names = [f"{param}_{stat}" for param in TIME_SERIES_PARAMETERS for stat in STAT_NAMES]
    names.extend(STATIC_PARAMETERS)
    return names


def feature_width() -> int:
    return N_SERIES * N_STATS + N_STATICS


@dataclass
class TruncationBounds:
    """Per-parameter clamp range fitted as nearest-rank percentiles."""

    lower: np.ndarray
    upper: np.ndarray
    unobserved: list[str]


@dataclass
class ImputationStats:
    """Population fallback means, fitted on truncated training values."""

    series_means: np.ndarray
    static_means: np.ndarray
    unobserved: list[str]


@dataclass
class NormalizationStats:
    """Per-feature mean and population std over all training intervals.

    ``zero_std`` masks the degenerate (std 0) features, which normalize to
    0, and ``divisor`` is ``std`` with 1 wherever it is not above 0.  Both
    are derived once, here, so ``std`` is read-only.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.std.flags.writeable = False
        self.zero_std = self.std == 0.0
        self.divisor = np.where(self.std > 0, self.std, 1.0)


@dataclass
class PipelineStats:
    """Everything fitted on a training split, enough to replay transforms,
    checked on construction; the fields are in the JSON block's order."""

    interval_minutes: int
    feature_names: list[str]
    truncation: TruncationBounds
    imputation: ImputationStats
    normalization: NormalizationStats

    def __post_init__(self):
        self.check()

    def to_dict(self) -> dict:
        """The statistics as JSON values: arrays become lists of floats."""
        return asdict(self, dict_factory=lambda items: {
            name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in items})

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineStats":
        """The inverse of :meth:`to_dict`, field by field in the block's order; a
        missing field raises KeyError, a bad value TypeError, ValueError or OverflowError."""
        def array(value):
            return np.asarray(value, dtype=np.float64)
        return cls(
            d["interval_minutes"],
            list(d["feature_names"]),
            TruncationBounds(array(d["truncation"]["lower"]), array(d["truncation"]["upper"]),
                             list(d["truncation"]["unobserved"])),
            ImputationStats(array(d["imputation"]["series_means"]),
                            array(d["imputation"]["static_means"]),
                            list(d["imputation"]["unobserved"])),
            NormalizationStats(array(d["normalization"]["mean"]),
                               array(d["normalization"]["std"])))

    def check(self) -> None:
        """Raise ValueError at what no fit writes: an ``interval_minutes`` that
        :func:`check_count` refuses, names other than :func:`feature_names`,
        naming the first that differs, or a NaN, an infinite mean or std, or
        a negative std, naming the feature and the statistic.  An unobserved
        parameter's bounds are -inf and +inf; a std of 0 marks a constant
        column."""
        check_count("interval_minutes", self.interval_minutes)
        series, names = TIME_SERIES_PARAMETERS, feature_names()
        given = list(self.feature_names)
        if given != names:
            at = next((i for i, (a, b) in enumerate(zip(given, names)) if a != b), None)
            if at is None:
                raise ValueError(f"feature_names has {len(given)} names, expected {len(names)}")
            raise ValueError(f"feature_names[{at}] is {given[at]!r}, expected {names[at]!r}")
        means = np.concatenate([self.imputation.series_means, self.imputation.static_means])
        big = np.finfo(np.float64).max  # the range each holds; NaN is in none
        for statistic, values, value_names, lowest, highest in (
                ("truncation lower", self.truncation.lower, series, -np.inf, np.inf),
                ("truncation upper", self.truncation.upper, series, -np.inf, np.inf),
                ("imputation mean", means, series + STATIC_PARAMETERS, -big, big),
                ("normalization mean", self.normalization.mean, names, -big, big),
                ("normalization std", self.normalization.std, names, 0.0, big)):
            if values.shape != (len(value_names),):
                raise ValueError(f"fitted {statistic} has shape {values.shape}, "
                                 f"expected ({len(value_names)},)")
            bad = np.flatnonzero(~((values >= lowest) & (values <= highest)))
            if bad.size:
                raise ValueError(f"feature {value_names[bad[0]]}: fitted {statistic} "
                                 f"is {values[bad[0]]}")


@dataclass
class EpisodeFeatures:
    """The finished T x 185 matrix for one episode.

    ``label`` is None for unlabeled episodes scored at prediction time.
    """

    record_id: int
    matrix: np.ndarray
    label: int | None


def _pooled(episodes: list[RawEpisode]) -> np.ndarray:
    """Every episode's measurements in one array, episode by episode."""
    return np.concatenate([np.empty(0, MEASUREMENT_DTYPE)] + [ep.measurements for ep in episodes])


def _clamped(rows: np.ndarray, bounds: TruncationBounds) -> np.ndarray:
    """The rows' values, each clamped into its parameter's fitted range."""
    params = rows["parameter"]
    return np.clip(rows["value"], bounds.lower[params], bounds.upper[params])


def _statics(episode: RawEpisode) -> np.ndarray:
    """The static descriptors as floats, NaN where missing."""
    return np.array([np.nan if v is None else v for v in episode.statics], dtype=np.float64)


def _parameter_means(params: np.ndarray, values: np.ndarray, n_params: int) -> np.ndarray:
    """Mean value per parameter index, NaN for a parameter with no values."""
    counts = np.bincount(params, minlength=n_params)
    return np.divide(np.bincount(params, values, n_params), counts,
                     out=np.full(n_params, np.nan), where=counts > 0)


def _nearest_rank(counts: np.ndarray, percent: int) -> np.ndarray:
    """1-based nearest-rank position ceil(percent * n / 100), at least 1."""
    return np.maximum(1, -(-percent * counts // 100))  # integer ceil, no float fuzz


def fit_truncation(episodes: list[RawEpisode]) -> TruncationBounds:
    """Fit 1st/99th nearest-rank percentile bounds per time-series parameter.

    Parameters with no observations fall back to (-inf, +inf) and are noted
    in ``unobserved``.
    """
    rows = _pooled(episodes)
    params, values = rows["parameter"], rows["value"]
    ordered = values[np.lexsort((values, params))]
    counts = np.bincount(params, minlength=N_SERIES)
    first = np.cumsum(counts) - counts
    seen = counts > 0
    lower = np.full(N_SERIES, -np.inf)
    upper = np.full(N_SERIES, np.inf)
    lower[seen] = ordered[(first + _nearest_rank(counts, 1) - 1)[seen]]
    upper[seen] = ordered[(first + _nearest_rank(counts, 99) - 1)[seen]]
    unobserved = [TIME_SERIES_PARAMETERS[p] for p in np.flatnonzero(~seen)]
    return TruncationBounds(lower, upper, unobserved)


def apply_truncation(episode: RawEpisode, bounds: TruncationBounds) -> RawEpisode:
    """Clamp every measurement value into its parameter's fitted range."""
    clamped = episode.measurements.copy()
    clamped["value"] = _clamped(clamped, bounds)
    return RawEpisode(episode.record_id, episode.statics, clamped, episode.static_extras,
                      episode.label)


def _bins(minutes: np.ndarray, interval_minutes: int) -> np.ndarray:
    """Each minute's interval index; the 48-hour endpoint folds into the last."""
    check_count("interval_minutes", interval_minutes)
    last = -(-MAX_MINUTES // interval_minutes) - 1  # ceil(48 h / L) intervals in all
    return np.minimum(minutes // interval_minutes, last)


def episode_series_means(episode: RawEpisode) -> np.ndarray:
    """Across-time mean per parameter for one patient; NaN if never measured."""
    rows = episode.measurements
    return _parameter_means(rows["parameter"], rows["value"], N_SERIES)


def fit_imputation(episodes: list[RawEpisode], bounds: TruncationBounds) -> ImputationStats:
    """Population means of truncated values, plus static means.

    A parameter (or static) with no observations anywhere in the split gets
    mean 0.0 and is noted in ``unobserved``.
    """
    rows = _pooled(episodes)
    statics = np.array([_statics(ep) for ep in episodes]).reshape(-1, N_STATICS)
    with np.errstate(invalid="ignore"):
        static_means = np.nansum(statics, axis=0) / np.sum(~np.isnan(statics), axis=0)
    series_means = _parameter_means(rows["parameter"], _clamped(rows, bounds), N_SERIES)
    means = np.concatenate([series_means, static_means])
    missing = np.isnan(means)
    unobserved = [name for name, gone in
                  zip(TIME_SERIES_PARAMETERS + STATIC_PARAMETERS, missing) if gone]
    means[missing] = 0.0
    return ImputationStats(means[:N_SERIES], means[N_SERIES:], unobserved)


def assemble_matrix(episode: RawEpisode, interval_minutes: int) -> np.ndarray:
    """Stack interval statistics and statics into a T x 185 matrix with NaN holes.

    Interval k holds minutes [k*L, (k+1)*L) for L = ``interval_minutes``,
    except that the exact 48-hour endpoint folds into the last interval.
    T stops at the last observed interval; an episode with no measurements
    gives one row.  Each (interval, parameter) cell holds the (min, max,
    mean, median, std) of its values: the std is the population std, and an
    even count takes the mean of the two central values as the median.  A
    cell with no values is five NaN, which :func:`impute` fills.

    The matrix is allocated once and written in place: NaN over the 180
    statistic columns, each seen cell's five statistics through their
    T x 36 x 5 view, and the statics into the last five columns.  The
    values are sorted by cell and value with one stable complex sort.
    """
    rows = episode.measurements
    values = rows["value"]
    bins = _bins(rows["minutes"], interval_minutes)
    n_rows = int(bins.max(initial=0)) + 1
    cell = bins * N_SERIES + rows["parameter"]  # row-major (interval, parameter) index
    counts = np.bincount(cell, minlength=n_rows * N_SERIES)
    seen = counts > 0
    k = counts[seen]
    # bincount sums each cell in measurement order; np.mean of the cell's
    # values would too, up to its pairwise summation from 8 values on.
    mean = np.bincount(cell, values, counts.size) / np.maximum(counts, 1)
    dev = values - mean[cell]
    # By cell, then value: a stable sort of (cell + value j) orders as
    # lexsort((values, cell)) does, ties included, in half its time.
    key = np.empty(values.size, np.complex128)
    key.real = cell
    key.imag = values
    key.sort(kind="stable")
    ranked = key.imag
    first = np.cumsum(k) - k
    median = ranked[first + k // 2]
    even = k % 2 == 0
    median[even] = (ranked[(first + k // 2 - 1)[even]] + median[even]) / 2
    out = np.empty((n_rows, feature_width()))
    out[:, :N_SERIES * N_STATS] = np.nan
    # A view, as each row's 180 statistics are contiguous: written in place.
    cells = out[:, :N_SERIES * N_STATS].reshape(n_rows, N_SERIES, N_STATS)
    cells[seen.reshape(n_rows, N_SERIES)] = np.column_stack([
        ranked[first], ranked[first + k - 1], mean[seen], median,
        np.sqrt(np.bincount(cell, dev * dev, counts.size)[seen] / k),
    ])
    out[:, N_SERIES * N_STATS:] = _statics(episode)
    return out


def impute(matrix: np.ndarray, patient_means: np.ndarray, stats: ImputationStats) -> np.ndarray:
    """Fill NaN cells, patient mean first, population mean as fallback.

    Every missing statistic of parameter ``p`` receives the patient's
    across-time mean of ``p``; if the patient never measured ``p``, the
    population mean.  Missing statics come from the static means.
    """
    series = np.where(np.isfinite(patient_means), patient_means, stats.series_means)
    fill = np.concatenate([np.repeat(series, N_STATS), stats.static_means])
    return np.where(np.isnan(matrix), fill, matrix)


def fit_normalization(stacked: np.ndarray) -> NormalizationStats:
    """Per-feature mean and population std over the rows of ``stacked``.

    ``stacked`` holds every training interval, one per row, and is
    overwritten: the std is computed in place, by the steps ``np.std`` takes
    on the same array, so the statistics are bit for bit those of
    ``stacked.std(axis=0)`` without its copy.  A column whose training
    values are all equal gets std exactly 0, so it normalizes to 0: its
    computed std would be rounding noise whenever the mean is inexact, and
    would turn every value into a z-score of +-1.
    """
    constant = stacked.max(axis=0) == stacked.min(axis=0)
    mean = stacked.mean(axis=0)
    stacked -= mean
    np.square(stacked, out=stacked)
    std = np.sqrt(np.add.reduce(stacked, axis=0) / len(stacked))
    return NormalizationStats(mean, np.where(constant, 0.0, std))


def normalize(matrix: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Z-score each column; degenerate (std 0) columns map to 0.

    The one new matrix is the subtraction's, divided in place by the
    divisor the statistics keep.
    """
    out = matrix - stats.mean
    out /= stats.divisor
    out[:, stats.zero_std] = 0.0
    return out


def _imputed_matrix(
    episode: RawEpisode,
    interval_minutes: int,
    bounds: TruncationBounds,
    imputation: ImputationStats,
) -> np.ndarray:
    clamped = apply_truncation(episode, bounds)
    raw = assemble_matrix(clamped, interval_minutes)
    return impute(raw, episode_series_means(clamped), imputation)


def fit_pipeline(episodes: list[RawEpisode],
                 interval_minutes: int = DEFAULT_INTERVAL_MINUTES) -> PipelineStats:
    """Fit truncation, imputation, and normalization on a training split.

    The imputed training matrices are written one after another into one
    array, sized from each episode's interval count, which the
    normalization fit then overwrites; so the fit holds one copy of them,
    and :func:`build_features` builds each again.  A bad interval raises
    ValueError before any fit runs, as does an empty split, and so does a
    statistic that :meth:`PipelineStats.check` refuses, such as an infinite
    mean or std: values near 1e308 parse, and their sums can overflow.
    """
    check_count("interval_minutes", interval_minutes)
    if not episodes:
        raise ValueError("no training episodes were given")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        bounds = fit_truncation(episodes)
        imputation = fit_imputation(episodes, bounds)
        n_rows = sum(int(_bins(ep.measurements["minutes"], interval_minutes).max(initial=0)) + 1
                     for ep in episodes)
        stacked = np.empty((n_rows, feature_width()))
        start = 0
        for ep in episodes:
            matrix = _imputed_matrix(ep, interval_minutes, bounds, imputation)
            stacked[start:start + len(matrix)] = matrix
            start += len(matrix)
        norm = fit_normalization(stacked)
    return PipelineStats(interval_minutes, feature_names(), bounds, imputation, norm)


def build_features(episode: RawEpisode, stats: PipelineStats) -> EpisodeFeatures:
    """Run the full transform chain with already-fitted statistics.

    Raises ValueError, naming the record, the feature and the interval, if
    any cell of the finished matrix is not finite (say, from corrupt
    statistics).  One ``isfinite(...).all()`` checks the whole matrix; only
    a matrix that fails it is searched for its first bad cell, in row-major
    order.
    """
    with np.errstate(over="ignore"):  # values near 1e308 parse; refused below, by cell
        filled = _imputed_matrix(episode, stats.interval_minutes, stats.truncation,
                                 stats.imputation)
        matrix = normalize(filled, stats.normalization)
    if not np.isfinite(matrix).all():
        t, j = np.argwhere(~np.isfinite(matrix))[0]
        raise ValueError(f"record {episode.record_id}: feature {stats.feature_names[j]} "
                         f"is {matrix[t, j]} in interval {t}")
    return EpisodeFeatures(episode.record_id, matrix, episode.label)
