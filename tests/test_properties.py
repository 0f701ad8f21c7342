"""Property tests: file round trip, the column record reader and writer
against the per-line oracle on mutated records, feature-matrix invariants,
the array preprocess against the loop oracle on generated episodes, the
in-place normalization fit against ``std`` on a copy bit for bit, the
store's feature-row formatter against ``repr`` per cell, and the batched model
against the per-episode oracle on generated batches."""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings, strategies as st

from icurisk.cli import _csv_rows
from icurisk.ingest import (
    MAX_MINUTES,
    MEASUREMENT_DTYPE,
    RawEpisode,
    parse_record,
    serialize_record,
)
from icurisk.preprocess import (
    N_SERIES,
    N_STATICS,
    apply_truncation,
    assemble_matrix,
    build_features,
    episode_series_means,
    feature_width,
    fit_imputation,
    fit_normalization,
    fit_pipeline,
    fit_truncation,
)

import ingest_oracle
import preprocess_oracle as oracle
from conftest import synth_record_text
from test_golden import ARCHITECTURES
from test_model import batch_against_oracle

# Ties, both sides of a 3-hour edge, and the 48:00 endpoint come up often.
minutes_st = st.one_of(st.integers(0, MAX_MINUTES), st.sampled_from([0, 179, 180, 2879, 2880]))
# A few dense parameters, so cells hold many values, and any of the 36.
parameter_st = st.one_of(st.sampled_from([0, 14, 31]), st.integers(0, N_SERIES - 1))
# Non-negative readings on a 0.01 grid, as in the record files, with repeats.
value_st = st.one_of(st.integers(0, 200_000).map(lambda k: k / 100),
                     st.sampled_from([0.0, 7.4, 36.6, 80.0]))


def by_minutes(rows):
    """A measurement array of the rows, stably sorted by time as parsing does."""
    return np.array(sorted(rows, key=lambda row: row[0]), dtype=MEASUREMENT_DTYPE)


@st.composite
def episodes(draw, values=value_st, minutes=minutes_st, extra_minutes=st.integers(1, MAX_MINUTES)):
    measurements = by_minutes(draw(st.lists(st.tuples(minutes, parameter_st, values),
                                            max_size=60)))
    # -1 marks a missing Gender, Height or Weight in the file format.
    statics = draw(st.lists(st.none() | values.filter(lambda v: v != -1),
                            min_size=N_STATICS, max_size=N_STATICS))
    # A repeated static at 00:00 would fill an empty slot on parse; start at 00:01.
    extras = by_minutes(draw(st.lists(st.tuples(extra_minutes,
                                                st.integers(0, N_STATICS - 1), values),
                                      max_size=3)))
    return RawEpisode(draw(st.integers(1, 999_999)), statics, measurements, extras)


def _mutate(draw, lines: list[str]) -> None:
    """Apply one drawn change to a record's body lines (the header stays)."""
    at = draw(st.integers(1, len(lines) - 1))
    fields = lines[at].split(",")
    kind = draw(st.sampled_from([
        "swap", "blank", "pad", "short_hour", "unicode_digit", "field_count",
        "unknown_name", "bad_value", "late_time", "late_static", "duplicate_id", "drop_id",
        "bad_id"]))
    if kind == "swap":
        other = draw(st.integers(1, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "blank":
        lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
    elif kind == "pad":
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = draw(st.sampled_from([" ", "\t", "\u2000"])) + fields[i] + " "
        lines[at] = ",".join(fields)
    elif kind == "short_hour":
        lines[at] = lines[at].removeprefix("0")
    elif kind == "unicode_digit":  # Arabic-Indic digits, which \d and int accept
        digits = [i for i, c in enumerate(lines[at]) if c.isdigit()]
        if digits:
            i = draw(st.sampled_from(digits))
            lines[at] = lines[at][:i] + chr(0x660 + int(lines[at][i])) + lines[at][i + 1:]
    elif kind == "field_count":
        lines[at] = ",".join(fields[:2]) if draw(st.booleans()) else lines[at] + ",1"
    elif kind == "unknown_name" and len(fields) == 3:
        lines[at] = f"{fields[0]},Lactat,{fields[2]}"
    elif kind == "bad_value" and len(fields) == 3:
        value = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "", "7..1"]))
        lines[at] = f"{fields[0]},{fields[1]},{value}"
    elif kind == "late_time" and len(fields) == 3:
        late = draw(st.sampled_from(["48:01", "49:00", "99:59", "48:60"]))
        lines[at] = f"{late},{fields[1]},{fields[2]}"
    elif kind == "late_static":  # a static first recorded after 00:00 is an extra
        name = draw(st.sampled_from(["Age", "Gender", "Height", "ICUType", "Weight"]))
        lines[:] = [f"00:30,{name},{line.rsplit(',', 1)[1]}" if line.startswith(f"00:00,{name},")
                    else line for line in lines]
    elif kind == "duplicate_id":
        lines.insert(at, draw(st.sampled_from(["00:00,RecordID,5", "12:00,RecordID,77"])))
    elif kind == "drop_id":
        lines[:] = [line for line in lines if "RecordID" not in line]
    elif kind == "bad_id":
        lines[:] = [f"00:00,RecordID,{draw(st.sampled_from(['0', '1.5', '-3', 'nan']))}"
                    if "RecordID" in line else line for line in lines]


@st.composite
def record_texts(draw):
    """A generated record with up to three mutations, with any line ending."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = synth_record_text(draw(st.integers(1, 999_999)), rng,
                              n_measurements=draw(st.integers(0, 12))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, lines)
    end = draw(st.sampled_from(["\n", "\r\n", "\x85", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def outcome(parse, text):
    """The episode, or the exception's class, message and line number."""
    try:
        return parse(text)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc), getattr(exc, "line_no", None)


@settings(max_examples=400, deadline=None)
@given(record_texts())
@example("Time,Parameter,Value\n00:00,RecordID,5\n00:00,Weight,-1\n00:00,Weight,80\n")
@example("Time,Parameter,Value\n 00:00,RecordID,5\n1:30,HR,70\n\n01:30, Na ,140 \n")
@example("Time,Parameter,Value\n00:00,RecordID,5\n00:00,HR,\u0667\u0660\n")
@example("Time,Parameter,Value\n00:00,RecordID,5\n48:00,HR,70\n48:01,HR,71\n")
def test_parse_matches_oracle(text):
    got, expected = outcome(parse_record, text), outcome(ingest_oracle.parse_record, text)
    assert got == expected
    if isinstance(expected, RawEpisode):
        assert [type(v) for v in got.statics] == [type(v) for v in expected.statics]
        assert got.measurements.dtype == got.static_extras.dtype == MEASUREMENT_DTYPE
        assert serialize_record(got) == ingest_oracle.serialize_record(expected)


# Two minutes only, so an extra often ties a measurement at the same minute
# and the same position within its own stream.
few_minutes = st.sampled_from([1, 2])


@settings(max_examples=200, deadline=None)
@given(episodes(values=st.floats(allow_nan=False, allow_infinity=False)) |
       episodes(minutes=few_minutes, extra_minutes=few_minutes))
def test_serialize_matches_oracle(ep):
    assert serialize_record(ep) == ingest_oracle.serialize_record(ep)


intervals = st.one_of(st.sampled_from([60, 180, 2880]), st.integers(30, MAX_MINUTES))


@lru_cache(maxsize=None)
def corpus_stats(interval):
    """Statistics fitted on a synthetic split that observes every parameter."""
    rng = np.random.default_rng(31)
    eps = [parse_record(synth_record_text(i + 1, rng, n_measurements=200)) for i in range(8)]
    return fit_pipeline(eps, interval)


@settings(max_examples=100, deadline=None)
@given(episodes(values=st.floats(allow_nan=False, allow_infinity=False)))
def test_serialize_parse_round_trip(ep):
    assert parse_record(serialize_record(ep)) == ep


@settings(max_examples=40, deadline=None)
@given(st.lists(episodes(), min_size=1, max_size=4,
                unique_by=lambda ep: ep.record_id),
       st.integers(1, MAX_MINUTES))
def test_features_finite_capped_and_185_wide(eps, interval):
    stats = fit_pipeline(eps, interval)
    for ep in eps:
        matrix = build_features(ep, stats).matrix
        assert np.isfinite(matrix).all()
        assert 1 <= matrix.shape[0] <= -(-MAX_MINUTES // interval)
        assert matrix.shape[1] == feature_width() == 185


def stay(*rows):
    return RawEpisode(7, [60.0, None, None, 2.0, None], by_minutes(rows))


@settings(max_examples=60, deadline=None)
@given(episodes(), intervals)
@example(stay(), 180)
@example(stay((2880, 14, 80.0)), 180)
@example(stay((0, 14, 80.0), (0, 14, 80.0), (0, 14, 71.5), (0, 14, 80.0)), 2880)
@example(stay(*[(2880, 14, float(v)) for v in (3, 1, 2, 2, 9, 8, 7, 6, 5, 4)]), 60)
def test_episode_matrices_match_oracle(ep, interval):
    oracle.assert_same_matrix(assemble_matrix(ep, interval), oracle.assemble_matrix(ep, interval))
    np.testing.assert_allclose(episode_series_means(ep), oracle.episode_series_means(ep),
                               rtol=1e-12, atol=0)
    stats = corpus_stats(interval)
    assert apply_truncation(ep, stats.truncation) == oracle.apply_truncation(ep, stats.truncation)
    # z-scores are unit scale; atol covers those that cancel to ~0
    np.testing.assert_allclose(build_features(ep, stats).matrix, oracle.build_matrix(ep, stats),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(episodes(), max_size=4))
def test_fitted_bounds_and_means_match_oracle(eps):
    bounds = fit_truncation(eps)
    expected = oracle.fit_truncation(eps)
    np.testing.assert_array_equal(bounds.lower, expected.lower)
    np.testing.assert_array_equal(bounds.upper, expected.upper)
    assert bounds.unobserved == expected.unobserved
    imputation = fit_imputation(eps, bounds)
    reference = oracle.fit_imputation(eps, bounds)
    np.testing.assert_allclose(imputation.series_means, reference.series_means, rtol=1e-12, atol=0)
    np.testing.assert_allclose(imputation.static_means, reference.static_means, rtol=1e-12, atol=0)
    assert imputation.unobserved == reference.unobserved


@st.composite
def stacked_intervals(draw):
    """1-24 rows over 1-12 columns; each column is free, constant (0.1 has an
    inexact mean), or near +-1e300, where squared deviations overflow."""
    rows, columns = draw(st.integers(1, 24)), []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "constant", "huge"]))
        if kind == "constant":
            column = [draw(st.sampled_from([0.1, 3.0, -0.0, 1e300]))] * rows
        else:
            value = (st.sampled_from([1e300, -1e300, 9.7e299, 1.0]) if kind == "huge"
                     else st.floats(allow_nan=False, allow_infinity=False))
            column = draw(st.lists(value, min_size=rows, max_size=rows))
        columns.append(column)
    return np.array(columns).T.copy()


@settings(max_examples=200, deadline=None)
@given(stacked_intervals())
@example(np.full((3, 185), 0.1))
@example(np.array([[2.5, -1e300, 7.0]]))
@example(np.array([[1e300, 0.0], [-1e300, 0.0], [1e300, 1.0]]))
def test_in_place_normalization_matches_stacked_std(stacked):
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf on both sides
        expected = oracle.fit_normalization(stacked)
        fitted = fit_normalization(stacked.copy())
    assert fitted.mean.tobytes() == expected.mean.tobytes()
    assert fitted.std.tobytes() == expected.std.tobytes()
    np.testing.assert_array_equal(fitted.zero_std, expected.zero_std)


def csv_rows_reference(matrix):
    """The store's feature rows as written before the distinct-value table."""
    return [",".join(map(repr, row)) for row in matrix.tolist()]


# Both zeros, the smallest subnormal and normal, and the largest finite values.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def repetitive_matrices(draw):
    """A float64 matrix of 1-16 rows by 1-185 columns drawn from a few values,
    as imputation repeats means, in C order, as a column slice or transposed."""
    pool = draw(st.lists(st.sampled_from(EDGE_VALUES), max_size=4)) + draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
    rows, cols = draw(st.integers(1, 16)), draw(st.integers(1, 185))
    layout = draw(st.sampled_from(["C", "column slice", "transposed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "transposed":
        return np.array(pool)[rng.integers(len(pool), size=(cols, rows))].T
    wide = np.array(pool)[rng.integers(len(pool), size=(rows, 2 * cols))]
    return wide[:, ::2] if layout == "column slice" else np.ascontiguousarray(wide[:, :cols])


@settings(max_examples=200, deadline=None)
@given(repetitive_matrices())
@example(np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 5e-324]]))
@example(np.array([[-0.0, 1.5], [0.0, -1.7976931348623157e308]])[:, :1])
@example(np.array([[0.0, -0.0], [2.5, 0.0]]).T)
def test_csv_rows_match_repr_per_cell(matrix):
    assert _csv_rows(matrix) == csv_rows_reference(matrix)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(ARCHITECTURES)), st.lists(st.integers(1, 16), min_size=1, max_size=8),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_batch_matches_per_episode_oracle(arch, lengths, train, seed):
    if arch == "lr-baseline":  # one interval per episode, the whole stay
        lengths = [1] * len(lengths)
    batch_against_oracle(arch, lengths, train, seed)
