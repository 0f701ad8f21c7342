"""Property tests: file round trip, the column record reader and writer
against the per-line oracle on mutated records, feature-matrix invariants,
the array preprocess against the loop oracle on generated episodes, the
one-array transform against the stacked one bit for bit, the fitted
statistics' JSON against the field-by-field reference byte for byte, the
in-place normalization fit against ``std`` on a copy bit for bit, the
store's feature-row formatter against ``repr`` per cell, the batched model
against the per-episode oracle on generated batches, the gradients named in
chain order against the name-keyed sweep bit for bit, the step-major LSTM
layer against the direction-major one bit for bit, the in-place attention
and the unpadded batch of one against their references bit for bit, and
parsed episodes, whose rows skip the sort when already in time order,
against the always-sorting reader bit for bit."""

import json
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings, strategies as st

from icurisk import ingest
from icurisk.cli import _csv_rows
from icurisk.ingest import (
    MAX_MINUTES,
    MEASUREMENT_DTYPE,
    STATIC_PARAMETERS,
    RawEpisode,
    parse_record,
    serialize_record,
)
from icurisk.model import (
    Attention, Lstm, ModelConfig, ModelParams, attend, forward_batch, forward_episode,
    loss_and_grads, run_lstm)
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
    impute,
    normalize,
    PipelineStats,
)

import forward_oracle
import ingest_oracle
import lstm_oracle
import preprocess_oracle as oracle
import sweep_oracle
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


# Gender and ICUType are codes (0 or 1, and 1 to 4), which parsing holds them to.
static_code_st = {STATIC_PARAMETERS.index("Gender"): st.sampled_from([0.0, 1.0]),
                  STATIC_PARAMETERS.index("ICUType"): st.sampled_from([1.0, 2.0, 3.0, 4.0])}


@st.composite
def episodes(draw, values=value_st, minutes=minutes_st, extra_minutes=st.integers(1, MAX_MINUTES)):
    measurements = by_minutes(draw(st.lists(st.tuples(minutes, parameter_st, values),
                                            max_size=60)))
    # -1 marks a missing Gender, Height or Weight in the file format.
    statics = [draw(st.none() | static_code_st.get(k, values.filter(lambda v: v != -1)))
               for k in range(N_STATICS)]
    # A repeated static at 00:00 would fill an empty slot on parse; start at 00:01.
    extras = by_minutes(draw(st.lists(st.integers(0, N_STATICS - 1).flatmap(
        lambda k: st.tuples(extra_minutes, st.just(k), static_code_st.get(k, values))),
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
    """The episode, or the exception's class and message."""
    try:
        return parse(text)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)


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


def assert_same_bits(got, expected):
    """Same shape, same NaN cells, and the same int64 bits in every other cell."""
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.int64)[~nan], expected.view(np.int64)[~nan])


# Signed zeros, whose order the sort must keep, and sums and squares that overflow.
signed_value_st = st.one_of(value_st, st.floats(allow_nan=False, allow_infinity=False),
                            st.sampled_from([0.0, -0.0, 1e308, -1e308]))


@settings(max_examples=150, deadline=None)
@given(episodes(values=signed_value_st), intervals, st.none() | st.tuples(
    st.integers(0, feature_width() - 1), st.sampled_from([np.nan, np.inf, -np.inf])))
@example(stay(), 180, None)
@example(stay((0, 14, 80.0), (2880, 14, -0.0), (2880, 14, 0.0), (2880, 3, 1.5)), 180, None)
# Missing statics, and 18 tied zeros of either sign, which numpy's unstable
# sort reorders: the cell's median would read 0.0 instead of -0.0.
@example(RawEpisode(7, [None] * N_STATICS,
                    by_minutes([(0, 3, -0.0 if sign == "-" else 0.0)
                                for sign in "-+++++++--++--+++-"])), 60, (97, np.nan))
def test_one_array_transform_matches_stacked_bit_for_bit(ep, interval, corrupt):
    stats = PipelineStats.from_dict(corpus_stats(interval).to_dict())
    if corrupt is not None:
        stats.normalization.mean[corrupt[0]] = corrupt[1]
    # Huge values and statics overflow to inf, and their sums to NaN, on both sides.
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bits(assemble_matrix(ep, interval),
                         oracle.stacked_assemble_matrix(ep, interval))
        clamped = apply_truncation(ep, stats.truncation)
        filled = impute(assemble_matrix(clamped, interval), episode_series_means(clamped),
                        stats.imputation)
        assert_same_bits(normalize(filled, stats.normalization),
                         oracle.normalize(filled, stats.normalization))
        got = outcome(lambda e: build_features(e, stats).matrix, ep)
        expected = outcome(lambda e: oracle.checked_features(e, stats), ep)
    if isinstance(expected, np.ndarray):
        assert_same_bits(got, expected)
    else:
        assert got == expected


def stats_arrays(stats):
    return [stats.truncation.lower, stats.truncation.upper, stats.imputation.series_means,
            stats.imputation.static_means, stats.normalization.mean, stats.normalization.std]


@settings(max_examples=60, deadline=None)
@given(st.lists(episodes(values=st.one_of(value_st, st.floats(-1e100, 1e100))),
                min_size=1, max_size=4),
       st.sampled_from([60, 180, 2880]))
# Every static missing, 35 parameters unobserved, and constant columns.
@example([RawEpisode(7, [None] * N_STATICS, by_minutes([(0, 14, 80.0), (2880, 14, 80.0)]))], 60)
@example([stay((0, 14, 80.0), (179, 3, 1.5)), stay((2880, 3, 1.5))], 2880)
def test_stats_json_matches_the_field_by_field_reference_bit_for_bit(eps, interval):
    stats = fit_pipeline(eps, interval)
    text = json.dumps(stats.to_dict())
    assert text == json.dumps(oracle.stats_to_dict(stats))
    assert ("Infinity" in text) == bool(stats.truncation.unobserved)
    loaded = PipelineStats.from_dict(json.loads(text))
    reference = oracle.stats_from_dict(json.loads(text))
    for got, expected, fitted in zip(*map(stats_arrays, (loaded, reference, stats))):
        assert got.dtype == expected.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(got.view(np.int64), fitted.view(np.int64))
    assert json.dumps(loaded.to_dict()) == json.dumps(oracle.stats_to_dict(reference)) == text


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


# Dropout rates per mode; the training modes pass a generator.
SWEEP_MODES = {"eval": 0.3, "train": 0.3, "train-no-dropout": 0.0}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(ARCHITECTURES)), st.lists(st.integers(1, 16), min_size=1, max_size=8),
       st.sampled_from(list(SWEEP_MODES)), st.integers(0, 2**32 - 1))
@example("bilstm-attn", [16], "eval", 0)  # a batch of one runs unpadded
@example("bilstm-attn", [16], "train", 1)
@example("lstm-mean", [7, 1, 16, 2], "train-no-dropout", 2)
def test_named_gradients_match_the_name_keyed_sweep_bit_for_bit(arch, lengths, mode, seed):
    """The loss and the gradients of ``loss_and_grads``, named by
    ``named_parameters``, are those of the sweep that keyed each gradient by
    the names its layer reads: the same names in the same order, the same
    bits."""
    if arch == "lr-baseline":  # one interval per episode, the whole stay
        lengths = [1] * len(lengths)
    rate = SWEEP_MODES[mode]
    cfg = ModelConfig(input_dim=4, hidden=3, heads=2, attn_hidden=3, dropout_in=rate,
                      dropout_out=rate, **ARCHITECTURES[arch])
    rng = np.random.default_rng(seed)
    params = ModelParams.init(cfg, rng)
    matrices = [rng.normal(size=(t, cfg.input_dim)) for t in lengths]
    labels = rng.integers(0, 2, size=len(lengths))
    generator = (lambda: None) if mode == "eval" else (lambda: np.random.default_rng(seed + 1))
    loss, grads = loss_and_grads(params, matrices, labels, generator())
    expected_loss, expected = sweep_oracle.loss_and_grads(params, matrices, labels, generator())
    assert_same_bits(np.array(loss), np.array(expected_loss))
    assert list(grads) == list(expected)
    for name, grad in grads.items():
        assert_same_bits(grad, expected[name])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]), st.lists(st.integers(1, 16), min_size=1, max_size=33),
       st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 32]), st.sampled_from([1, 3, 12, 185]),
       st.sampled_from([0.1, 0.5, 3.0]), st.integers(0, 2**32 - 1))
@example(2, [5], 1, 2, 0.5, 0)  # one episode, one unit: reshapes give strided views
@example(2, [1] * 33, 32, 12, 0.5, 1)
@example(1, [1, 16, 1, 7], 8, 185, 3.0, 2)
def test_step_major_lstm_matches_direction_major_bit_for_bit(D, lengths, hidden, dim,
                                                             scale, seed):
    """States and dW, dU, db under a random upstream gradient (padding rows
    included) are the direction-major layer's, bit for bit."""
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    X = np.zeros((len(lengths), lengths.max(), dim))
    for row, n in zip(X, lengths):
        row[:n] = rng.normal(size=(n, dim))
    lstm = Lstm(*(rng.normal(0, scale, size=(D, 4 * hidden, k)) for k in (dim, hidden)),
                rng.normal(0, scale, size=(D, 4 * hidden)))
    rules = []
    states = run_lstm(rules, X, lengths, lstm)
    expected, backward = lstm_oracle.run_lstm(X, lengths, lstm)
    assert np.array_equal(states, expected)
    g = rng.normal(size=states.shape)
    _, *grads = rules[0](g.copy())
    _, *expected_grads = backward(g)
    for grad, want in zip(grads, expected_grads):
        assert np.array_equal(grad, want)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 16), min_size=1, max_size=6), st.integers(1, 4),
       st.sampled_from([1, 3, 16]), st.sampled_from([1, 2, 5, 64]),
       st.sampled_from([0.1, 1.0, 30.0]), st.integers(0, 2**32 - 1))
@example([1], 1, 1, 1, 1.0, 0)
@example([16, 1, 7], 4, 16, 64, 30.0, 1)  # saturated scores: exp underflows to 0
def test_in_place_attention_matches_reference_bit_for_bit(lengths, heads, attn_hidden, width,
                                                          scale, seed):
    """Readings and weights of padded states, and every gradient under a
    random upstream gradient, are the reference's, bit for bit."""
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    states = rng.normal(size=(len(lengths), lengths.max(), width))
    attention = Attention(rng.normal(0, scale, size=(heads, attn_hidden, width)),
                          rng.normal(0, scale, size=(heads, attn_hidden)),
                          rng.normal(0, scale, size=(heads, attn_hidden)),
                          rng.normal(0, scale, size=heads))
    rules, reference_rules = [], []
    got = attend(rules, states, lengths, attention)
    expected = forward_oracle.attend(reference_rules, states, lengths, attention)
    for a, b in zip(got, expected):
        assert_same_bits(a, b)
    g = rng.normal(size=got[0].shape)
    for a, b in zip(rules[0](g), reference_rules[0](g)):
        assert_same_bits(a, b)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["lr", "mean", "attention"]), st.booleans(), st.integers(1, 16),
       st.sampled_from([1, 2, 3, 8, 32]), st.integers(1, 4), st.sampled_from([1, 3, 12, 185]),
       st.sampled_from(["C", "F", "strided", "int"]), st.integers(0, 2**32 - 1))
@example("attention", True, 10, 32, 2, 185, "C", 0)  # the score workload's model
@example("attention", True, 1, 1, 1, 1, "F", 1)
def test_unpadded_batch_of_one_matches_padded_reference_bit_for_bit(
        pooling, bidirectional, steps, hidden, heads, dim, layout, seed):
    """Risk, weights and states of one episode scored without a padded copy
    are those of the padded pass, bit for bit, whatever the matrix's memory
    layout or dtype; the trace holds the batch's own rows."""
    rng = np.random.default_rng(seed)
    recurrent = pooling != "lr"
    cfg = ModelConfig(input_dim=dim, hidden=hidden, heads=heads, bidirectional=bidirectional,
                      recurrent=recurrent, pooling="mean" if pooling == "mean" else "attention")
    params = ModelParams.init(cfg, rng)
    for _, array in params.named_parameters():  # no zero biases
        array[...] = rng.normal(0.0, 0.7, size=array.shape)
    X = rng.normal(0.0, 1.5, size=(steps if recurrent else 1, dim))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        X = np.repeat(X, 2, axis=1)[:, ::2]
    elif layout == "int":
        X = np.round(X * 4).astype(np.int64)
    got = forward_batch([X], params)
    expected = forward_oracle.forward_batch([X], params)
    assert_same_bits(got.risks, expected.risks)
    for a, b in ((got.weights, expected.weights), (got.states, expected.states)):
        assert (a is None) == (b is None)
        if a is not None:
            assert_same_bits(a, b)
    result = forward_episode(X, params, record_id=7)
    assert_same_bits(np.array(result.risk), expected.risks[0])
    if expected.weights is not None:
        assert_same_bits(result.trace.weights, expected.weights[0])
        assert_same_bits(result.trace.states, expected.states[0])


def record_text(rows):
    """A record of ``rows`` (minutes, name, value), in the given order."""
    return "Time,Parameter,Value\n00:00,RecordID,7\n" + "".join(
        f"{minutes // 60:02d}:{minutes % 60:02d},{name},{value!r}\n"
        for minutes, name, value in rows)


# Gender rows hold its codes, which parsing holds them to; -0.0 equals code 0.
row_st = st.one_of(st.tuples(minutes_st, st.sampled_from(["HR", "Na", "Temp", "Weight", "Age"]),
                             st.sampled_from([0.0, -0.0, 1.5, 80.0, 36.6, -1.0])),
                   st.tuples(minutes_st, st.just("Gender"),
                             st.sampled_from([0.0, -0.0, 1.0, -1.0])))


@settings(max_examples=300, deadline=None)
@given(st.lists(row_st, max_size=30), st.sampled_from(["sorted", "drawn", "reversed", "tied"]))
@example([], "sorted")
@example([(60, "HR", 80.0)], "drawn")
@example([(0, "HR", -0.0), (0, "HR", 0.0), (0, "Weight", 80.0), (0, "Weight", -1.0)], "tied")
@example([(120, "HR", 1.5), (60, "HR", 80.0), (60, "Na", -0.0), (180, "Weight", 36.6)], "drawn")
def test_parsed_rows_match_the_always_sorting_reader_bit_for_bit(rows, order):
    """Parsed measurements and static extras, and ``_by_minutes`` itself, are
    those of the reader that always sorts, bit for bit: sorted rows come back
    as they are, others stably sorted, ties in file order."""
    if order == "sorted":
        rows = sorted(rows, key=lambda row: row[0])
    elif order == "reversed":
        rows = sorted(rows, key=lambda row: row[0], reverse=True)
    elif order == "tied":
        rows = [(rows[0][0] if rows else 0, name, value) for _, name, value in rows]
    got, expected = parse_record(record_text(rows)), ingest_oracle.parse_record(record_text(rows))
    assert (got.record_id, got.statics) == (expected.record_id, expected.statics)
    for name in ("measurements", "static_extras"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype == MEASUREMENT_DTYPE
        assert np.array_equal(a[["minutes", "parameter"]], b[["minutes", "parameter"]])
        assert_same_bits(a["value"], b["value"])
    coded = [(minutes, k, value) for k, (minutes, _, value) in enumerate(rows)]
    got, expected = ingest._by_minutes(coded), ingest_oracle._by_minutes(coded)
    assert np.array_equal(got[["minutes", "parameter"]], expected[["minutes", "parameter"]])
    assert_same_bits(got["value"], expected["value"])
