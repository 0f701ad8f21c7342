"""Record and outcome parsing, refusal messages, and round-trips."""

import re
from dataclasses import replace

import numpy as np
import pytest

from icurisk.ingest import (
    MEASUREMENT_DTYPE,
    STATIC_PARAMETERS,
    TIME_SERIES_PARAMETERS,
    IngestError,
    RawEpisode,
    join_labels,
    parse_outcomes,
    parse_record,
    serialize_record,
)

from conftest import record_text


HR = TIME_SERIES_PARAMETERS.index("HR")
WEIGHT = STATIC_PARAMETERS.index("Weight")


def static(ep, name):
    return ep.statics[STATIC_PARAMETERS.index(name)]


def refused(message):
    """Expect an IngestError whose whole message is ``message``."""
    return pytest.raises(IngestError, match=f"^{re.escape(message)}$")


class TestParseRecord:
    def test_basic_fields(self):
        text = (
            "Time,Parameter,Value\n"
            "00:00,RecordID,132539\n"
            "00:00,Age,54\n"
            "00:07,HR,73\n"
        )
        ep = parse_record(text)
        assert ep.record_id == 132539
        assert static(ep, "Age") == 54.0
        assert ep.measurements.dtype == MEASUREMENT_DTYPE
        assert ep.measurements.tolist() == [(7, HR, 73.0)]

    def test_height_sentinel_is_missing(self):
        ep = parse_record(record_text(1, {"Height": -1}))
        assert static(ep, "Height") is None

    def test_gender_and_weight_sentinels(self):
        ep = parse_record(record_text(1, {"Gender": -1, "Weight": -1}))
        assert static(ep, "Gender") is None
        assert static(ep, "Weight") is None

    def test_age_minus_one_is_kept(self):
        # The -1 convention is documented only for Gender/Height/Weight.
        ep = parse_record(record_text(1, {"Age": -1}))
        assert static(ep, "Age") == -1.0

    def test_48_hour_boundary_accepted(self):
        ep = parse_record(record_text(1, rows=[(2880, "HR", 80)]))
        assert ep.measurements["minutes"][0] == 2880

    def test_beyond_48_hours_rejected(self):
        with refused("line 3: time 48:01 exceeds the 48-hour window"):
            parse_record(record_text(1, rows=[(2881, "HR", 80)]))

    def test_malformed_line_reports_line_number(self):
        text = "Time,Parameter,Value\n00:00,RecordID,1\nnot a row\n"
        with refused("line 3: expected 3 fields, got 1"):
            parse_record(text)

    def test_bad_time_field(self):
        text = "Time,Parameter,Value\n00:00,RecordID,1\n0a:00,HR,70\n"
        with refused("line 3: bad time field '0a:00'"):
            parse_record(text)

    def test_bad_value_field(self):
        text = "Time,Parameter,Value\n00:00,RecordID,1\n00:05,HR,abc\n"
        with refused("line 3: bad value field 'abc'"):
            parse_record(text)

    def test_non_finite_value_rejected(self):
        text = "Time,Parameter,Value\n00:00,RecordID,1\n00:05,HR,inf\n"
        with refused("line 3: non-finite value 'inf'"):
            parse_record(text)

    def test_missing_record_id(self):
        with refused("missing RecordID row"):
            parse_record("Time,Parameter,Value\n00:00,Age,60\n")

    def test_duplicate_record_id(self):
        text = "Time,Parameter,Value\n00:00,RecordID,1\n00:00,RecordID,2\n"
        with refused("duplicate RecordID row"):
            parse_record(text)

    def test_unknown_parameter_named(self):
        with refused("line 3: unknown parameter 'Misc'"):
            parse_record(record_text(1, rows=[(5, "Misc", 1.0)]))

    @pytest.mark.parametrize("name, value", [
        ("Gender", 2), ("Gender", 0.5), ("Gender", -2), ("ICUType", 0), ("ICUType", 5),
        ("ICUType", 2.5), ("ICUType", -1)])
    @pytest.mark.parametrize("where", ["slot", "extra", "walked"])
    def test_static_outside_its_codes_refused(self, name, value, where):
        """Gender holds 0, 1 or -1 (missing) and ICUType 1 to 4, in every row
        and on both parse paths: a blank line sends the body down the walk."""
        text = record_text(1, {name: value} if where != "extra" else {},
                           [(300, name, value)] if where == "extra" else [])
        if where == "walked":
            text += "\n"
        with pytest.raises(IngestError) as info:
            parse_record(text)
        allowed = "(0, 1, -1)" if name == "Gender" else "(1, 2, 3, 4)"
        assert str(info.value) == f"{name} is {float(value)!r}, not one of {allowed}"

    def test_every_static_code_accepted(self):
        for gender in (0, 1, -0.0):
            for icu_type in (1, 2, 3, 4):
                ep = parse_record(record_text(1, {"Gender": gender, "ICUType": icu_type},
                                              [(60, "Gender", -1), (60, "ICUType", icu_type)]))
                assert static(ep, "Gender") == gender and static(ep, "ICUType") == icu_type

    def test_missing_header(self):
        with refused("record file must start with a 'Time,Parameter,Value' header"):
            parse_record("00:00,RecordID,1\n")

    def test_late_weight_goes_to_extras(self):
        ep = parse_record(record_text(1, {"Weight": 80.0}, [(300, "Weight", 81.5)]))
        assert ep.statics[WEIGHT] == 80.0
        assert ep.static_extras.tolist() == [(300, WEIGHT, 81.5)]
        assert ep.measurements.size == 0

    def test_repeated_static_at_time_zero(self):
        # First time-00:00 row claims the slot, even when it is the sentinel.
        text = (
            "Time,Parameter,Value\n"
            "00:00,RecordID,1\n"
            "00:00,Weight,-1\n"
            "00:00,Weight,82.0\n"
        )
        ep = parse_record(text)
        assert ep.statics[WEIGHT] is None
        assert ep.static_extras.tolist() == [(0, WEIGHT, 82.0)]

    def test_equal_timestamps_keep_file_order(self):
        rows = [(10, "HR", 70), (10, "HR", 75), (10, "GCS", 14)]
        ep = parse_record(record_text(1, rows=rows))
        assert ep.measurements["value"].tolist() == [70.0, 75.0, 14.0]

    def test_out_of_order_input_is_sorted_stably(self):
        rows = [(30, "HR", 1), (10, "HR", 2), (30, "HR", 3)]
        ep = parse_record(record_text(1, rows=rows))
        assert ep.measurements[["minutes", "value"]].tolist() == [
            (10, 2.0), (30, 1.0), (30, 3.0)]
        # Long enough that an unstable sort would reorder ties.
        rows = [(30 - 10 * (i % 3), "HR", i) for i in range(60)]
        ep = parse_record(record_text(1, rows=rows))
        assert ep.measurements[["minutes", "value"]].tolist() == sorted(
            (m, float(v)) for m, _, v in rows)

    def test_blank_lines_skipped(self):
        text = "Time,Parameter,Value\n\n00:00,RecordID,9\n\n00:05,HR,70\n\n"
        assert parse_record(text).record_id == 9


class TestRoundTrip:
    def test_explicit_episode(self):
        text = record_text(
            77,
            {"Age": 61, "Gender": 1, "Height": -1, "ICUType": 2, "Weight": 74.3},
            [(0, "HR", 71.5), (7, "GCS", 15), (7, "HR", 72), (2880, "Urine", 120)],
        )
        ep = parse_record(text)
        assert parse_record(serialize_record(ep)) == ep

    def test_random_episodes(self):
        rng = np.random.default_rng(11)
        params = TIME_SERIES_PARAMETERS
        for trial in range(25):
            rows = []
            for minutes in np.sort(rng.integers(0, 2881, size=rng.integers(0, 40))):
                rows.append((int(minutes), params[int(rng.integers(len(params)))],
                             float(np.round(rng.normal(50, 20), 3))))
            if rng.random() < 0.5:
                rows.append((int(rng.integers(1, 2881)), "Weight",
                             float(np.round(rng.uniform(40, 120), 1))))
            statics = {"Age": int(rng.integers(16, 100))}
            if rng.random() < 0.5:
                statics["Weight"] = float(np.round(rng.uniform(40, 120), 1))
            ep = parse_record(record_text(trial + 1, statics, rows))
            assert parse_record(serialize_record(ep)) == ep


def explicit_episode():
    """A measurement and a static extra share minute 7; values integral and not."""
    rows = [(0, HR, 71.5), (7, TIME_SERIES_PARAMETERS.index("GCS"), 15.0), (7, HR, 72.0),
            (2880, TIME_SERIES_PARAMETERS.index("Urine"), 120.0)]
    return RawEpisode(77, [61.0, 1.0, None, 2.0, 74.3],
                      np.array(rows, dtype=MEASUREMENT_DTYPE),
                      np.array([(7, WEIGHT, 75.25)], dtype=MEASUREMENT_DTYPE))


def test_serialize_exact_text():
    assert serialize_record(explicit_episode()) == (
        "Time,Parameter,Value\n"
        "00:00,RecordID,77\n"
        "00:00,Age,61.0\n"
        "00:00,Gender,1.0\n"
        "00:00,ICUType,2.0\n"
        "00:00,Weight,74.3\n"
        "00:00,HR,71.5\n"
        "00:07,Weight,75.25\n"
        "00:07,GCS,15.0\n"
        "00:07,HR,72.0\n"
        "48:00,Urine,120.0\n"
    )


@pytest.mark.parametrize("rows, minutes", [("measurements", -1), ("measurements", 2881),
                                            ("static_extras", 2881)])
def test_serialize_refuses_a_row_outside_the_window(rows, minutes):
    # No "HH:MM" of the window names it, and the text would not parse back.
    ep = explicit_episode()
    getattr(ep, rows)["minutes"][-1] = minutes
    with pytest.raises(ValueError, match="^record 77: a row lies outside the 48-hour window$"):
        serialize_record(ep)


class TestEpisodeEquality:
    def test_round_trip_equal(self):
        ep = explicit_episode()
        assert parse_record(serialize_record(ep)) == ep

    @pytest.mark.parametrize("rows, index, field, changed", [
        ("measurements", 1, "value", 15.5), ("measurements", 1, "minutes", 8),
        ("measurements", 1, "parameter", HR), ("static_extras", 0, "value", 75.5)])
    def test_one_row_field_differs(self, rows, index, field, changed):
        ep, other = explicit_episode(), explicit_episode()
        getattr(other, rows)[field][index] = changed
        assert ep != other

    @pytest.mark.parametrize("changes", [
        {"static_extras": np.empty(0, MEASUREMENT_DTYPE)},
        {"statics": [61.0, 1.0, 170.0, 2.0, 74.3]}, {"label": 1}, {"record_id": 78}])
    def test_one_field_differs(self, changes):
        ep = explicit_episode()
        assert ep != replace(ep, **changes)

    def test_non_episode_is_unequal(self):
        ep = explicit_episode()
        for other in (None, 77, serialize_record(ep), ep.measurements):
            assert (ep == other) is False
            assert (ep != other) is True


class TestOutcomes:
    HEADER = "RecordID,SAPS-I,SOFA,Length_of_stay,Survival,In-hospital_death\n"

    def test_single_row(self):
        labels = parse_outcomes(self.HEADER + "132539,6,1,5,-1,0\n")
        assert labels == {132539: 0}

    def test_duplicate_id_rejected(self):
        text = self.HEADER + "1,6,1,5,-1,0\n1,6,1,5,-1,1\n"
        with refused("duplicate record id 1"):
            parse_outcomes(text)

    def test_label_outside_01_rejected(self):
        with refused("line 2: label must be 0 or 1, got 2"):
            parse_outcomes(self.HEADER + "1,6,1,5,-1,2\n")

    def test_non_numeric_label_rejected(self):
        with refused("line 2: bad label 'dead'"):
            parse_outcomes(self.HEADER + "1,6,1,5,-1,dead\n")

    def test_non_numeric_record_id_rejected(self):
        with refused("line 3: bad RecordID 'x1'"):
            parse_outcomes(self.HEADER + "1,6,1,5,-1,0\nx1,6,1,5,-1,0\n")

    def test_missing_columns_rejected(self):
        with refused("outcomes header must contain RecordID and In-hospital_death columns"):
            parse_outcomes("RecordID,Survival\n1,0\n")


class TestJoinLabels:
    def _episode(self, record_id):
        return parse_record(record_text(record_id, {"Age": 50}))

    def test_join(self):
        eps = [self._episode(1), self._episode(2)]
        joined = join_labels(eps, {1: 0, 2: 1})
        assert [ep.label for ep in joined] == [0, 1]
        assert all(ep.label is None for ep in eps)  # inputs untouched

    def test_missing_label_names_id(self):
        with refused("no outcome label for record ids: [2]"):
            join_labels([self._episode(1), self._episode(2)], {1: 0})


class TestRegistry:
    def test_counts(self):
        assert len(TIME_SERIES_PARAMETERS) == 36
        assert len(STATIC_PARAMETERS) == 5
        names = TIME_SERIES_PARAMETERS + STATIC_PARAMETERS
        assert len(set(names)) == 41
