"""Parsing of PhysioNet-2012-style record and outcome files.

A record file starts with the header ``Time,Parameter,Value`` followed by
rows ``HH:MM,<parameter>,<number>`` where the hour field may run up to 48.
Five parameters (age, gender, height, ICU type, initial weight) are static
and are read from the time-00:00 block; the other 36 known parameters form
the time-series.  An episode holds its rows as one structured array of
(minutes, parameter index, value), the form :mod:`icurisk.preprocess` reads
directly.  All functions here are pure: parsing many files concurrently is
safe.

Record text is read and written a column at a time: :func:`parse_record`
splits every row at once and looks the times up in one table of the 2881
canonical ``"HH:MM"`` strings, the names in one dict and the values through
``float``.  A body that pass refuses (blank lines, padded fields, one-digit
hours, any bad row) is walked line by line, raising at the first bad line.
:func:`serialize_record` reads the same table backwards after one lexsort.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

# 48-hour observation window, in minutes.
MAX_MINUTES = 48 * 60

TIME_SERIES_PARAMETERS = (
    "Albumin", "ALP", "ALT", "AST", "Bilirubin", "BUN", "Cholesterol",
    "Creatinine", "DiasABP", "FiO2", "GCS", "Glucose", "HCO3", "HCT", "HR",
    "K", "Lactate", "Mg", "MAP", "MechVent", "Na", "NIDiasABP", "NIMAP",
    "NISysABP", "PaCO2", "PaO2", "pH", "Platelets", "RespRate", "SaO2",
    "SysABP", "Temp", "TroponinI", "TroponinT", "Urine", "WBC",
)

STATIC_PARAMETERS = ("Age", "Gender", "Height", "ICUType", "Weight")

# A name's code: its series index, 36 + its static index, or RecordID's.
_NAMES = TIME_SERIES_PARAMETERS + STATIC_PARAMETERS
_CODES = {name: code for code, name in enumerate(_NAMES + ("RecordID",))}
_N_SERIES = len(TIME_SERIES_PARAMETERS)
_RECORD_ID = len(_NAMES)

# One row per observation; ``parameter`` indexes TIME_SERIES_PARAMETERS for
# measurements and STATIC_PARAMETERS for static extras.
MEASUREMENT_DTYPE = np.dtype(
    [("minutes", np.int64), ("parameter", np.intp), ("value", np.float64)]
)

# Static descriptors where the corpus uses -1 as "not recorded".
SENTINEL_STATICS = frozenset({"Gender", "Height", "Weight"})

# The coded statics' values, by static index: every row of one holds a code.
_STATIC_CODES = {STATIC_PARAMETERS.index("Gender"): (0, 1, -1),
                 STATIC_PARAMETERS.index("ICUType"): (1, 2, 3, 4)}

_TIME_RE = re.compile(r"^(\d{1,2}):([0-5]\d)$")

# The canonical "HH:MM" of every minute of the window, 00:00 to 48:00.
_CLOCK = [hour + minute for hour in [f"{h:02d}:" for h in range(49)]
          for minute in [f"{m:02d}" for m in range(60)]][:MAX_MINUTES + 1]
_MINUTE_OF = {clock: minutes for minutes, clock in enumerate(_CLOCK)}


class IngestError(Exception):
    """Base class for record/outcome ingestion failures."""


class RecordParseError(IngestError):
    """A line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class RecordStructureError(IngestError):
    """The file is well-formed line by line but structurally invalid."""


class UnknownParameterError(IngestError):
    """A row names none of the 41 known parameters."""

    def __init__(self, name: str, line_no: int):
        super().__init__(f"line {line_no}: unknown parameter {name!r}")
        self.line_no = line_no


def _by_minutes(rows) -> np.ndarray:
    """The rows as a MEASUREMENT_DTYPE array, stably sorted by time.  Rows
    already in time order, as record files are written, come back as they
    are: a stable sort would not move them."""
    array = np.asarray(rows, dtype=MEASUREMENT_DTYPE)
    minutes = array["minutes"]
    if (minutes[1:] >= minutes[:-1]).all():
        return array
    return array[np.argsort(minutes, kind="stable")]


@dataclass(eq=False)
class RawEpisode:
    """One patient's parsed record.

    ``statics`` is aligned with ``STATIC_PARAMETERS``; ``None`` marks a
    missing descriptor.  ``measurements`` (time-series rows) and
    ``static_extras`` (later or repeated static rows, e.g. Weight re-measured,
    kept so serialization round-trips but left out of the feature matrix)
    are MEASUREMENT_DTYPE arrays sorted non-decreasing by time, preserving
    file order among equal timestamps.
    """

    record_id: int
    statics: list[float | None]
    measurements: np.ndarray
    static_extras: np.ndarray = field(default_factory=lambda: np.empty(0, MEASUREMENT_DTYPE))
    label: int | None = None

    def __eq__(self, other):
        # The generated dataclass __eq__ would compare the arrays with ==,
        # which yields an array, not a bool.
        return (
            isinstance(other, RawEpisode)
            and self.record_id == other.record_id
            and self.statics == other.statics
            and self.label == other.label
            and np.array_equal(self.measurements, other.measurements)
            and np.array_equal(self.static_extras, other.static_extras)
        )


def _parse_minutes(token: str, line_no: int) -> int:
    m = _TIME_RE.match(token)
    if m is None:
        raise RecordParseError(line_no, f"bad time field {token!r}")
    minutes = int(m.group(1)) * 60 + int(m.group(2))
    if minutes > MAX_MINUTES:
        raise RecordParseError(
            line_no, f"time {token} exceeds the 48-hour window"
        )
    return minutes


def _parse_value(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise RecordParseError(line_no, f"bad value field {token!r}") from None
    if not math.isfinite(value):
        raise RecordParseError(line_no, f"non-finite value {token!r}")
    return value


def _is_record_id(value: float) -> bool:
    return value > 0 and value == int(value)


def parse_record(text: str) -> RawEpisode:
    """Parse one record file's contents into a :class:`RawEpisode`.

    The first time-00:00 row of each static parameter fills the static slot
    (with -1 mapped to missing for Gender/Height/Weight); later or repeated
    static rows are retained in ``static_extras``.  Both row arrays are
    stably sorted by time so equal timestamps keep file order.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "Time,Parameter,Value":
        raise RecordStructureError(
            "record file must start with a 'Time,Parameter,Value' header"
        )
    episode = _parse_columns(lines[1:])
    return _parse_lines(lines[1:]) if episode is None else episode


def _parse_columns(body: list[str]) -> RawEpisode | None:
    """The episode of a body of canonical rows, read a column at a time, or
    None if any row is not canonical or the body has not one valid RecordID."""
    try:  # a ragged, empty or not three-column body fails the strict transpose
        times, names, tokens = zip(*[line.split(",") for line in body], strict=True)
        minutes = np.fromiter(map(_MINUTE_OF.__getitem__, times), np.int64, len(times))
        codes = np.fromiter(map(_CODES.__getitem__, names), np.intp, len(names))
        values = list(map(float, tokens))
    except (KeyError, ValueError):
        return None
    column = np.array(values)
    ids = np.flatnonzero(codes == _RECORD_ID).tolist()
    if len(ids) != 1 or not np.isfinite(column).all() or not _is_record_id(values[ids[0]]):
        return None
    series = codes < _N_SERIES
    measurements = np.empty(np.count_nonzero(series), MEASUREMENT_DTYPE)
    measurements["minutes"], measurements["parameter"], measurements["value"] = (
        minutes[series], codes[series], column[series])
    static_rows = [(minutes[i], codes[i], values[i])
                   for i in np.flatnonzero(~series & (codes != _RECORD_ID)).tolist()]
    return _episode(int(values[ids[0]]), measurements, static_rows)


def _parse_lines(body: list[str]) -> RawEpisode:
    """The episode of any body, walked line by line: blank lines, padded
    fields and one-digit hours pass, and the first bad line raises."""
    record_id: int | None = None
    measurements, static_rows = [], []
    for line_no, raw in enumerate(body, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise RecordParseError(line_no, f"expected 3 fields, got {len(parts)}")
        time_tok, name, value_tok = (p.strip() for p in parts)
        minutes = _parse_minutes(time_tok, line_no)

        if name == "RecordID":
            if record_id is not None:
                raise RecordStructureError("duplicate RecordID row")
            value = _parse_value(value_tok, line_no)
            if not _is_record_id(value):
                raise RecordStructureError(
                    f"RecordID must be a positive integer, got {value_tok!r}"
                )
            record_id = int(value)
            continue

        value = _parse_value(value_tok, line_no)
        code = _CODES.get(name)
        if code is None:
            raise UnknownParameterError(name, line_no)
        (measurements if code < _N_SERIES else static_rows).append((minutes, code, value))

    if record_id is None:
        raise RecordStructureError("missing RecordID row")
    return _episode(record_id, measurements, static_rows)


def _episode(record_id: int, measurements, static_rows: list[tuple]) -> RawEpisode:
    """The episode of its rows; the first 00:00 row of each static (coded as
    in ``_CODES``, in file order) fills its slot, the rest are extras.  A
    ``Gender`` or ``ICUType`` row outside its codes raises IngestError."""
    statics: list[float | None] = [None] * len(STATIC_PARAMETERS)
    seen = set()
    extras = []
    for minutes, code, value in static_rows:
        idx = code - _N_SERIES
        codes = _STATIC_CODES.get(idx)
        if codes is not None and value not in codes:
            raise IngestError(f"{STATIC_PARAMETERS[idx]} is {value!r}, not one of {codes}")
        if minutes == 0 and idx not in seen:
            seen.add(idx)
            if STATIC_PARAMETERS[idx] not in SENTINEL_STATICS or value != -1:
                statics[idx] = value
        else:
            extras.append((minutes, idx, value))
    return RawEpisode(record_id, statics, _by_minutes(measurements), _by_minutes(extras))


def serialize_record(episode: RawEpisode) -> str:
    """Render an episode back to the record file format.

    ``parse_record(serialize_record(ep))`` reproduces ``ep`` exactly; missing
    statics are omitted rather than written as -1.  A row outside the
    48-hour window raises ValueError, naming the record.
    """
    lines = ["Time,Parameter,Value", f"00:00,RecordID,{episode.record_id}"]
    lines += [f"00:00,{name},{value!r}"
              for name, value in zip(STATIC_PARAMETERS, episode.statics) if value is not None]

    # Merge the two streams by time, each in its own order, a measurement
    # first on a full tie.  ``tolist`` yields Python floats, whose repr is
    # the shortest round-tripping form.
    n = len(episode.measurements)
    rows = np.concatenate([episode.measurements, episode.static_extras])
    rows["parameter"][n:] += _N_SERIES
    minutes = rows["minutes"]
    if rows.size and (minutes.min() < 0 or minutes.max() > MAX_MINUTES):
        raise ValueError(f"record {episode.record_id}: a row lies outside the 48-hour window")
    position = np.concatenate([np.arange(n), np.arange(len(rows) - n)])
    lines += [f"{_CLOCK[t]},{_NAMES[p]},{value!r}"
              for t, p, value in rows[np.lexsort((position, minutes))].tolist()]
    return "\n".join(lines) + "\n"


def parse_outcomes(text: str) -> dict[int, int]:
    """Parse an outcomes file into ``{record_id: label}``.

    The header must include ``RecordID`` and ``In-hospital_death`` columns.
    Labels must be exactly 0 or 1; duplicate record ids are an error.
    """
    reader = csv.DictReader(io.StringIO(text))
    fields = reader.fieldnames or []
    if "RecordID" not in fields or "In-hospital_death" not in fields:
        raise RecordStructureError(
            "outcomes header must contain RecordID and In-hospital_death columns"
        )
    labels: dict[int, int] = {}
    for row_no, row in enumerate(reader, start=2):
        try:
            record_id = int(row["RecordID"])
        except (TypeError, ValueError):
            raise RecordParseError(row_no, f"bad RecordID {row['RecordID']!r}") from None
        if record_id in labels:
            raise RecordStructureError(f"duplicate record id {record_id}")
        raw_label = row["In-hospital_death"]
        try:
            label = int(raw_label)
        except (TypeError, ValueError):
            raise RecordParseError(row_no, f"bad label {raw_label!r}") from None
        if label not in (0, 1):
            raise RecordParseError(row_no, f"label must be 0 or 1, got {label}")
        labels[record_id] = label
    return labels


def join_labels(
    episodes: list[RawEpisode], labels: dict[int, int]
) -> list[RawEpisode]:
    """Attach outcome labels to episodes; every episode must have one."""
    missing = [ep.record_id for ep in episodes if ep.record_id not in labels]
    if missing:
        raise RecordStructureError(
            f"no outcome label for record ids: {sorted(missing)}"
        )
    return [replace(ep, label=labels[ep.record_id]) for ep in episodes]
