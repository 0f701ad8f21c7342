"""Parsing of PhysioNet-2012-style record and outcome files.

A record file starts with the header ``Time,Parameter,Value`` followed by
rows ``HH:MM,<parameter>,<number>`` where the hour field may run up to 48.
Five parameters (age, gender, height, ICU type, initial weight) are static
and are read from the time-00:00 block; the other 36 known parameters form
the time-series.  An episode holds its rows as one structured array of
(minutes, parameter index, value), the form :mod:`icurisk.preprocess` reads
directly.  All functions here are pure: parsing many files concurrently is
safe.
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

_SERIES_INDEX = {name: i for i, name in enumerate(TIME_SERIES_PARAMETERS)}
_STATIC_INDEX = {name: i for i, name in enumerate(STATIC_PARAMETERS)}

# One row per observation; ``parameter`` indexes TIME_SERIES_PARAMETERS for
# measurements and STATIC_PARAMETERS for static extras.
MEASUREMENT_DTYPE = np.dtype(
    [("minutes", np.int64), ("parameter", np.intp), ("value", np.float64)]
)

# Static descriptors where the corpus uses -1 as "not recorded".
SENTINEL_STATICS = frozenset({"Gender", "Height", "Weight"})

_TIME_RE = re.compile(r"^(\d{1,2}):([0-5]\d)$")


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
        self.parameter = name
        self.line_no = line_no


def _by_minutes(rows: list[tuple[int, int, float]]) -> np.ndarray:
    """The rows as a MEASUREMENT_DTYPE array, stably sorted by time."""
    array = np.array(rows, dtype=MEASUREMENT_DTYPE)
    return array[np.argsort(array["minutes"], kind="stable")]


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

    record_id: int | None = None
    statics: list[float | None] = [None] * len(STATIC_PARAMETERS)
    statics_seen = [False] * len(STATIC_PARAMETERS)
    measurements: list[tuple[int, int, float]] = []
    extras: list[tuple[int, int, float]] = []

    for line_no, raw in enumerate(lines[1:], start=2):
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
            if value <= 0 or value != int(value):
                raise RecordStructureError(
                    f"RecordID must be a positive integer, got {value_tok!r}"
                )
            record_id = int(value)
            continue

        value = _parse_value(value_tok, line_no)

        static_idx = _STATIC_INDEX.get(name)
        if static_idx is not None:
            if minutes == 0 and not statics_seen[static_idx]:
                statics_seen[static_idx] = True
                if name in SENTINEL_STATICS and value == -1:
                    statics[static_idx] = None
                else:
                    statics[static_idx] = value
            else:
                extras.append((minutes, static_idx, value))
            continue

        series_idx = _SERIES_INDEX.get(name)
        if series_idx is None:
            raise UnknownParameterError(name, line_no)
        measurements.append((minutes, series_idx, value))

    if record_id is None:
        raise RecordStructureError("missing RecordID row")

    return RawEpisode(record_id, statics, _by_minutes(measurements), _by_minutes(extras))


def serialize_record(episode: RawEpisode) -> str:
    """Render an episode back to the record file format.

    ``parse_record(serialize_record(ep))`` reproduces ``ep`` exactly; missing
    statics are omitted rather than written as -1.
    """
    out = io.StringIO()
    out.write("Time,Parameter,Value\n")
    out.write(f"00:00,RecordID,{episode.record_id}\n")
    for idx, value in enumerate(episode.statics):
        if value is not None:
            out.write(f"00:00,{STATIC_PARAMETERS[idx]},{value!r}\n")

    # Merge the two streams by time; the merge is stable within each stream,
    # which is all the round-trip needs.  ``tolist`` yields Python floats,
    # whose repr is the shortest round-tripping form.
    rows: list[tuple[int, int, str]] = []
    for array, names in ((episode.measurements, TIME_SERIES_PARAMETERS),
                         (episode.static_extras, STATIC_PARAMETERS)):
        for order, (minutes, p, value) in enumerate(array.tolist()):
            rows.append((minutes, order, f"{names[p]},{value!r}"))
    rows.sort(key=lambda r: (r[0], r[1]))
    for minutes, _, tail in rows:
        out.write(f"{minutes // 60:02d}:{minutes % 60:02d},{tail}\n")
    return out.getvalue()


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
