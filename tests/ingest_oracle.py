"""Reference record text I/O: the per-line code the column code replaced.

``parse_record`` walks the lines one at a time, with a regex, ``int``,
``float`` and ``isfinite`` per row, and ``serialize_record`` formats each
row and sorts them with a Python key.  Slow, but each rule is spelled out
once, so tests compare :mod:`icurisk.ingest` against it: the same episode,
the same text, or the same exception class and message.
"""

from __future__ import annotations

import io
import math
import re

import numpy as np

from icurisk.ingest import (
    MAX_MINUTES,
    MEASUREMENT_DTYPE,
    SENTINEL_STATICS,
    STATIC_PARAMETERS,
    TIME_SERIES_PARAMETERS,
    IngestError,
    RawEpisode,
)

_SERIES_INDEX = {name: i for i, name in enumerate(TIME_SERIES_PARAMETERS)}
_STATIC_INDEX = {name: i for i, name in enumerate(STATIC_PARAMETERS)}

_TIME_RE = re.compile(r"^(\d{1,2}):([0-5]\d)$")


def _by_minutes(rows: list[tuple[int, int, float]]) -> np.ndarray:
    """The rows as a MEASUREMENT_DTYPE array, stably sorted by time, always:
    the reference for the reader's return of rows already in order."""
    array = np.array(rows, dtype=MEASUREMENT_DTYPE)
    return array[np.argsort(array["minutes"], kind="stable")]


def _parse_minutes(token: str, line_no: int) -> int:
    m = _TIME_RE.match(token)
    if m is None:
        raise IngestError(f"line {line_no}: bad time field {token!r}")
    minutes = int(m.group(1)) * 60 + int(m.group(2))
    if minutes > MAX_MINUTES:
        raise IngestError(f"line {line_no}: time {token} exceeds the 48-hour window")
    return minutes


def _parse_value(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise IngestError(f"line {line_no}: bad value field {token!r}") from None
    if not math.isfinite(value):
        raise IngestError(f"line {line_no}: non-finite value {token!r}")
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
        raise IngestError("record file must start with a 'Time,Parameter,Value' header")

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
            raise IngestError(f"line {line_no}: expected 3 fields, got {len(parts)}")
        time_tok, name, value_tok = (p.strip() for p in parts)
        minutes = _parse_minutes(time_tok, line_no)

        if name == "RecordID":
            if record_id is not None:
                raise IngestError("duplicate RecordID row")
            value = _parse_value(value_tok, line_no)
            if value <= 0 or value != int(value):
                raise IngestError(f"RecordID must be a positive integer, got {value_tok!r}")
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
            raise IngestError(f"line {line_no}: unknown parameter {name!r}")
        measurements.append((minutes, series_idx, value))

    if record_id is None:
        raise IngestError("missing RecordID row")

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
