"""Seeded synthetic PhysioNet-2012-style corpora for the benchmark.

Every generator takes an explicit ``numpy.random.Generator`` built from the
benchmark seed, so the same seed always gives the same record texts and
outcome rows.  The parameter names are written out here rather than read
from ``icurisk.ingest``: the program receives the texts only, and a change
to its registry shows up as rejected records instead of adapting the input.

What the records exercise:

* skewed per-parameter rates: vitals about hourly (sampled together, so
  timestamps tie), labs a few times per stay, and a group of parameters
  absent from most records;
* ragged horizons: mostly full 48-hour stays with a tail of shorter ones,
  or in-stay snapshots cut between 6 and 48 hours;
* the parser's edge cases: rows at the 48:00 endpoint, ``-1`` sentinel
  statics, and later ``Weight`` rows;
* about 14% positive outcomes, with a signal in HR, lactate, GCS and blood
  pressure so that training has something to learn;
* for scoring only, a share of malformed records: a bad time field, an
  unknown parameter, or a non-finite value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WINDOW_MINUTES = 48 * 60
INTERVAL_MINUTES = 180
PREVALENCE = 0.14

OUTCOMES_HEADER = "RecordID,SAPS-I,SOFA,Length_of_stay,Survival,In-hospital_death"

# name: (mean, sd, shift when the outcome is positive)
_VITALS = {
    "HR": (86.0, 14.0, 14.0),
    "NISysABP": (118.0, 18.0, -12.0),
    "NIDiasABP": (58.0, 11.0, -6.0),
    "NIMAP": (77.0, 12.0, -8.0),
    "RespRate": (19.0, 5.0, 3.0),
    "Urine": (120.0, 90.0, -45.0),
}
_INVASIVE = {  # arterial line: hourly, in about half the stays
    "SysABP": (120.0, 20.0, -12.0),
    "DiasABP": (59.0, 11.0, -6.0),
    "MAP": (80.0, 13.0, -8.0),
}
_FOUR_HOURLY = {
    "Temp": (37.0, 0.7, 0.4),
    "GCS": (11.5, 3.5, -3.5),
    "FiO2": (0.5, 0.15, 0.08),
}
_LABS = {  # a few draws per stay
    "BUN": (27.0, 18.0, 10.0),
    "Creatinine": (1.4, 1.1, 0.6),
    "Glucose": (140.0, 45.0, 15.0),
    "HCO3": (23.5, 4.5, -2.5),
    "HCT": (30.5, 5.0, -1.0),
    "K": (4.1, 0.6, 0.2),
    "Mg": (2.0, 0.35, 0.0),
    "Na": (139.0, 4.5, 0.5),
    "Platelets": (190.0, 95.0, -40.0),
    "WBC": (12.5, 6.5, 4.0),
    "PaCO2": (40.0, 8.0, 0.0),
    "PaO2": (145.0, 70.0, -20.0),
    "pH": (7.38, 0.07, -0.05),
}
# name: (share of stays with the parameter at all, mean, sd, shift)
_SPARSE = {
    "Lactate": (0.45, 2.6, 1.8, 2.2),
    "MechVent": (0.6, 1.0, 0.0, 0.0),
    "SaO2": (0.4, 96.5, 3.0, -1.5),
    "Albumin": (0.25, 2.9, 0.6, -0.4),
    "ALP": (0.3, 115.0, 90.0, 30.0),
    "ALT": (0.3, 380.0, 900.0, 200.0),
    "AST": (0.3, 500.0, 1200.0, 300.0),
    "Bilirubin": (0.3, 2.8, 4.5, 1.5),
    "TroponinT": (0.2, 1.1, 2.2, 0.6),
    "TroponinI": (0.05, 7.0, 9.0, 3.0),
    "Cholesterol": (0.05, 155.0, 45.0, 0.0),
}

MALFORMED_KINDS = ("bad_time", "unknown_parameter", "non_finite")


@dataclass(frozen=True)
class Record:
    """One generated record file and what the benchmark knows about it.

    ``last_minute`` is the time of the last time-series row; it describes
    the intended record, so the output checks do not rely on the program
    under test.  ``malformed`` names the defect planted in the text, or is
    None.
    """

    record_id: int
    text: str
    label: int
    last_minute: int
    malformed: str | None = None

    @property
    def intervals(self) -> int:
        """Rows of the feature matrix: bins up to the last measurement."""
        n_bins = -(-WINDOW_MINUTES // INTERVAL_MINUTES)
        return min(self.last_minute // INTERVAL_MINUTES, n_bins - 1) + 1


def _hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _value(rng: np.random.Generator, mean: float, sd: float, shift: float,
           sick: bool) -> float:
    if sd == 0.0:
        return round(mean, 2)
    return round(float(rng.normal(mean + (shift if sick else 0.0), sd)), 2)


def _series_rows(rng: np.random.Generator, sick: bool,
                 horizon: int) -> list[tuple[int, str, float]]:
    """Time-series rows up to ``horizon`` minutes, sorted by time."""
    rows: list[tuple[int, str, float]] = []
    invasive = rng.random() < 0.5
    # Vitals come in charting rounds about once an hour; every parameter of
    # a round shares its timestamp.
    minute = int(rng.integers(0, 30))
    while minute <= horizon:
        for name, (mean, sd, shift) in _VITALS.items():
            rows.append((minute, name, _value(rng, mean, sd, shift, sick)))
        if invasive:
            for name, (mean, sd, shift) in _INVASIVE.items():
                rows.append((minute, name, _value(rng, mean, sd, shift, sick)))
        minute += int(rng.integers(45, 76))
    minute = int(rng.integers(0, 120))
    while minute <= horizon:
        for name, (mean, sd, shift) in _FOUR_HOURLY.items():
            rows.append((minute, name, _value(rng, mean, sd, shift, sick)))
        minute += int(rng.integers(180, 300))
    for name, (mean, sd, shift) in _LABS.items():
        for minute in rng.integers(0, horizon + 1, size=int(rng.integers(1, 5))):
            rows.append((int(minute), name, _value(rng, mean, sd, shift, sick)))
    for name, (share, mean, sd, shift) in _SPARSE.items():
        if rng.random() < share:
            for minute in rng.integers(0, horizon + 1, size=int(rng.integers(1, 4))):
                rows.append((int(minute), name, _value(rng, mean, sd, shift, sick)))
    if horizon == WINDOW_MINUTES and rng.random() < 0.3:
        rows.append((WINDOW_MINUTES, "HR", _value(rng, *_VITALS["HR"], sick)))
    rows.sort(key=lambda row: row[0])  # stable: ties keep generation order
    return rows


def _statics(rng: np.random.Generator) -> list[tuple[str, float]]:
    def sentinel(value: float) -> float:
        return -1 if rng.random() < 0.15 else value

    return [
        ("Age", int(rng.integers(18, 91))),
        ("Gender", sentinel(int(rng.integers(0, 2)))),
        ("Height", sentinel(round(float(rng.uniform(150.0, 195.0)), 1))),
        ("ICUType", int(rng.integers(1, 5))),
        ("Weight", sentinel(round(float(rng.uniform(50.0, 120.0)), 1))),
    ]


def _render(record_id: int, statics, rows, extras) -> str:
    lines = ["Time,Parameter,Value", f"00:00,RecordID,{record_id}"]
    lines.extend(f"00:00,{name},{value}" for name, value in statics)
    merged = sorted(rows + extras, key=lambda row: row[0])
    lines.extend(f"{_hhmm(minute)},{name},{value}" for minute, name, value in merged)
    return "\n".join(lines) + "\n"


def make_record(record_id: int, rng: np.random.Generator, horizon: int,
                label: int) -> Record:
    """A valid record whose time-series rows end at or before ``horizon``."""
    rows = _series_rows(rng, label == 1, horizon)
    extras = []
    if rng.random() < 0.4:  # re-weighed later in the stay
        extras.append((int(rng.integers(60, horizon + 1)), "Weight",
                       round(float(rng.uniform(50.0, 120.0)), 1)))
    text = _render(record_id, _statics(rng), rows, extras)
    return Record(record_id, text, label, rows[-1][0])


def _label(rng: np.random.Generator) -> int:
    return int(rng.random() < PREVALENCE)


def stratified_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` labels in random order with exactly round(n * PREVALENCE) ones, at least one."""
    labels = np.zeros(n, dtype=int)
    labels[:max(1, round(n * PREVALENCE))] = 1
    return rng.permutation(labels)


def stay_corpus(rng: np.random.Generator, n: int, first_id: int = 200000,
                short_share: float = 0.15, labels=None) -> list[Record]:
    """Whole stays: 48 hours, except a ``short_share`` tail of 12-47 hours.

    Labels are drawn at the corpus prevalence unless ``labels`` gives them.
    """
    records = []
    for i in range(n):
        horizon = WINDOW_MINUTES
        if rng.random() < short_share:
            horizon = int(rng.integers(12 * 60, 47 * 60))
        label = _label(rng) if labels is None else int(labels[i])
        records.append(make_record(first_id + i, rng, horizon, label))
    return records


def _plant_defect(record: Record, rng: np.random.Generator, kind: str) -> Record:
    lines = record.text.splitlines()
    at = int(rng.integers(7, len(lines)))  # a time-series row, past the statics
    minute, name, value = lines[at].split(",")
    if kind == "bad_time":
        minute = minute.replace(":", "h", 1)
    elif kind == "unknown_parameter":
        name = name + "_x"
    else:
        value = ("nan", "inf", "-inf")[int(rng.integers(3))]
    lines[at] = f"{minute},{name},{value}"
    text = "\n".join(lines) + "\n"
    return Record(record.record_id, text, record.label, record.last_minute,
                  malformed=kind)


def snapshot_corpus(rng: np.random.Generator, n: int, first_id: int = 300000,
                    malformed_share: float = 0.02) -> list[Record]:
    """In-stay snapshots cut between 6 and 48 hours; some are malformed."""
    records = []
    for i in range(n):
        horizon = int(rng.integers(6 * 60, WINDOW_MINUTES + 1))
        record = make_record(first_id + i, rng, horizon, _label(rng))
        if rng.random() < malformed_share:
            kind = MALFORMED_KINDS[int(rng.integers(len(MALFORMED_KINDS)))]
            record = _plant_defect(record, rng, kind)
        records.append(record)
    return records


def outcomes_text(records: list[Record]) -> str:
    """An outcomes file with one row per record."""
    lines = [OUTCOMES_HEADER]
    lines.extend(f"{r.record_id},12,5,9,-1,{r.label}" for r in records)
    return "\n".join(lines) + "\n"
