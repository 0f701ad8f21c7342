"""From a raw record file to a model-ready feature matrix, step by step.

Builds one small record by hand, then walks the full preprocessing chain:
percentile truncation, interval binning, per-interval statistics, two-level
imputation, and z-scoring.
"""

import numpy as np

from icurisk.ingest import parse_record, serialize_record
from icurisk.preprocess import (
    apply_truncation,
    assemble_matrix,
    build_features,
    feature_names,
    fit_pipeline,
)

# A patient with a handful of heart-rate and glucose measurements over the
# first day, plus one wild HR outlier at hour 20.
record = """Time,Parameter,Value
00:00,RecordID,4001
00:00,Age,67
00:00,Gender,1
00:00,Height,175
00:00,ICUType,3
00:00,Weight,82.5
00:15,HR,78
01:40,HR,84
02:10,Glucose,141
05:30,HR,81
09:05,Glucose,158
20:00,HR,9999
23:45,HR,90
"""

episode = parse_record(record)
print(f"record {episode.record_id}: {len(episode.measurements)} measurements, "
      f"statics = {episode.statics}")
assert parse_record(serialize_record(episode)) == episode
print("round-trip through the file format reproduces the episode exactly\n")

# Fitting needs a training split; a few sibling episodes stand in for one.
rng = np.random.default_rng(0)
siblings = []
for rid in range(4002, 4012):
    rows = "".join(
        f"{m // 60:02d}:{m % 60:02d},HR,{rng.normal(80, 8):.1f}\n"
        for m in sorted(rng.integers(0, 2881, size=25))
    )
    siblings.append(parse_record(f"Time,Parameter,Value\n00:00,RecordID,{rid}\n"
                                 f"00:00,Age,{rng.integers(40, 90)}\n" + rows))
training = siblings + [episode]

stats = fit_pipeline(training, interval_minutes=180)
hr = feature_names().index("HR_min") // 5
print(f"fitted HR bounds: [{stats.truncation.lower[hr]:.1f}, "
      f"{stats.truncation.upper[hr]:.1f}]  (the 9999 outlier gets clamped)")

clamped = apply_truncation(episode, stats.truncation)
rows = clamped.measurements  # one (minutes, parameter, value) row per reading
is_hr = rows["parameter"] == hr
print("HR values after truncation:", rows["value"][is_hr].tolist())

raw = assemble_matrix(clamped, 180)
print(f"\n{len(raw)} intervals of 3 hours (capped at the last observed one)")
print("interval 0 HR values:", rows["value"][is_hr & (rows["minutes"] < 180)].tolist())
print("interval 0 HR stats (min,max,mean,median,std):",
      np.round(raw[0, hr * 5:(hr + 1) * 5], 3))
print("interval 2 HR stats:", raw[2, hr * 5:(hr + 1) * 5], "<- empty, imputed next")

features = build_features(episode, stats)
print(f"\nfinal matrix: {features.matrix.shape[0]} intervals x "
      f"{features.matrix.shape[1]} features, all finite:",
      bool(np.isfinite(features.matrix).all()))
print("normalized HR block of interval 0:",
      np.round(features.matrix[0, hr * 5:(hr + 1) * 5], 3))
age_col = feature_names().index("Age")
print("Age column is constant down the rows:",
      np.unique(np.round(features.matrix[:, age_col], 6)))
