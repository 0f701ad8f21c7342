"""The forward pass and its gradients against recorded reference values.

``forward_golden.json`` was recorded once from the per-vector tape model
(commit 5460473), in which every LSTM gate, score and reading was its own
chain of tape entries.  Each case scores one seeded episode with one seeded
model, takes the log-loss, runs the backward sweep and keeps the risk, the
attention weights and states (attention models only) and every parameter
gradient.  Cases cover the four architectures at T = 1, 2 and 16, in
evaluation mode and in seeded training mode with dropout on.

Record again (only ever from a trusted implementation) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from icurisk.model import ModelConfig, ModelParams, forward_batch, loss_and_grads, v1_arrays

GOLDEN = Path(__file__).with_name("forward_golden.json")
TOLERANCE = 1e-12

# lr-baseline keeps its dropout here, so that the training-mode cases
# exercise dropout on the single-row path too.
ARCHITECTURES = {
    "lr-baseline": dict(recurrent=False),
    "lstm-mean": dict(pooling="mean"),
    "lstm-attn": dict(pooling="attention"),
    "bilstm-attn": dict(pooling="attention", bidirectional=True),
}
LENGTHS = (1, 2, 16)


def case_names():
    for arch in ARCHITECTURES:
        for t in (1,) if arch == "lr-baseline" else LENGTHS:
            for mode in ("eval", "train"):
                yield f"{arch}/T{t}/{mode}"


def run_case(name: str) -> dict:
    arch, length, mode = name.split("/")
    t = int(length[1:])
    seed = sum(map(ord, name))
    cfg = ModelConfig(input_dim=4, hidden=2, heads=2, attn_hidden=3,
                      dropout_in=0.3, dropout_out=0.4, **ARCHITECTURES[arch])
    rng = np.random.default_rng(seed)
    params = ModelParams.init(cfg, rng)
    for _, array in v1_arrays(params):  # no zero biases; drawn per v1 entry
        array[...] = rng.normal(0.0, 0.7, size=array.shape)
    X = rng.normal(0.0, 1.5, size=(t, cfg.input_dim))

    train = mode == "train"
    result = forward_batch([X], params, np.random.default_rng(seed + 1) if train else None)
    _, grads = loss_and_grads(params, [X], [seed % 2],
                              np.random.default_rng(seed + 1) if train else None)
    for name, array in params.named_parameters():  # read the gradients under v1 names
        array[...] = grads[name]
    out = {
        "risk": float(result.risks[0]),
        "grads": {n: grad.ravel().tolist() for n, grad in v1_arrays(params)},
    }
    if result.weights is not None:  # attention pooling: the episode's trace
        out["weights"] = result.weights[0].tolist()
        out["states"] = result.states[0].tolist()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_recorded(golden):
    assert sorted(golden) == sorted(case_names())


@pytest.mark.parametrize("name", list(case_names()))
def test_matches_recorded_values(golden, name):
    expected = golden[name]
    got = run_case(name)
    assert sorted(got) == sorted(expected)
    assert abs(got["risk"] - expected["risk"]) <= TOLERANCE
    for key in ("weights", "states"):
        if key in expected:
            diff = np.abs(np.array(got[key]) - np.array(expected[key])).max()
            assert diff <= TOLERANCE, f"{key}: {diff}"
    assert sorted(got["grads"]) == sorted(expected["grads"])
    for param, grad in expected["grads"].items():
        diff = np.abs(np.array(got["grads"][param]) - np.array(grad)).max()
        assert diff <= TOLERANCE, f"gradient of {param}: {diff}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({n: run_case(n) for n in case_names()}, indent=1) + "\n")
