"""Epoch outcomes pinned bit for bit against a committed recording.

The journal-replay checks compare the epoch engine with itself; this
fixture compares it with a recording of an earlier revision, so a
change anywhere under the service (overlay construction, blocked
Dijkstra, normalization, solves, stale-commit rechecks) that moves a
single outcome bit fails here.  Four seeded streams of 200 requests run
over a 2 000-peer universe with 64 initially active peers: the
read-mostly ``serve-read`` mix and the default :class:`WorkloadMix`,
each applied in epochs of 64 requests and of 1.  For every epoch the
state digest and the social cost are pinned, and for every request its
``(ok, value)`` result; floats are stored as exact ``float.hex``
strings.

Regenerate the recording only when an outcome change is intended::

    PYTHONPATH=src python tests/service/test_epoch_fixture.py
"""

import json
import math
from pathlib import Path

import pytest

from repro.metrics.euclidean import EuclideanMetric
from repro.service import ServiceState, WorkloadGenerator, WorkloadMix

FIXTURE = Path(__file__).with_name("data") / "epoch_outcomes.json"

UNIVERSE = 2_000
ACTIVE = 64
ALPHA = 2.0
REQUESTS = 200
METRIC_SEED = 2_024

#: ``serve-read`` is the read-mostly mix of the serve benchmark.
MIXES = {
    "serve-read": WorkloadMix(
        join=0.05, leave=0.05, rebind=0.20, query_cost=0.55,
        query_social_cost=0.15,
    ),
    "default": WorkloadMix(),
}
STREAM_SEEDS = {"serve-read": 11, "default": 12}
BATCHES = (64, 1)


def _encode(value):
    """JSON form of a result or cost; floats as exact hex strings."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, float):
        return {"float": value.hex()}
    raise TypeError(f"unexpected outcome value {value!r}")


def record_stream(mix_name: str, batch: int) -> dict:
    """Run one seeded stream through ``apply_epoch`` in ``batch``-sized
    epochs and return its outcomes in fixture form."""
    metric = EuclideanMetric.random_uniform(UNIVERSE, dim=2, seed=METRIC_SEED)
    generator = WorkloadGenerator(
        UNIVERSE, range(ACTIVE), STREAM_SEEDS[mix_name], mix=MIXES[mix_name]
    )
    requests = generator.take(REQUESTS)
    epochs = []
    with ServiceState(metric, ALPHA, initial_active=range(ACTIVE)) as state:
        for start in range(0, len(requests), batch):
            outcome = state.apply_epoch(requests[start : start + batch])
            epochs.append(
                {
                    "digest": outcome.digest,
                    "moves": outcome.moves,
                    "social_cost": _encode(float(outcome.social_cost)),
                    "results": [
                        [ok, _encode(value)] for ok, value in outcome.results
                    ],
                }
            )
    return {"mix": mix_name, "batch": batch, "epochs": epochs}


def _stream_id(mix_name: str, batch: int) -> str:
    return f"{mix_name}/batch{batch}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("mix_name", sorted(MIXES))
@pytest.mark.parametrize("batch", BATCHES)
def test_epoch_outcomes_match_recording(recorded, mix_name, batch):
    expected = recorded[_stream_id(mix_name, batch)]
    actual = record_stream(mix_name, batch)
    assert len(actual["epochs"]) == len(expected["epochs"])
    for index, (got, want) in enumerate(
        zip(actual["epochs"], expected["epochs"])
    ):
        assert got == want, f"epoch {index} of {_stream_id(mix_name, batch)}"


def test_recording_prices_finite_costs(recorded):
    """The streams reach connected overlays: the pinned query costs are
    not all ``inf``, so the recording exercises real Dijkstra values."""
    finite = 0
    for stream in recorded.values():
        for epoch in stream["epochs"]:
            for _ok, value in epoch["results"]:
                if isinstance(value, dict):
                    finite += math.isfinite(float.fromhex(value["float"]))
    assert finite >= 50


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    streams = {
        _stream_id(mix_name, batch): record_stream(mix_name, batch)
        for mix_name in sorted(MIXES)
        for batch in BATCHES
    }
    FIXTURE.write_text(json.dumps(streams, separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE}")
