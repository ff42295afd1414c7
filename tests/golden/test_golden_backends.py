"""Golden digests: every backend reproduces the checked-in envelope bytes.

The cross-backend suite compares live backends against the live serial
reference; a refactor that shifts every path together passes it unseen.
These digests pin the bytes themselves: each registered workload's default
grid over the four chips, model-only, seed 0, as written by
``scripts/regen_golden.py``.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.experiments.backends import ShardedBackend
from repro.workloads import workload_kinds

_SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "regen_golden.py"
_spec = importlib.util.spec_from_file_location("regen_golden", _SCRIPT)
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)

GOLDEN = json.loads(regen_golden.GOLDEN_PATH.read_text())

BACKENDS = {
    "serial": "serial",
    "vectorized": "vectorized",
    # small shards so every grid crosses shard boundaries in the pool
    "sharded": ShardedBackend(max_workers=2, shard_size=32),
}


def test_golden_covers_every_registered_workload():
    assert sorted(GOLDEN["workloads"]) == sorted(workload_kinds())
    assert GOLDEN["chips"] == list(regen_golden.CHIPS)
    assert GOLDEN["numerics"] == regen_golden.NUMERICS
    assert GOLDEN["seed"] == regen_golden.SEED


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_backend_matches_golden_digests(backend):
    assert regen_golden.compute_digests(BACKENDS[backend]) == GOLDEN["workloads"]
