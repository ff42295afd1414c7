"""Worker crashes: broken pools degrade to the in-process path and recover.

The ``crash`` fault ``os._exit``\\ s the executing *worker* process — and is
a deliberate no-op in the parent, which is exactly why the degradation
ladder's in-process rung genuinely recovers: the same cell, the same fault
plan, but no worker to kill.
"""

import concurrent.futures

from chaoslib import grid, long_grid, model_session, serial_json

from repro.experiments import FaultPlan, RetryPolicy
from repro.experiments.backends import ShardedBackend

FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.001)


class TestCrashRecovery:
    def test_persistent_crash_recovers_byte_identically(self, reference):
        # backend-agnostic: pool backends lose the worker (every attempt)
        # and fall back in-process; in-parent backends never fire the rule
        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "crash", [specs[2].spec_hash()], times=None
            )
        )
        envelopes = session.run_batch(specs, max_workers=2, retry=FAST_RETRY)
        assert [e.to_json() for e in envelopes] == reference
        assert session.last_health.ok

    def test_sharded_per_cell_crash_degrades_to_fallback(self, reference):
        # force a real worker pool, one cell per shard, so the crash fires
        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "crash", [specs[2].spec_hash()], times=None
            )
        )
        envelopes = session.run_batch(
            specs,
            backend=ShardedBackend(max_workers=2, shard_size=1),
            retry=FAST_RETRY,
        )
        assert [e.to_json() for e in envelopes] == reference
        health = session.last_health
        assert health.ok
        assert health.crashes >= 1
        assert health.fallbacks >= 1

    def test_sharded_worker_crash_redoes_the_shard_in_parent(self, reference):
        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "crash", [specs[0].spec_hash()], times=None
            )
        )
        envelopes = session.run_batch(
            specs,
            backend=ShardedBackend(max_workers=2, shard_size=2),
            retry=FAST_RETRY,
        )
        assert [e.to_json() for e in envelopes] == reference
        health = session.last_health
        assert health.ok
        assert health.fallbacks >= 1

    def test_early_crash_leaves_later_shards_on_a_fresh_pool(self):
        specs = long_grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "crash", [specs[0].spec_hash()], times=None
            )
        )
        backend = ShardedBackend(max_workers=2, shard_size=1)
        envelopes = session.run_batch(specs, backend=backend, retry=FAST_RETRY)
        assert [e.to_json() for e in envelopes] == serial_json(specs)
        health = session.last_health
        assert health.ok
        assert health.crashes >= 1
        # the broken pool's in-flight shards (at most one window) are redone
        # in the parent; shards submitted after the crash go to a fresh pool
        assert 1 <= health.fallbacks <= backend.max_workers + 2 < len(specs)

    def test_pool_replacements_are_capped_at_max_workers(self, monkeypatch):
        built = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        specs = long_grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "crash", [spec.spec_hash() for spec in specs], times=None
            )
        )
        envelopes = session.run_batch(
            specs,
            backend=ShardedBackend(max_workers=1, shard_size=1),
            retry=FAST_RETRY,
        )
        assert [e.to_json() for e in envelopes] == serial_json(specs)
        health = session.last_health
        assert health.ok
        # every pool dies; after the first pool and one replacement the
        # remaining shards are redone in the parent without a pool
        assert len(built) == 2
        assert health.fallbacks == len(specs)
