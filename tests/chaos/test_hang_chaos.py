"""Hung cells: per-cell deadlines detect them; the retry recovers them.

The ``hang`` fault sleeps inside the cell's execution path.  The sharded
backend armed with ``cell_timeout`` gives each shard ``cell_timeout`` ×
its cell count, abandons a shard that runs past it and redoes the shard
in the parent at the next attempt (the one-shot rule does not re-fire on
attempt 2); in-parent backends simply ride the sleep out.  Either way the
run completes byte-identically.
"""

from chaoslib import grid, long_grid, model_session, serial_json

from repro.experiments import FaultPlan, RetryPolicy
from repro.experiments.backends import ShardedBackend


class TestHangRecovery:
    def test_hung_cell_is_detected_and_recovered(self, reference):
        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "hang", [specs[0].spec_hash()], times=1, seconds=0.6
            )
        )
        envelopes = session.run_batch(
            specs,
            max_workers=2,
            retry=RetryPolicy(
                max_retries=1, backoff_base=0.001, cell_timeout=0.15
            ),
        )
        assert [e.to_json() for e in envelopes] == reference
        assert session.last_health.ok

    def test_sharded_shard_deadline_is_counted(self, reference):
        # shard_size=1: a shard's deadline is exactly one cell_timeout
        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "hang", [specs[0].spec_hash()], times=1, seconds=0.6
            )
        )
        envelopes = session.run_batch(
            specs,
            backend=ShardedBackend(max_workers=2, shard_size=1),
            retry=RetryPolicy(
                max_retries=1, backoff_base=0.001, cell_timeout=0.15
            ),
        )
        assert [e.to_json() for e in envelopes] == reference
        health = session.last_health
        assert health.ok
        assert health.timeouts >= 1
        # the expired shard is redone in the parent, not retried with backoff
        assert health.fallbacks >= 1
        # the deadline the parent waited out is wall clock lost
        assert health.wall_clock_lost_s >= 0.15

    def test_early_hang_leaves_later_shards_on_a_fresh_pool(self):
        specs = long_grid()
        reference = serial_json(specs)
        session = model_session(
            fault_plan=FaultPlan.single(
                "hang", [specs[0].spec_hash()], times=1, seconds=0.6
            )
        )
        envelopes = session.run_batch(
            specs,
            backend=ShardedBackend(max_workers=2, shard_size=1),
            retry=RetryPolicy(
                max_retries=1, backoff_base=0.001, cell_timeout=0.15
            ),
        )
        assert [e.to_json() for e in envelopes] == reference
        health = session.last_health
        assert health.ok
        # only the hung shard is redone in the parent; the pool's unfinished
        # shards and everything submitted later run on a replacement pool
        assert (health.timeouts, health.fallbacks, health.retries) == (1, 1, 0)
        assert health.wall_clock_lost_s == 0.15
