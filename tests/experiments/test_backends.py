"""Cross-backend determinism: serial == vectorized == sharded, byte for byte.

DESIGN.md §2's purity property — every cell is a pure function of (spec,
session fingerprint) — is what makes parallel execution sound.  This suite
turns it into an enforced invariant: for every registered workload and
every execution backend, the envelope JSON must be *byte-identical* to the
serial reference.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationError,
    TransientError,
    WorkerCrashError,
)
from repro.experiments import (
    BACKEND_NAMES,
    GemmSpec,
    RetryPolicy,
    SerialBackend,
    Session,
    StreamSpec,
    SweepSpec,
    VectorizedBackend,
    resolve_backend,
)
from repro.experiments.backends import ShardedBackend
from repro.sim.machine import Machine
from repro.workloads import get_workload, workload_kinds

pytestmark = []

PARALLEL_BACKENDS = tuple(n for n in BACKEND_NAMES if n != "serial")


def model_session(**kwargs) -> Session:
    return Session(numerics="model-only", **kwargs)


def batch_json(specs, **kwargs) -> list[str]:
    """Envelope JSON of one fresh-session batch run."""
    return [
        env.to_json()
        for env in model_session().run_batch(specs, **kwargs)
    ]


class TestCrossBackendDeterminism:
    @pytest.mark.parametrize("kind", workload_kinds())
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_every_workload_bit_identical_to_serial(self, kind, backend):
        spec = get_workload(kind).sample_spec()
        reference = batch_json([spec], backend="serial")
        assert batch_json([spec], backend=backend, max_workers=2) == reference

    def test_mixed_kind_batch_across_all_backends(self):
        specs = [get_workload(kind).sample_spec() for kind in workload_kinds()]
        reference = batch_json(specs, backend="serial")
        for backend in PARALLEL_BACKENDS:
            assert batch_json(specs, backend=backend, max_workers=4) == reference

    def test_all_six_workload_sweeps_serial_vs_sharded_per_cell(self):
        """The acceptance grid: one sweep per registered kind, one cell per
        worker task (``shard_size=1``)."""
        sweeps = [
            SweepSpec(kind="gemm", chips=("M1",), impl_keys=("gpu-mps",), sizes=(256,)),
            SweepSpec(kind="powered-gemm", chips=("M1",), impl_keys=("gpu-mps",), sizes=(256,), repeats=2),
            SweepSpec(kind="stream", chips=("M1",), impl_keys=("gpu",), n_elements=1 << 14, repeats=2),
            SweepSpec(kind="spmv", chips=("M1",), impl_keys=("cpu",), sizes=(4096,), repeats=2),
            SweepSpec(kind="stencil", chips=("M1",), impl_keys=("stencil-blocked",), sizes=(256,), repeats=2),
            SweepSpec(kind="batched-gemm", chips=("M1",), impl_keys=("gpu-batched",), sizes=(32,), repeats=2),
        ]
        assert {s.kind for s in sweeps} == set(workload_kinds())
        specs = [spec for sweep in sweeps for spec in sweep.expand()]
        per_cell = ShardedBackend(max_workers=2, shard_size=1)
        assert batch_json(specs, backend=per_cell) == batch_json(
            specs, backend="serial"
        )

    def test_results_in_input_order_for_sharded_per_cell(self):
        specs = list(
            SweepSpec(
                kind="gemm",
                chips=("M1", "M4"),
                impl_keys=("gpu-mps",),
                sizes=(256, 512),
            ).expand()
        )
        envs = model_session().run_batch(
            specs, backend=ShardedBackend(max_workers=2, shard_size=1)
        )
        assert [e.spec for e in envs] == specs


class TestShardedBackendCaching:
    def test_populates_parent_cache(self):
        session = model_session()
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        session.run_batch([spec], backend="sharded")
        assert session.cache_info()["in_memory"] == 1
        again = session.run_batch([spec], backend="sharded")
        assert session.cache_info()["hits"] == 1
        assert again[0] is session.run_batch([spec], backend="serial")[0]

    def test_disk_cache_shared_with_serial(self, tmp_path):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        first = model_session(cache_dir=tmp_path).run_batch(
            [spec], backend="sharded"
        )[0]
        revived = model_session(cache_dir=tmp_path)
        second = revived.run_batch([spec], backend="serial")[0]
        assert second.to_json() == first.to_json()
        assert revived.cache_info()["misses"] == 0

    def test_uncached_miss_counters_match_serial(self):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        counts = {}
        for backend in ("serial", "sharded"):
            session = model_session()
            session.run_batch([spec], backend=backend, use_cache=False)
            counts[backend] = session.cache_info()["misses"]
        assert counts["sharded"] == counts["serial"] == 1

    def test_machine_factory_rejected(self):
        def factory(chip, seed, numerics):
            return Machine.for_chip("M1", seed=seed, numerics=numerics)

        session = Session(numerics="model-only", machine_factory=factory)
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        with pytest.raises(ConfigurationError, match="machine_factory"):
            session.run_batch([spec], backend="sharded")


class TestBackendResolution:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("serial", "vectorized", "sharded")

    def test_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        # serial whatever the worker count: max_workers only sizes sharded
        assert isinstance(resolve_backend(None, 1), SerialBackend)
        assert isinstance(resolve_backend(None, 4), SerialBackend)

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial", 4), SerialBackend)
        assert isinstance(resolve_backend("vectorized", 4), VectorizedBackend)
        sharded = resolve_backend("sharded", 4)
        assert isinstance(sharded, ShardedBackend)
        assert sharded.max_workers == 4

    def test_instance_passes_through(self):
        backend = ShardedBackend(2)
        assert resolve_backend(backend, 8) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            resolve_backend("fibers", 4)

    def test_unknown_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "shardd")
        with pytest.raises(ConfigurationError, match=r"\$REPRO_BACKEND"):
            resolve_backend(None, 4)

    @pytest.mark.parametrize("removed", ["threads", "processes"])
    def test_removed_backend_names_are_unknown(self, removed, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", removed)
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend(None, 4)
        assert "known: serial, vectorized, sharded" in str(excinfo.value)
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=64)
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            model_session().run_batch([spec])

    def test_unknown_env_value_rejected_for_machine_factory(self, monkeypatch):
        # the machine_factory degrade applies to known names only
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        session = Session(
            numerics="model-only",
            machine_factory=lambda chip, seed, numerics: Machine.for_chip(
                "M1", seed=seed, numerics=numerics
            ),
        )
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            resolve_backend(None, 4, session=session)

    @pytest.mark.parametrize("removed", ["threads", "processes"])
    def test_removed_backend_names_are_unknown_as_session_default(
        self, removed, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=64)
        with pytest.raises(ConfigurationError) as excinfo:
            model_session(backend=removed).run_batch([spec])
        assert f"unknown execution backend {removed!r}" in str(excinfo.value)
        assert "$REPRO_BACKEND" not in str(excinfo.value)

    def test_env_sharded_pool_sized_by_max_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        for workers in (1, 3):
            resolved = resolve_backend(None, workers)
            assert isinstance(resolved, ShardedBackend)
            assert resolved.max_workers == workers

    def test_env_var_is_soft_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        assert isinstance(resolve_backend(None, 1), ShardedBackend)
        # explicit argument wins over the environment
        assert isinstance(resolve_backend("serial", 4), SerialBackend)

    def test_env_sharded_degrades_for_machine_factory(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        session = Session(
            numerics="model-only",
            machine_factory=lambda chip, seed, numerics: Machine.for_chip(
                "M1", seed=seed, numerics=numerics
            ),
        )
        resolved = resolve_backend(None, 4, session=session)
        assert isinstance(resolved, SerialBackend)
        # ...and the batch actually executes instead of raising
        env = session.run_batch(
            [GemmSpec(chip="M1", impl_key="gpu-mps", n=256)]
        )[0]
        assert env.result.best_gflops > 0

    def test_env_var_drives_run_batch(self, monkeypatch):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = model_session().run_batch([spec])[0].to_json()
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        assert model_session().run_batch([spec])[0].to_json() == reference

    def test_session_level_backend_default(self):
        session = model_session(backend="serial")
        spec = StreamSpec(chip="M1", target="gpu", n_elements=1 << 14, repeats=2)
        envs = session.run_batch([spec], max_workers=8)
        assert len(envs) == 1

    def test_bad_worker_count_still_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend(0)
        with pytest.raises(ConfigurationError):
            model_session().run_batch([], max_workers=0)


class FlakyBackend(SerialBackend):
    """Reports ``error`` for the first cell of every round up to attempt
    ``flaky_attempts`` and runs everything else serially; records the
    ``(attempt, cell count)`` of each round it is driven through."""

    name = "flaky"

    def __init__(self, error: type[Exception], flaky_attempts: int) -> None:
        self.error = error
        self.flaky_attempts = flaky_attempts
        self.rounds: list[tuple[int, int]] = []

    def run(self, session, specs, finish, *, fail=None, attempt=1, **kwargs):
        self.rounds.append((attempt, len(specs)))
        for index, spec in enumerate(specs):
            if index == 0 and attempt <= self.flaky_attempts:
                fail(index, self.error(f"injected at attempt {attempt}"), spec)
            else:
                finish(index, session.run(spec, attempt=attempt))


class TestCustomBackendContract:
    """A custom backend is driven through the one keyword contract of
    ``ExecutionBackend.run`` and gets the full retry ladder."""

    SPECS = [GemmSpec(chip="M1", impl_key="gpu-mps", n=n) for n in (256, 512)]
    FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.001)

    def test_receives_every_contract_keyword(self):
        seen = []

        class Recording(SerialBackend):
            def run(self, session, specs, finish, **kwargs):
                seen.append(kwargs)
                super().run(session, specs, finish, **kwargs)

        session = model_session()
        session.run_batch(
            self.SPECS, backend=Recording(), retry=RetryPolicy(cell_timeout=2.0)
        )
        (kwargs,) = seen
        assert set(kwargs) == {
            "use_cache",
            "fail",
            "attempt",
            "cell_timeout",
            "health",
        }
        assert callable(kwargs["fail"])
        assert kwargs["attempt"] == 1
        assert kwargs["cell_timeout"] == 2.0
        assert kwargs["health"] is session.last_health

    def test_pre_contract_signature_fails_loudly(self):
        class PreContract(SerialBackend):
            def run(self, session, specs, finish, *, use_cache=True):
                raise AssertionError("must not be driven")

        with pytest.raises(TypeError, match="unexpected keyword argument"):
            model_session().run_batch(self.SPECS, backend=PreContract())

    def test_transient_failure_is_retried_on_the_backend(self):
        backend = FlakyBackend(TransientError, flaky_attempts=1)
        session = model_session()
        envs = session.run_batch(self.SPECS, backend=backend, retry=self.FAST_RETRY)
        assert [e.to_json() for e in envs] == batch_json(self.SPECS)
        assert backend.rounds == [(1, 2), (2, 1)]
        health = session.last_health
        assert health.ok
        assert (health.retries, health.fallbacks) == (1, 0)
        # the one backoff before the retry round is the wall clock lost
        assert health.wall_clock_lost_s == pytest.approx(self.FAST_RETRY.delay(1))
        assert health.wall_clock_lost_s > 0

    def test_persistent_crash_falls_back_in_process(self):
        backend = FlakyBackend(WorkerCrashError, flaky_attempts=99)
        session = model_session()
        envs = session.run_batch(self.SPECS, backend=backend, retry=self.FAST_RETRY)
        assert [e.to_json() for e in envs] == batch_json(self.SPECS)
        # the last rung runs on the serial reference, not the custom backend
        assert backend.rounds == [(1, 2), (2, 1)]
        health = session.last_health
        assert health.ok
        assert (health.retries, health.fallbacks, health.crashes) == (1, 1, 2)

    def test_hard_failure_is_terminal_without_retry(self):
        backend = FlakyBackend(SimulationError, flaky_attempts=99)
        session = model_session()
        envs = session.run_batch(
            self.SPECS, backend=backend, retry=self.FAST_RETRY, on_error="collect"
        )
        assert envs[0] is None
        assert envs[1].to_json() == batch_json(self.SPECS[1:])[0]
        assert backend.rounds == [(1, 2)]
        health = session.last_health
        assert (health.retries, health.fallbacks) == (0, 0)
        assert health.wall_clock_lost_s == 0
        (failure,) = health.failures
        assert failure.spec_hash == self.SPECS[0].spec_hash()
