"""The benchmark workloads: grids made from the seed, and their phases.

A workload builds its grid from the benchmark seed (the program only ever
sees the generated specs) and provides the three phases a round times
(``run.py`` times one cold phase, then repeats the other two):

* **cold** — expand the grid and execute it into a fresh manifest store
  through :func:`~repro.experiments.manifest.run_with_manifest`.  Persisting
  writes every envelope's JSON, so the timed region consumes every envelope
  — including the sharded backend's lazy ones
  (:meth:`ResultEnvelope.from_deferred`), whose decode a bare
  ``run_batch`` timing would skip;
* **warm** — re-run the same grid over the completed store (manifest load
  plus reading every done envelope);
* **query** — :meth:`ResultFrame.from_store` plus the workload's query.

All runs are model-only numerics: simulated GFLOPS, watts and figure
values are deterministic outputs the harness checks, never timings.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.calibrate.trace import MeasuredTrace
from repro.experiments import Session, SweepSpec, backends
from repro.experiments.backends import ShardedBackend
from repro.experiments.envelope import ResultEnvelope
from repro.experiments.manifest import run_with_manifest
from repro.experiments.resilience import RunHealth
from repro.study import report
from repro.study.defs import FIGURES, paper_study
from repro.study.frame import ResultFrame

from perfbench import checks


def model_session() -> Session:
    """A fresh session: empty cache, model-only numerics, default noise."""
    return Session(numerics="model-only")


class Workload:
    """One named workload: its grid, backend, query and set-up batch."""

    name = ""
    #: Whether the traced run adds a traced cold paper fit to the layers.
    #: Every run times the fit (``calibrate_s``), but only the workload
    #: whose product it is charges its spans, so ``lower`` and
    #: ``evaluate`` elsewhere cover the workload's own cells.
    traces_fit = False

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def build_specs(self) -> list:
        """The grid's cells; runs inside the timed cold phase."""
        raise NotImplementedError

    def backend(self) -> Any:
        return "vectorized"

    def query(self, frame: ResultFrame) -> Any:
        """The workload's query over a loaded store; runs inside the timing."""
        raise NotImplementedError

    def check_query(self, answer: Any, cells: int) -> None:
        """Raise :class:`checks.CheckFailed` when ``answer`` is wrong."""
        leaves = _count_leaves(answer)
        if leaves != cells:
            raise checks.CheckFailed(
                f"{self.name} query: {leaves} pivot leaves for {cells} cells"
            )

    def verify_cold(self, specs: Sequence[Any], cold_texts: Sequence[str]) -> None:
        """Extra checks on a cold run's envelope JSON (none by default)."""

    def first_batch(self) -> int:
        """The set-up probe's tiny first batch; returns its cell count."""
        specs = self.build_specs()[:8]
        envelopes = model_session().run_batch(specs, backend=self.backend())
        return len(envelopes)

    # -- the timed phases --------------------------------------------------
    def cold(self, directory: str) -> tuple[list, list, RunHealth]:
        """Expand the grid and persist it into a fresh store."""
        specs = self.build_specs()
        envelopes, health = self.persist(specs, directory)
        return specs, envelopes, health

    def persist(self, specs: Sequence[Any], directory: str) -> tuple[list, RunHealth]:
        """Run ``specs`` into the manifest store at ``directory`` on a fresh
        session; over a completed store this is the warm re-run."""
        health = RunHealth()
        envelopes, _ = run_with_manifest(
            model_session(),
            specs,
            directory,
            backend=self.backend(),
            on_error="collect",
            health=health,
        )
        return envelopes, health

    def query_store(self, directory: str) -> Any:
        return self.query(ResultFrame.from_store(directory))


def _count_leaves(node: Any) -> int:
    if isinstance(node, dict):
        return sum(_count_leaves(child) for child in node.values())
    return 1


class MixedSharded(Workload):
    """BENCH_PR4's mix: default spmv/stencil/batched-gemm sweeps with
    rotating seeds, so every cell is distinct, on the sharded backend."""

    name = "mixed-sharded"
    KINDS = ("spmv", "stencil", "batched-gemm")
    #: Under the backend's default shard size (4096 cells), as
    #: ``repro run --backend sharded`` uses it, so a trial is one shard.
    CELLS = 600
    IDENTITY_CELLS = 60
    #: One worker process: the parent is the bottleneck, and the pool must
    #: leave it a core (never more than nproc - 1 workers).  On a 2-vCPU
    #: VM, two workers spread 12 % in throughput against one worker's 2 %.
    WORKERS = 1

    def build_specs(self) -> list:
        specs: list = []
        grid_seed = self.seed * 1000
        while len(specs) < self.CELLS:
            for kind in self.KINDS:
                specs.extend(SweepSpec(kind=kind, seed=grid_seed).expand())
            grid_seed += 1
        return specs[: self.CELLS]

    def backend(self) -> Any:
        return ShardedBackend(self.WORKERS)

    def verify_cold(self, specs: Sequence[Any], cold_texts: Sequence[str]) -> None:
        """A subsample of the sharded run is byte-identical in process."""
        picked = range(0, len(specs), max(1, len(specs) // self.IDENTITY_CELLS))
        local = model_session().run_batch(
            [specs[i] for i in picked], backend="vectorized"
        )
        checks.identical(
            "mixed-sharded subsample vs in-process vectorized",
            checks.texts(local),
            [cold_texts[i] for i in picked],
        )

    def replay(self, specs: Sequence[Any]) -> list[str]:
        """The worker pipeline, shard by shard, run in this process.

        Each shard goes through the worker's own entry point with the
        parent's session payload, so lowering, evaluation and envelope
        construction, which the sharded run does out of sight in its
        worker, show up in this process's spans.  The entry point pickles
        its reply through ``backends.pickle``, which the tracer charges to
        ``transport``, and the reply is decoded the same way.
        """
        config = backends._session_payload(model_session())
        size = ShardedBackend.DEFAULT_SHARD_SIZE
        texts: list[str] = []
        for start in range(0, len(specs), size):
            shard = {"specs": [spec.to_dict() for spec in specs[start : start + size]]}
            _, blob = backends._execute_shard_payload(shard, config)
            texts.extend(
                ResultEnvelope.from_payload(item).to_json()
                for item in backends.pickle.loads(blob)
            )
        return texts

    def query(self, frame: ResultFrame) -> Any:
        return frame.pivot(
            ("kind", "seed", "chip", "variant", "size"), values="gflops"
        )


class PaperCalibrate(Workload):
    """The full-protocol paper study over several seeds, Figures 1-4 from
    the store; the cold paper fit runs in the calibration probe."""

    name = "paper-calibrate"
    traces_fit = True
    SEEDS = 2  # 312 cells each

    def studies(self) -> list:
        return [paper_study(seed=s) for s in paper_seeds(self.seed, self.SEEDS)]

    def build_specs(self) -> list:
        return [spec for study in self.studies() for spec in study.compile()]

    def first_batch(self) -> int:
        specs = paper_study(seed=self.seed).compile()
        one_per_kind = list({spec.kind: spec for spec in specs}.values())
        return len(model_session().run_batch(one_per_kind, backend="vectorized"))

    def query(self, frame: ResultFrame) -> Any:
        first = frame.filter(seed=paper_seeds(self.seed, 1)[0])
        series = {name: fig.series(first) for name, fig in FIGURES.items()}
        return {
            name: (data, report.render_figure_text(name, data))
            for name, data in series.items()
        }

    def check_query(self, answer: Any, cells: int) -> None:
        checks.figures_cover_chips({name: data for name, (data, _) in answer.items()})
        for name, (_, text) in answer.items():
            checks.rendered_text(name, text)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (MixedSharded, PaperCalibrate)
}


#: Paper studies averaged into ``paper_error_pct``.
PAPER_ERROR_SEEDS = 16


def paper_seeds(seed: int, count: int) -> list[int]:
    """The paper-study seeds a benchmark seed stands for."""
    return [seed * PAPER_ERROR_SEEDS + k for k in range(count)]


def paper_error_pct(envelopes: Sequence[Any]) -> float:
    """MAPE (%) of an unfitted paper study against the paper's numbers.

    Every observation of :meth:`MeasuredTrace.from_paper` is matched to the
    study cell that measures it; a missing cell fails the check.
    """
    cells = {}
    for env in envelopes:
        spec = env.spec
        variant = spec.target if spec.kind == "stream" else spec.impl_key
        size = 0 if spec.kind == "stream" else spec.n
        cells[(spec.kind, spec.chip, variant, size)] = env.result
    errors = []
    for obs in MeasuredTrace.from_paper():
        result = cells.get((obs.workload, obs.chip, obs.impl_key, obs.size))
        if result is None:
            raise checks.CheckFailed(f"paper study lacks a cell for {obs}")
        if obs.metric == "gflops":
            predicted = result.best_gflops
        elif obs.metric == "power_w":
            predicted = result.mean_combined_w
        else:
            predicted = result.max_gbs
        errors.append(abs(predicted - obs.value) / abs(obs.value))
    return 100.0 * sum(errors) / len(errors)


def paper_error_for_seed(seed: int) -> float:
    """Mean :func:`paper_error_pct` over the paper studies a seed stands for.

    One study's error moves 16 % between seeds (its noise draws); the mean
    over :data:`PAPER_ERROR_SEEDS` studies moves about 5 %.
    """
    errors = []
    for study_seed in paper_seeds(seed, PAPER_ERROR_SEEDS):
        study = paper_study(seed=study_seed)
        envelopes = model_session().run_batch(study.compile(), backend="vectorized")
        errors.append(paper_error_pct(envelopes))
    return sum(errors) / len(errors)
