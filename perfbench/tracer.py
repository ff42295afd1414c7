"""Per-layer host-time spans, recorded from outside the program.

:func:`installed` wraps the public seam of each layer (the functions the
table in ``NOTES.md`` names) for the duration of a ``with`` block and puts
the originals back afterwards; nothing under ``src/`` changes, and untraced
runs never see a wrapper.  Spans nest: each layer is charged its *self*
time — a span's duration minus the spans it contains — so the layer times
of a phase add up to at most the phase's wall time, and the rest is
reported as ``unattributed.s``.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import pickle
import types
from time import perf_counter
from typing import Any, Callable, Iterator

#: ``count(args, result)`` / ``size(args, result)`` hooks of one span.
Hook = Callable[[tuple, Any], int]


class Tracer:
    """Self-time, call counts and bytes per layer, kept in memory."""

    def __init__(self) -> None:
        #: ``layer -> [self seconds, count, bytes]``
        self.totals: dict[str, list] = {}
        self._stack: list[list] = []  # open spans: [layer, child seconds]

    def _entry(self, layer: str) -> list:
        entry = self.totals.get(layer)
        if entry is None:
            entry = self.totals[layer] = [0.0, 0, 0]
        return entry

    def span(
        self,
        layer: str,
        fn: Callable,
        *,
        count: Hook | None = None,
        size: Hook | None = None,
    ) -> Callable:
        """``fn`` wrapped so each call is charged to ``layer``."""
        stack = self._stack
        entry_for = self._entry

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = entry_for(layer)
                entry[0] += elapsed - frame[1]
            entry[1] += 1 if count is None else count(args, result)
            if size is not None:
                entry[2] += size(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def active(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open."""
        return any(frame[0] == layer for frame in self._stack)

    def bump(self, layer: str, n: int = 1) -> None:
        """Count ``n`` units of work for ``layer`` without timing anything."""
        self._entry(layer)[1] += n

    def snapshot(self) -> dict[str, tuple[float, int, int]]:
        """A copy of the totals."""
        return {layer: tuple(entry) for layer, entry in self.totals.items()}


def diff(
    after: dict[str, tuple], before: dict[str, tuple]
) -> dict[str, tuple[float, int, int]]:
    """Per-layer totals accumulated between two snapshots."""
    out = {}
    for layer, (s, n, b) in after.items():
        s0, n0, b0 = before.get(layer, (0.0, 0, 0))
        out[layer] = (s - s0, n - n0, b - b0)
    return out


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _assign(owner: Any, name: str, value: Any) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, name, value)
    else:  # frozen dataclass instances (workloads) refuse plain setattr
        object.__setattr__(owner, name, value)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer seam with ``tracer`` spans for the ``with`` body."""
    import concurrent.futures

    from repro.calibrate import engine as calibrate_engine
    from repro.experiments import backends, manifest, store
    from repro.experiments.envelope import ResultEnvelope
    from repro.experiments.manifest import RunManifest
    from repro.experiments.session import Session
    from repro.experiments.specs import SweepSpec
    from repro.sim import vectorized
    from repro.study import report
    from repro.study.defs import FigureDef
    from repro.study.frame import ResultFrame
    from repro.study.spec import StudySpec
    from repro.workloads import all_workloads

    restore: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, layer: str, **hooks: Hook) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[name]
        else:
            original = getattr(owner, name)
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(tracer.span(layer, original.__func__, **hooks))
        else:
            wrapped = tracer.span(layer, original, **hooks)
        _assign(owner, name, wrapped)
        restore.append((owner, name, original))

    def none(_args: tuple, _result: Any) -> int:
        return 0

    # expand
    patch(SweepSpec, "expand", "expand", count=lambda a, r: len(r))
    patch(StudySpec, "compile", "expand", count=lambda a, r: len(r))
    # cache key and lookup
    patch(Session, "cache_key", "cache_key")
    patch(Session, "cache_lookup", "cache_lookup")
    # lowering and scalar execution, per registered workload
    for workload in all_workloads():
        if workload.vectorized_body is not None:
            patch(workload, "vectorized_body", "lower")
        patch(workload, "execute", "execute_scalar")
    # NumPy evaluation; .n counts repetitions
    patch(
        vectorized,
        "evaluate_cells",
        "evaluate",
        count=lambda a, r: sum(cell.repeats for cell in a[0]),
    )
    patch(
        vectorized,
        "evaluate_sequences",
        "evaluate",
        count=lambda a, r: sum(len(seq.ops) for seq in a[0]),
    )
    # envelopes and their JSON
    patch(ResultEnvelope, "create", "envelope")
    patch(ResultEnvelope, "to_json", "serialize", size=lambda a, r: len(r))
    # store writes and the manifest
    text_size = lambda a, r: len(a[1])  # noqa: E731
    patch(store, "atomic_write_text", "store_write", size=text_size)
    patch(manifest, "atomic_write_text", "store_write", size=text_size)
    patch(RunManifest, "create", "manifest")
    patch(RunManifest, "checkpoint", "manifest")
    patch(RunManifest, "save", "manifest", size=lambda a, r: _file_size(r))
    # store reads
    patch(
        RunManifest,
        "load",
        "store_read",
        size=lambda a, r: _file_size(pathlib.Path(a[1]) / "manifest.json"),
    )
    patch(
        ResultEnvelope, "load", "store_read", size=lambda a, r: _file_size(a[1])
    )
    # each file a scan reads is counted by ResultEnvelope.load
    patch(store, "load_envelopes", "store_read", count=none)
    # worker transport: the parent's decode of shipped shard payloads, and
    # the time the parent spends blocked on a worker's result
    backends.pickle = types.SimpleNamespace(
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        dumps=tracer.span("transport", pickle.dumps, size=lambda a, r: len(r)),
        loads=tracer.span("transport", pickle.loads, size=lambda a, r: len(a[0])),
    )
    restore.append((backends, "pickle", pickle))
    patch(concurrent.futures.Future, "result", "worker_wait")
    # query frame and figure rendering
    patch(ResultFrame, "from_envelopes", "frame", count=none)
    patch(ResultFrame, "filter", "frame")
    patch(ResultFrame, "pivot", "frame")
    patch(FigureDef, "series", "render")
    patch(report, "render_figure_text", "render")
    # calibration: .n counts candidate chips and batches
    patch(calibrate_engine, "run_calibration", "calibrate", count=none)
    patch(calibrate_engine, "derive_calibrated_chip", "calibrate")
    run_batch = Session.__dict__["run_batch"]

    def counted_run_batch(*args: Any, **kwargs: Any) -> Any:
        if tracer.active("calibrate"):
            tracer.bump("calibrate")
        return run_batch(*args, **kwargs)

    Session.run_batch = counted_run_batch
    restore.append((Session, "run_batch", run_batch))
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(restore):
            _assign(owner, name, original)
