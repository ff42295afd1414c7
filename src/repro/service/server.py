"""The experiment service: HTTP submissions over one shared result cache.

``repro serve --store DIR`` starts a long-running, stdlib-only
(:class:`~http.server.ThreadingHTTPServer` + ``json``) service that turns N
identical grid submissions into one execution plus N cache hits.  The
pieces:

* a :class:`~repro.service.jobs.JobRegistry` deduplicating in-flight
  submissions by grid hash and persisting job records under the store;
* a :class:`~repro.service.store.SharedStore` — the content-addressed cell
  cache (spec hash = identity) every job executes into, with manifest
  journaling for crash resume;
* a small worker pool draining a queue of jobs through the one
  :class:`~repro.experiments.session.Session` and whatever execution
  backend the server was started with (``--backend vectorized`` being the
  fast default for pure-model grids);
* a query surface over the warm store: envelopes by grid, frame queries
  (filter / pivot / rows / CSV) run server-side, registered figures and
  tables rendered on demand.

Endpoints (all JSON unless noted):

========================  ==================================================
``GET  /healthz``         liveness + job/cell counts
``POST /studies``         submit a ``StudySpec.to_dict()`` payload
``POST /sweeps``          submit a ``SweepSpec.to_dict()`` (or cell spec)
``GET  /jobs``            every job record
``GET  /jobs/<id>``       one job record (done/total cell counts)
``GET  /jobs/<id>/events``  NDJSON progress stream (replay + follow)
``GET  /results``         every envelope in the store
``GET  /results/<ref>``   a job's (or grid hash's) envelopes, grid order
``POST /query``           filter/pivot/rows/CSV over the store, server-side
``GET  /figures/<name>``  a registered figure/table/report, text or JSON
========================  ==================================================

Every response the execution path produces is derived from envelopes that
are byte-identical across backends and across runs — the service adds
transport, never new numerics.
"""

from __future__ import annotations

import json
import pathlib
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError, ReproError
from repro.experiments.backends import ExecutionBackend
from repro.experiments.resilience import RetryPolicy, RunHealth
from repro.experiments.session import Session
from repro.experiments.store import load_envelopes
from repro.service.jobs import Job, JobRegistry, grid_specs
from repro.service.store import SharedStore
from repro.study.defs import FIGURES, TABLES, get_figure, get_table
from repro.study.frame import ResultFrame
from repro.study.report import render_efficiency_report, render_figure_text

__all__ = ["ExperimentService", "serve"]


class ExperimentService:
    """One server process: registry + shared store + worker pool + HTTP.

    Parameters
    ----------
    store_dir:
        The shared store directory (created if missing).  Everything the
        service knows — cells, manifest, job records — lives here, so
        stopping and restarting the service on the same directory resumes
        interrupted jobs and keeps the cache warm.
    session:
        The one session every job executes under (defaults to the stock
        sampled-numerics configuration).  A pre-existing store written
        under a different session fingerprint is refused at startup.
    backend / max_workers:
        Execution backend and its per-job worker-process count (``sharded``
        only), passed through to :meth:`Session.run_batch` for every job.
    job_workers:
        How many jobs execute concurrently (distinct grids only — duplicate
        submissions coalesce before they reach the queue).
    retry:
        The :class:`RetryPolicy` (or its dict form) every job executes
        under — transient cell failures retry with backoff, crashed or
        hung workers degrade to the in-process path, and only cells that
        exhaust the ladder land as failures.  ``None`` uses the session's
        policy (or the stock defaults).
    heartbeat:
        Seconds of event-stream silence between synthetic heartbeat lines
        on ``GET /jobs/<id>/events`` — followers can tell a slow run from
        a dead connection.  ``None`` disables heartbeats.
    """

    def __init__(
        self,
        store_dir: str | pathlib.Path,
        *,
        session: Session | None = None,
        backend: str | ExecutionBackend | None = None,
        max_workers: int = 1,
        job_workers: int = 2,
        retry: "RetryPolicy | Mapping[str, Any] | None" = None,
        heartbeat: float | None = 15.0,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        if job_workers < 1:
            raise ConfigurationError("job_workers must be >= 1")
        self.session = session if session is not None else Session()
        self.backend = backend
        self.max_workers = int(max_workers)
        self.retry = (
            RetryPolicy.from_dict(retry) if isinstance(retry, Mapping) else retry
        )
        self.heartbeat = heartbeat
        self.store = SharedStore(store_dir, self.session)
        self.registry = JobRegistry(store_dir)
        self.host = host
        self._requested_port = int(port)
        self.verbose = bool(verbose)
        self._queue: "queue.Queue[Job | None]" = queue.Queue()
        self._workers: list[threading.Thread] = []
        self._job_workers = int(job_workers)
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._started = False
        for job in self.registry.load():  # crash resume: finish what was queued
            self._queue.put(job)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolved once started; 0 means "pick free")."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """The service base URL clients talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Bind the HTTP server and start the worker pool (non-blocking)."""
        if self._started:
            raise ConfigurationError("service already started")
        self._started = True
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._http_thread.start()
        for index in range(self._job_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)

    def stop(self) -> None:
        """Stop accepting requests and drain the worker pool.

        In-flight jobs finish their current cell and then stop receiving
        new work; anything still queued stays ``queued`` on disk, and the
        next server over the same store picks it up — the same contract as
        a crash, minus the abruptness.
        """
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=5)
        self._workers.clear()

    def serve_forever(self) -> None:
        """Blocking convenience wrapper: start, then sleep until interrupted."""
        self.start()
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    # ------------------------------------------------------------------
    # Submission / execution
    # ------------------------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> tuple[Job, bool]:
        """Register one submission; queue it unless it coalesced."""
        grid_specs(payload)  # malformed payloads fail now, not in the worker
        job, deduped = self.registry.submit(payload)
        if not deduped:
            self._queue.put(job)
        return job, deduped

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._execute(job)
            except Exception as exc:  # noqa: BLE001 - job failure is data
                detail = f"{type(exc).__name__}: {exc}"
                self.registry.update(
                    job, status="failed", error=detail, finished=time.time()
                )
                self.registry.emit(
                    job.id, {"event": "failed", "job": job.id, "error": detail}
                )

    def _execute(self, job: Job) -> None:
        """Run one job: dedup against the store, execute misses, checkpoint.

        Execution runs under ``on_error="collect"`` with the service's
        retry policy: a cell that exhausts the ladder never aborts its
        siblings — it lands in the shared manifest as ``status=failed``
        (with its structured error payload), the job finishes as
        ``failed`` with a detail naming the failed-cell count, and every
        completed sibling stays persisted.  The per-job :class:`RunHealth`
        report rides on the job record, so ``GET /jobs/<id>`` surfaces
        retries, fallbacks and failures.
        """
        specs = grid_specs(job.payload)
        pending, hits = self.store.merge(specs)
        total = len(specs)
        self.registry.update(job, status="running", total=total, done=hits)
        self.registry.emit(
            job.id,
            {
                "event": "started",
                "job": job.id,
                "total": total,
                "cached": hits,
                "pending": len(pending),
            },
        )

        def progress(completed: int, _pending_total: int, envelope) -> None:
            self.store.record(envelope)
            self.registry.update(
                job, done=hits + completed, executed=job.executed + 1
            )
            self.registry.emit(
                job.id,
                {
                    "event": "cell",
                    "job": job.id,
                    "done": hits + completed,
                    "total": total,
                    "kind": envelope.kind,
                    "spec_hash": envelope.spec_hash,
                },
            )

        def on_failure(spec, failure) -> None:
            self.store.record_failure(spec, failure.to_dict())
            self.registry.emit(
                job.id,
                {
                    "event": "cell-failed",
                    "job": job.id,
                    "kind": failure.kind,
                    "spec_hash": failure.spec_hash,
                    "error": failure.error,
                    "message": failure.message,
                    "attempts": failure.attempts,
                },
            )

        health = RunHealth()
        if pending:
            self.session.run_batch(
                pending,
                backend=self.backend,
                max_workers=self.max_workers,
                progress=progress,
                on_error="collect",
                retry=self.retry,
                health=health,
                on_failure=on_failure,
            )
            self.store.fold_journal()
        cache_status = (
            "hit" if not pending else ("partial" if hits else "miss")
        )
        health_payload = health.to_dict() if health.eventful else None
        if health.failures:
            detail = (
                f"{len(health.failures)} of {total} cells failed after "
                f"retries: "
                + "; ".join(str(f) for f in health.failures[:3])
                + ("; ..." if len(health.failures) > 3 else "")
            )
            self.registry.update(
                job,
                status="failed",
                done=total - len(health.failures),
                cache_status=cache_status,
                error=detail,
                health=health_payload,
                finished=time.time(),
            )
            self.registry.emit(
                job.id,
                {
                    "event": "failed",
                    "job": job.id,
                    "total": total,
                    "failed": len(health.failures),
                    "error": detail,
                    "health": health.summary(),
                },
            )
            return
        self.registry.update(
            job,
            status="done",
            done=total,
            cache_status=cache_status,
            health=health_payload,
            finished=time.time(),
        )
        done_event = {
            "event": "done",
            "job": job.id,
            "total": total,
            "executed": len(pending),
            "cache_status": cache_status,
        }
        if health.eventful:
            done_event["health"] = health.summary()
        self.registry.emit(job.id, done_event)

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def frame(self, ref: str | None = None) -> ResultFrame:
        """A query frame over the warm store (or one grid's slice of it)."""
        if ref is None:
            return ResultFrame.from_envelopes(load_envelopes(self.store.root))
        job = self.registry.find(ref)
        if job is None:
            raise ConfigurationError(f"unknown job or grid {ref!r}")
        return ResultFrame.from_envelopes(
            self.store.envelopes_for(grid_specs(job.payload))
        )

    def results_payload(self, ref: str | None) -> dict[str, Any]:
        """The ``GET /results[/<ref>]`` body: envelopes + coverage counts."""
        if ref is None:
            envelopes = load_envelopes(self.store.root)
            total = len(envelopes)
        else:
            job = self.registry.find(ref)
            if job is None:
                raise ConfigurationError(f"unknown job or grid {ref!r}")
            specs = grid_specs(job.payload)
            envelopes = self.store.envelopes_for(specs)
            total = len(specs)
        return {
            "total": total,
            "available": len(envelopes),
            "envelopes": [envelope.to_dict() for envelope in envelopes],
        }

    def run_query(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """The ``POST /query`` body: a frame query executed server-side.

        ``{"where": {...}, "fields": [...], "format": "rows"|"csv"}`` for
        tidy records, or ``{"pivot": {"index": [...], "values": "...",
        "agg": ...}}`` for nested pivots; ``"grid"`` restricts the frame to
        one job's (or grid hash's) cells first.  List-valued ``where``
        entries test membership, scalars equality — the
        :meth:`ResultFrame.filter` contract over the wire.
        """
        frame = self.frame(body.get("grid"))
        where = dict(body.get("where") or {})
        # JSON has no tuples: lists arriving in `where` mean membership.
        if where:
            frame = frame.filter(**where)
        pivot = body.get("pivot")
        if pivot is not None:
            index = pivot.get("index")
            values = pivot.get("values")
            if not index or not values:
                raise ConfigurationError(
                    "query pivot needs 'index' (list of fields) and 'values'"
                )
            return {
                "rows": len(frame),
                "pivot": frame.pivot(
                    tuple(index), values=values, agg=pivot.get("agg")
                ),
            }
        fields = body.get("fields")
        if not fields:
            raise ConfigurationError(
                "query needs 'fields' (list of columns) or a 'pivot'"
            )
        if body.get("format") == "csv":
            return {"rows": len(frame), "csv": frame.to_csv(tuple(fields))}
        return {"rows": len(frame), "records": frame.to_rows(tuple(fields))}

    def render_figure(
        self,
        name: str,
        *,
        chips: Sequence[str] | None = None,
        format: str = "text",
    ) -> dict[str, Any] | str:
        """The ``GET /figures/<name>`` body: any registered view, warm.

        Tables render from the system inventory (no store needed);
        figures and the efficiency report assemble from the store's frame.
        ``format="json"`` returns the raw series for figures (JSON object
        keys become strings — sizes arrive as ``"4096"``).
        """
        if name in TABLES:
            if name == "table1" and chips:
                return get_table(name).render(tuple(chips))
            return get_table(name).render()
        if name == "efficiency":
            return render_efficiency_report(self.frame(), chips=chips)
        figure = get_figure(name)  # raises, naming the known figures
        series = figure.series(self.frame(), chips=chips)
        if format == "json":
            return {"figure": name, "series": series}
        return render_figure_text(name, series)

    def health(self) -> dict[str, Any]:
        """The ``GET /healthz`` body: liveness plus store/job summaries."""
        return {
            "status": "ok",
            "store": str(self.store.root),
            "jobs": self.registry.counts(),
            "cells": self.store.cell_counts(),
            "backend": getattr(self.backend, "name", self.backend) or "auto",
        }


# ---------------------------------------------------------------------------
# HTTP plumbing
# ---------------------------------------------------------------------------
def _make_handler(service: ExperimentService):
    """A request-handler class closed over one service instance."""

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.0 keeps responses delimited by connection close, which is
        # exactly what the unbounded NDJSON event stream needs.

        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            if service.verbose:  # pragma: no cover - log formatting only
                BaseHTTPRequestHandler.log_message(self, format, *args)

        # -- response helpers -------------------------------------------
        def _send_json(self, code: int, payload: Any) -> None:
            body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, code: int, text: str) -> None:
            body = (text.rstrip("\n") + "\n").encode()
            self.send_response(code)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_error_json(self, code: int, message: str) -> None:
            self._send_json(code, {"error": message})

        def _read_body(self) -> dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ConfigurationError("request body must be a JSON object")
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"request body is not JSON: {exc}") from exc
            if not isinstance(body, dict):
                raise ConfigurationError("request body must be a JSON object")
            return body

        # -- dispatch ----------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server contract
            try:
                self._route_get()
            except (ConfigurationError, ReproError) as exc:
                self._send_error_json(404 if "unknown" in str(exc) else 400, str(exc))
            except BrokenPipeError:  # pragma: no cover - client went away
                pass
            except Exception as exc:  # noqa: BLE001 - boundary
                self._send_error_json(500, f"internal error: {exc}")

        def do_POST(self) -> None:  # noqa: N802 - http.server contract
            try:
                self._route_post()
            except (ConfigurationError, ReproError) as exc:
                self._send_error_json(400, str(exc))
            except Exception as exc:  # noqa: BLE001 - boundary
                self._send_error_json(500, f"internal error: {exc}")

        def _route_get(self) -> None:
            split = urlsplit(self.path)
            parts = [part for part in split.path.split("/") if part]
            params = parse_qs(split.query)
            if parts == ["healthz"]:
                self._send_json(200, service.health())
            elif parts == ["jobs"]:
                self._send_json(
                    200, {"jobs": [job.to_dict() for job in service.registry.list()]}
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, service.registry.get(parts[1]).to_dict())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                self._stream_events(parts[1])
            elif parts == ["results"]:
                self._send_json(200, service.results_payload(None))
            elif len(parts) == 2 and parts[0] == "results":
                self._send_json(200, service.results_payload(parts[1]))
            elif len(parts) == 2 and parts[0] == "figures":
                chips_param = params.get("chips", [])
                chips = (
                    tuple(
                        chip
                        for value in chips_param
                        for chip in value.split(",")
                        if chip
                    )
                    or None
                )
                rendered = service.render_figure(
                    parts[1],
                    chips=chips,
                    format=params.get("format", ["text"])[0],
                )
                if isinstance(rendered, str):
                    self._send_text(200, rendered)
                else:
                    self._send_json(200, rendered)
            else:
                self._send_error_json(404, f"unknown path {split.path!r}")

        def _route_post(self) -> None:
            parts = [part for part in urlsplit(self.path).path.split("/") if part]
            if parts in (["studies"], ["sweeps"]):
                body = self._read_body()
                expected = "study" if parts == ["studies"] else None
                if expected and body.get("kind") != expected:
                    raise ConfigurationError(
                        "POST /studies expects a StudySpec payload "
                        f"(kind='study'), got kind={body.get('kind')!r}"
                    )
                job, deduped = service.submit(body)
                self._send_json(
                    202, {"job": job.to_dict(), "deduplicated": deduped}
                )
            elif parts == ["query"]:
                self._send_json(200, service.run_query(self._read_body()))
            else:
                self._send_error_json(404, f"unknown path {self.path!r}")

        def _stream_events(self, job_id: str) -> None:
            service.registry.get(job_id)  # raises on unknown ids, pre-headers
            events = service.registry.events(
                job_id, heartbeat=service.heartbeat
            )
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.end_headers()
            try:
                for event in events:
                    line = json.dumps(event, sort_keys=True) + "\n"
                    self.wfile.write(line.encode())
                    self.wfile.flush()
            except BrokenPipeError:  # pragma: no cover - client went away
                pass

    return Handler


def serve(
    store_dir: str | pathlib.Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    **kwargs: Any,
) -> ExperimentService:
    """Construct and start a service (the ``repro serve`` entry point)."""
    service = ExperimentService(store_dir, host=host, port=port, **kwargs)
    service.start()
    return service
