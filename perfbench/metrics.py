"""Metric and workload definitions — the single source of ``BENCHMARK.json``.

``python3 perfbench/run.py --write-spec`` regenerates ``BENCHMARK.json``
from the tables below, and the harness tests check the committed file
against them, so names, units and bounds live in one place.
"""

from __future__ import annotations

import json
import re
import statistics
from typing import Iterable, Sequence

#: Names of metrics and workloads: a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``, at most 64 characters in all.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: at most 16 letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 60

WORKLOADS: dict[str, str] = {
    "mixed-sharded": (
        "distinct light spmv/stencil/batched-gemm cells on sharded with one "
        "worker: fixed per-cell costs and transport dominate, noise work is minor"
    ),
    "paper-calibrate": (
        "full-protocol paper study over several seeds, Figures 1-4 from the "
        "store and a cold paper fit: gemm/stream lowering, scalar fallbacks, accuracy"
    ),
}

#: ``(name, unit, better, bound)``; every run with ``--trace 0`` reports all.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("cells_per_s", "cells/s", "higher", 0.25),
    ("warm_cells_per_s", "cells/s", "higher", 0.25),
    ("query_s", "s", "lower", 0.25),
    ("calibrate_s", "s", "lower", 0.25),
    ("paper_mape_pct", "%", "lower", 0.25),
    ("paper_error_pct", "%", "lower", 0.2),
    ("store_bytes_per_cell", "bytes", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Layers timed by the traced run, in pipeline order.  Each reports
#: ``<layer>.s`` (host self time) and ``<layer>.n`` (calls, cells or
#: repetitions); the layers that move data also report ``<layer>.bytes``.
LAYERS: tuple[str, ...] = (
    "expand",
    "cache_key",
    "cache_lookup",
    "lower",
    "evaluate",
    "execute_scalar",
    "envelope",
    "serialize",
    "store_write",
    "manifest",
    "store_read",
    "transport",
    "worker_wait",
    "frame",
    "render",
    "calibrate",
)
BYTE_LAYERS: tuple[str, ...] = (
    "serialize",
    "store_write",
    "manifest",
    "store_read",
    "transport",
)

#: Per-run totals the traced run adds to the layer metrics.
TRACE_TOTALS: tuple[tuple[str, str], ...] = (
    ("retry.n", "count"),
    ("failed.n", "count"),
    ("traced_wall.s", "s"),
    ("unattributed.s", "s"),
    ("overhead.s", "s"),
    ("overhead.pct", "%"),
)


def per_layer() -> list[tuple[str, str]]:
    """Every ``(name, unit)`` a ``--trace 1`` run reports."""
    out: list[tuple[str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.s", "s"))
        out.append((f"{layer}.n", "count"))
        if layer in BYTE_LAYERS:
            out.append((f"{layer}.bytes", "bytes"))
    out.extend(TRACE_TOTALS)
    return out


def units(trace: bool) -> dict[str, str]:
    """``{metric name: unit}`` of one kind of run."""
    if trace:
        return dict(per_layer())
    return {name: unit for name, unit, _, _ in END_TO_END}


def benchmark_spec() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in per_layer()
        ],
    }


def spec_text() -> str:
    return json.dumps(benchmark_spec(), indent=2) + "\n"


def median(values: Iterable[float]) -> float:
    """The median of a non-empty sample (the mean of the middle two when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    return statistics.median(ordered)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median, as the acceptance rule
    computes it (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def result_line(
    *, correct: bool, attempted: int, failed: int, values: dict[str, float],
    trace: bool,
) -> str:
    """The run's final stdout line: every metric of its kind, with its unit."""
    unit_of = units(trace)
    missing = sorted(set(unit_of) - set(values))
    if missing:
        raise KeyError(f"metrics never measured: {', '.join(missing)}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in unit_of.items()
            },
        }
    )
