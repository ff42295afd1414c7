"""Fresh-interpreter probes: the costs a user pays on a cold start.

    python3 perfbench/probe.py setup <workload> <seed>
        import repro, build a session, run the workload's first tiny batch;
        prints ``time.perf_counter()`` when the batch is done, so the caller
        reads the time from its own launch to that point (``setup_s``).
    python3 perfbench/probe.py paper-error <seed>
        prints the seed's ``paper_error_pct`` (16 unfitted paper studies).
    python3 perfbench/probe.py calibrate [--trace]
        one cold ``run_calibration(MeasuredTrace.from_paper())``; prints a
        JSON line with the fit's host time, its MAPE and, with ``--trace``,
        the per-layer totals of the fit (``calibrate_s``).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def calibrate(trace: bool) -> dict:
    from repro.calibrate import engine
    from repro.calibrate.trace import MeasuredTrace

    from perfbench.tracer import Tracer, installed

    tracer = Tracer()
    paper = MeasuredTrace.from_paper()
    if trace:
        with installed(tracer):
            start = perf_counter()
            result = engine.run_calibration(paper)
            fit_s = perf_counter() - start
    else:
        start = perf_counter()
        result = engine.run_calibration(paper)
        fit_s = perf_counter() - start
    return {
        "fit_s": fit_s,
        "mape_pct": result.overall_mape_pct,
        "layers": tracer.snapshot(),
    }


def main(argv: list[str]) -> int:
    """Run one probe; the exit status is 0 when it completed."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if argv[:1] == ["setup"] and len(argv) == 3:
        from perfbench.workloads import WORKLOADS

        WORKLOADS[argv[1]](int(argv[2])).first_batch()
        # perf_counter reads one system-wide monotonic clock on Linux and
        # macOS, so the caller can subtract its own launch time from it
        print(repr(perf_counter()))
        return 0
    if argv[:1] == ["paper-error"] and len(argv) == 2:
        from perfbench.workloads import paper_error_for_seed

        print(repr(paper_error_for_seed(int(argv[1]))))
        return 0
    if argv[:1] == ["calibrate"] and argv[1:] in ([], ["--trace"]):
        print(json.dumps(calibrate(trace=argv[1:] == ["--trace"])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    status = main(sys.argv[1:])
    sys.stdout.flush()
    # skip interpreter teardown: the probe's work is done, and freeing its
    # heap only adds noise to the caller's timing
    os._exit(status)
