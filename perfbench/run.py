#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload mixed-sharded --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --all                 # every workload, as a table
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer host time, counts and bytes,
plus the tracing overhead (traced minus untraced wall).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Any failed correctness check prints ``"correct": false``
and exits 1.  All timings are host time; every timed figure is a median
over many short trials within the run (see ``NOTES.md``).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before NumPy loads (children inherit it).
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Iterator  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, metrics  # noqa: E402
from perfbench.tracer import Tracer, diff, installed  # noqa: E402

PROBE = ROOT / "perfbench" / "probe.py"
WORK_ROOT = ROOT / ".perfbench_work"

#: Fresh-interpreter set-up probes per run.
SETUP_LAUNCHES = 16
#: Cold paper fits per run, each in a fresh interpreter (about 2 s each).
FITS = 10
#: Warm re-runs and queries per round, after its one cold run.  Both only
#: read the completed store, and each takes a tenth of a second or less, so
#: repeating them gives their medians more samples at little cost.
REPEATS = 2
#: Fewest timed rounds (cold, warm, query) a run makes, however slow.
MIN_ROUNDS = 5
#: The traced run's untraced/traced round pairs, at least.
MIN_TRACED_PAIRS = 3
#: Traced cold fits per traced run; the median one is reported.
TRACED_FITS = 3
#: A probe that takes longer than this has hung.
PROBE_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# Fresh-interpreter probes
# ---------------------------------------------------------------------------
def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _probe(*args: str) -> str:
    """Run ``probe.py`` with ``args`` in a fresh interpreter; its last line."""
    out = subprocess.run(
        [sys.executable, str(PROBE), *args],
        check=True,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    ).stdout
    return out.strip().splitlines()[-1]


def probe_setup(name: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to its first batch done.

    The probe prints the clock when its batch is done.  Timing the whole
    subprocess instead would add interpreter teardown, and
    ``subprocess.run(timeout=...)`` polls for the exit in steps of up to
    50 ms, which rounded every launch to that grain.
    """
    start = perf_counter()
    return float(_probe("setup", name, str(seed))) - start


def probe_calibrate(trace: bool = False) -> dict:
    """One cold paper fit in a fresh interpreter (see ``probe.py``)."""
    return json.loads(_probe("calibrate", *(["--trace"] if trace else [])))


def probe_paper_error(seed: int) -> float:
    """``paper_error_pct`` of ``seed``, computed in a fresh interpreter so
    its 16 paper studies leave no trace in this process's peak memory."""
    return float(_probe("paper-error", str(seed)))


# ---------------------------------------------------------------------------
# Rounds: cold, warm and query on one fresh store
# ---------------------------------------------------------------------------
def store_bytes(directory: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class Round:
    """One round's phase walls, cells, health, envelope JSON and spans."""

    def __init__(self, tracer: Any = None) -> None:
        #: ``phase -> wall time of each of its runs``
        self.walls: dict[str, list[float]] = {}
        self.cells = 0
        self.failed = 0
        self.retried = 0
        self.cold_texts: list[str] | None = None
        self.specs: list = []
        #: ``layer -> [s, n, bytes]`` spans recorded inside the timed phases
        self.layers: dict[str, list] = {}
        self._tracer = tracer

    @property
    def wall(self) -> float:
        return sum(sum(walls) for walls in self.walls.values())

    @contextlib.contextmanager
    def timed(self, phase: str) -> Iterator[None]:
        """Time one phase from a clean slate; keep the spans it recorded.

        Before the clock starts, garbage is collected and dirty file-system
        state is written back.  Without the sync, earlier trials' journal
        work lands in later ones: on a 2-vCPU x86-64 VM's ext4 disk,
        back-to-back batches of 600 envelope-sized files slowed from 2,900
        to 1,600 files/s, and with a sync before each batch they held at
        about 2,500.
        """
        gc.collect()
        os.sync()
        before = self._tracer.snapshot() if self._tracer else None
        start = perf_counter()
        yield
        self.walls.setdefault(phase, []).append(perf_counter() - start)
        if self._tracer:
            add_layers(self.layers, diff(self._tracer.snapshot(), before))

    def count(self, what: str, health: Any) -> None:
        checks.no_failures(what, len(health.failures))
        self.failed += len(health.failures)
        self.retried += health.retries + health.fallbacks


def add_layers(into: dict[str, list], layers: dict[str, Any]) -> None:
    for layer, (s, n, b) in layers.items():
        entry = into.setdefault(layer, [0.0, 0, 0])
        entry[0] += s
        entry[1] += n
        entry[2] += b


def run_round(
    workload: Any, directory: pathlib.Path, *, verify: bool, tracer: Any = None
) -> Round:
    """Time the cold phase on a fresh store, then :data:`REPEATS` warm and
    query phases over it; check every output.

    With ``verify`` the round also keeps the cold envelopes' JSON and runs
    the byte-identity checks (warm resume, workload extras).  Checks run
    outside the timed regions, and spans recorded during them are dropped.
    """
    out = Round(tracer)
    with out.timed("cold"):
        specs, cold, health = workload.cold(str(directory))
    out.specs = specs
    out.cells = len(specs)
    checks.all_cells(f"{workload.name} cold", cold, len(specs))
    out.count(f"{workload.name} cold", health)
    if verify:
        out.cold_texts = checks.texts(cold)
        workload.verify_cold(specs, out.cold_texts)
    del cold

    for _ in range(REPEATS):
        with out.timed("warm"):
            warm, health = workload.persist(specs, str(directory))
        checks.all_cells(f"{workload.name} warm", warm, len(specs))
        out.count(f"{workload.name} warm", health)
        if verify:
            checks.identical(
                f"{workload.name} warm resume vs cold",
                checks.texts(warm),
                out.cold_texts,
            )
        del warm

        with out.timed("query"):
            answer = workload.query_store(str(directory))
        workload.check_query(answer, len(specs))
    return out


# ---------------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ---------------------------------------------------------------------------
def measure(workload: Any, work: pathlib.Path, seconds: float) -> tuple[dict, int]:
    """The end-to-end metrics and the number of operations attempted."""
    samples: dict[str, list[float]] = collections.defaultdict(list)
    values: dict[str, float] = {"paper_error_pct": probe_paper_error(workload.seed)}
    # warm templates and lazy init before the steady-state trials
    run_round(workload, work / "warmup", verify=False)
    shutil.rmtree(work / "warmup")

    attempted = 0
    rounds = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        # cold-start costs, spread evenly through the run
        if len(samples["setup_s"]) < SETUP_LAUNCHES and elapsed >= (
            seconds * len(samples["setup_s"]) / SETUP_LAUNCHES
        ):
            samples["setup_s"].append(probe_setup(workload.name, workload.seed))
            attempted += 1
            continue
        if len(samples["calibrate_s"]) < FITS and elapsed >= (
            seconds * len(samples["calibrate_s"]) / FITS
        ):
            fit = probe_calibrate()
            checks.paper_mape(fit["mape_pct"])
            samples["calibrate_s"].append(fit["fit_s"])
            samples["paper_mape_pct"].append(fit["mape_pct"])
            attempted += 1
            continue
        if elapsed >= seconds and rounds >= MIN_ROUNDS:
            break
        directory = work / f"round{rounds}"
        result = run_round(workload, directory, verify=rounds == 0)
        if rounds == 0:
            values["store_bytes_per_cell"] = store_bytes(directory) / result.cells
        shutil.rmtree(directory)
        samples["cells_per_s"] += [result.cells / w for w in result.walls["cold"]]
        samples["warm_cells_per_s"] += [result.cells / w for w in result.walls["warm"]]
        samples["query_s"] += result.walls["query"]
        attempted += (1 + 2 * REPEATS) * result.cells
        rounds += 1
    print(
        f"{workload.name}: {rounds} rounds, {len(samples['setup_s'])} set-up "
        f"launches, {len(samples['calibrate_s'])} cold fits in "
        f"{perf_counter() - start:.1f}s",
        file=sys.stderr,
    )
    for name, trial_values in samples.items():
        values[name] = metrics.median(trial_values)
        if len(trial_values) > 1:
            print(
                f"  {name}: median {values[name]:.6g} over {len(trial_values)} "
                f"trials, spread {metrics.spread(trial_values):.3f}",
                file=sys.stderr,
            )
    # this process only: the sharded backend's worker process is not counted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, attempted


# ---------------------------------------------------------------------------
# The traced run: per-layer metrics
# ---------------------------------------------------------------------------
def _median_index(walls: list[float]) -> int:
    """Index of the median trial (the lower middle one when even)."""
    order = sorted(range(len(walls)), key=walls.__getitem__)
    return order[(len(order) - 1) // 2]


def measure_traced(
    workload: Any, work: pathlib.Path, seconds: float
) -> tuple[dict, int]:
    """Alternate untraced and traced rounds; report the median traced round.

    The layer totals reported are those of the traced round (and traced
    cold fit, on the workload whose product the fit is) whose wall time is
    the median, so their spans plus ``unattributed.s`` add up exactly to
    ``traced_wall.s``.
    """
    run_round(workload, work / "warmup", verify=False)
    shutil.rmtree(work / "warmup")

    tracer = Tracer()
    plain_walls: list[float] = []
    traced: list[Round] = []
    attempted = retried = failed = 0
    reference: Round | None = None
    start = perf_counter()
    pairs = 0
    while pairs < MIN_TRACED_PAIRS or perf_counter() - start < seconds / 2:
        plain = run_round(workload, work / "plain", verify=pairs == 0)
        shutil.rmtree(work / "plain")
        plain_walls.append(plain.wall)
        with installed(tracer):
            traced_round = run_round(
                workload, work / "traced", verify=pairs == 0, tracer=tracer
            )
        shutil.rmtree(work / "traced")
        traced.append(traced_round)
        if pairs == 0:
            checks.identical(
                f"{workload.name} traced vs untraced",
                traced_round.cold_texts,
                plain.cold_texts,
            )
            reference = plain
        for r in (plain, traced_round):
            attempted += (1 + 2 * REPEATS) * r.cells
            retried += r.retried
            failed += r.failed
        pairs += 1

    median_round = traced[_median_index([r.wall for r in traced])]
    totals: dict[str, list] = {}
    add_layers(totals, median_round.layers)
    traced_wall = median_round.wall
    # traced and untraced rounds alternate, so the median paired
    # difference cancels the host's slow drift
    overhead = metrics.median(
        [r.wall - plain for r, plain in zip(traced, plain_walls)]
    )
    overhead_pct = 100.0 * overhead / metrics.median(plain_walls)

    # the pipeline a shard takes through a worker, replayed in this process
    replay = getattr(workload, "replay", None)
    if replay is not None:
        before = tracer.snapshot()
        with installed(tracer):
            begin = perf_counter()
            texts = replay(reference.specs)
            replay_wall = perf_counter() - begin
        checks.identical(
            f"{workload.name} replayed worker pipeline vs sharded run",
            texts,
            reference.cold_texts,
        )
        add_layers(totals, diff(tracer.snapshot(), before))
        traced_wall += replay_wall

    # traced cold fits, each in a fresh interpreter
    if workload.traces_fit:
        fits = []
        for _ in range(TRACED_FITS):
            fit = probe_calibrate(trace=True)
            checks.paper_mape(fit["mape_pct"])
            fits.append(fit)
            attempted += 1
        fit = fits[_median_index([f["fit_s"] for f in fits])]
        add_layers(totals, fit["layers"])
        traced_wall += fit["fit_s"]

    values: dict[str, float] = {}
    for layer in metrics.LAYERS:
        s, n, b = totals.get(layer, (0.0, 0, 0))
        values[f"{layer}.s"] = s
        values[f"{layer}.n"] = n
        if layer in metrics.BYTE_LAYERS:
            values[f"{layer}.bytes"] = b
    values["retry.n"] = retried
    values["failed.n"] = failed
    values["traced_wall.s"] = traced_wall
    values["unattributed.s"] = traced_wall - sum(e[0] for e in totals.values())
    values["overhead.s"] = overhead
    values["overhead.pct"] = overhead_pct
    print(
        f"{workload.name}: {pairs} untraced/traced round pairs, "
        f"{TRACED_FITS if workload.traces_fit else 0} traced fits in "
        f"{perf_counter() - start:.1f}s; "
        f"tracing overhead {overhead_pct:.1f}% of an untraced round",
        file=sys.stderr,
    )
    return values, attempted


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro source tree under {ROOT / 'src'}; run the "
            f"benchmark from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            values, attempted = measure_traced(workload, work, seconds)
        else:
            values, attempted = measure(workload, work, seconds)
    except checks.CheckFailed as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    print(
        metrics.result_line(
            correct=True, attempted=attempted, failed=0, values=values, trace=trace
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one table of metrics with units."""
    status = 0
    for name in metrics.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        print(f"{name}: correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:24s} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=metrics.RUN_SECONDS,
        help="how long the run measures",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--all", action="store_true", help="run every workload, print a table"
    )
    parser.add_argument(
        "--write-spec", action="store_true",
        help="write BENCHMARK.json (the metric definitions) to the current directory",
    )
    args = parser.parse_args(argv)
    if args.write_spec:
        pathlib.Path("BENCHMARK.json").write_text(metrics.spec_text())
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("--workload is required (or --all / --write-spec)")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
