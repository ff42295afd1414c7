#!/usr/bin/env python3
"""Figure 2 end to end: all six GEMM implementations across sizes and chips.

Declares the whole grid as one :class:`repro.SweepSpec` per chip and lets
the session execute it as one batch with a progress line.  Sweeps
n = 32..16384 (CPU loop implementations stop at 4096, as in the paper)
and prints the best-of-five GFLOPS per cell, reproducing the
shape of Figure 2: MPS dominates, Accelerate leads the CPU, the naive
shader beats the CUTLASS-style one, and the GPU loses below n ~ 512 to
dispatch overhead.

Usage::

    python examples/gemm_shootout.py [chip ...]   (default: all four)
"""

import sys

import repro


def main() -> None:
    chips = [a for a in sys.argv[1:] if not a.startswith("-")] or list(
        repro.paper.CHIPS
    )
    fast = "--fast" in sys.argv
    sizes = repro.paper.GEMM_SIZES
    keys = repro.implementation_keys(include_extensions=False)

    session = repro.Session(numerics="model-only" if fast else "sampled")

    for chip in chips:
        sweep = repro.SweepSpec(
            kind="gemm", chips=(chip,), impl_keys=keys, sizes=sizes
        )
        specs = sweep.expand()

        def progress(done: int, total: int, envelope) -> None:
            print(f"\r  running {done}/{total} cells", end="", file=sys.stderr)
            if done == total:
                print(file=sys.stderr)

        envelopes = session.run_batch(specs, progress=progress)
        cells = {(e.spec.impl_key, e.spec.n): e.result for e in envelopes}

        print(f"\n== {chip} — best GFLOPS over {repro.paper.GEMM_REPEATS} reps ==")
        print(f"{'impl':16s}" + "".join(f"{n:>9d}" for n in sizes))
        for key in keys:
            row = []
            for n in sizes:
                result = cells.get((key, n))
                if result is None:
                    row.append(f"{'—':>9s}")
                else:
                    row.append(f"{result.best_gflops:9.1f}")
            print(f"{key:16s}" + "".join(row))

        mps = cells[("gpu-mps", sizes[-1])]
        acc = cells[("cpu-accelerate", sizes[-1])]
        print(
            f"  -> GPU/CPU peak ratio: {mps.best_gflops / acc.best_gflops:.2f}x "
            f"({'similar' if chip == 'M1' else 'GPU ahead'}, as in section 5.2)"
        )


if __name__ == "__main__":
    main()
