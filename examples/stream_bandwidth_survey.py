#!/usr/bin/env python3
"""Figure 1 end to end: the STREAM bandwidth survey across all four chips.

Declares one :class:`repro.StreamSpec` per (chip, target) bar and runs the
whole figure as one batch.  The methodology underneath is the
paper's: the CPU side runs McCalpin's kernels under an OMP_NUM_THREADS
sweep from one to the physical core count (ten repetitions each, maximum
kept), the GPU side dispatches the MSL ports twenty times through
zero-copy shared buffers.

Usage::

    python examples/stream_bandwidth_survey.py [--fast]
"""

import sys

import repro


def main() -> None:
    fast = "--fast" in sys.argv
    session = repro.Session(numerics="model-only" if fast else "sampled")

    specs = [
        repro.StreamSpec(chip=chip, target=target)
        for chip in repro.paper.CHIPS
        for target in ("cpu", "gpu")
    ]
    envelopes = session.run_batch(specs)
    rows = {(e.spec.chip, e.spec.target): e.result for e in envelopes}

    header = f"{'chip':5s} {'target':6s} " + "".join(
        f"{k:>8s}" for k in ("copy", "scale", "add", "triad")
    ) + "   % of peak"
    print(header)
    print("-" * len(header))

    for chip in repro.paper.CHIPS:
        for target in ("cpu", "gpu"):
            result = rows[(chip, target)]
            cells = "".join(
                f"{result.kernels[k].max_gbs:8.1f}"
                for k in ("copy", "scale", "add", "triad")
            )
            print(
                f"{chip:5s} {target.upper():6s} {cells}   "
                f"{result.fraction_of_peak:6.1%} of "
                f"{result.theoretical_gbs:.0f} GB/s"
            )

    print(
        "\nNote the M2 CPU: Copy and Scale trail Add and Triad by 20-30 GB/s"
        " — the unexplained anomaly the paper reports in section 5.1."
    )


if __name__ == "__main__":
    main()
