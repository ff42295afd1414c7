#!/usr/bin/env python3
"""Figures 3 and 4 end to end: the power and efficiency study.

For every chip and implementation, runs the GEMM with the piggybacked
powermetrics protocol (section 3.3) as one declarative batch of
:class:`repro.PoweredGemmSpec` cells and reports mean combined CPU+GPU draw
and GFLOPS-per-watt, then situates the results against the literature
points the paper quotes (Green500 #1, A100, RTX 4090).

Usage::

    python examples/power_efficiency_study.py [n]   (default 16384)
"""

import sys

import repro
from repro.analysis.reference_systems import REFERENCE_SYSTEMS
from repro.calibration.gemm import gemm_calibration


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16384

    session = repro.Session(numerics="model-only")
    keys = repro.implementation_keys(include_extensions=False)
    specs = []
    for chip in repro.paper.CHIPS:
        for key in keys:
            supported = gemm_calibration(repro.get_chip(chip), key).supports(n)
            size = n if supported else repro.paper.CPU_LOOP_MAX_N
            specs.append(repro.PoweredGemmSpec(chip=chip, impl_key=key, n=size))
    envelopes = session.run_batch(specs)
    by_cell = {(e.spec.chip, e.spec.impl_key): e.result for e in envelopes}

    print(f"{'chip':5s} {'impl':16s} {'GFLOPS':>10s} {'power':>9s} {'GFLOPS/W':>10s}")
    print("-" * 55)
    best_efficiency = {}
    for chip in repro.paper.CHIPS:
        for key in keys:
            powered = by_cell[(chip, key)]
            eff = powered.efficiency_gflops_per_w
            best_efficiency[chip] = max(best_efficiency.get(chip, 0.0), eff)
            print(
                f"{chip:5s} {key:16s} {powered.gemm.best_gflops:10.1f} "
                f"{powered.mean_combined_w:8.2f}W {eff:10.1f}"
            )
        print()

    print("Perspective (the paper's caveated comparisons):")
    for ref in REFERENCE_SYSTEMS:
        if ref.metric != "efficiency":
            continue
        print(f"  {ref.name:24s} {ref.value:8.0f} GFLOPS/W  [{ref.caveat}]")
    for chip, eff in best_efficiency.items():
        print(f"  {chip} (best, simulated)     {eff:8.0f} GFLOPS/W")


if __name__ == "__main__":
    main()
