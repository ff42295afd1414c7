#!/usr/bin/env python
"""Regenerate the golden envelope digests in ``tests/golden/backends.json``.

For every registered workload, the default :class:`SweepSpec` over the four
paper chips is run model-only at seed 0 on the ``serial`` reference backend.
Each envelope is serialized as canonical JSON (``ResultEnvelope.to_json``:
sorted keys, fixed indent); the workload's digest is the sha256 of those
texts joined by newlines, in grid order.  ``tests/golden`` asserts the same
digests under every execution backend, so a refactor that shifts all
backends together still shows up as a digest diff.

Run this only for an intended change to output bytes, and commit the new
file together with a note in CHANGES.md::

    PYTHONPATH=src python scripts/regen_golden.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests"
    / "golden"
    / "backends.json"
)

CHIPS = ("M1", "M2", "M3", "M4")
NUMERICS = "model-only"
SEED = 0


def golden_sweeps() -> dict:
    """``{kind: SweepSpec}`` — each workload's default grid over the chips."""
    from repro.experiments import SweepSpec
    from repro.workloads import workload_kinds

    return {kind: SweepSpec(kind=kind, chips=CHIPS) for kind in workload_kinds()}


def envelope_digest(envelopes) -> str:
    """sha256 of the envelopes' canonical JSON, newline-joined in order."""
    digest = hashlib.sha256()
    for index, envelope in enumerate(envelopes):
        if index:
            digest.update(b"\n")
        digest.update(envelope.to_json().encode("utf-8"))
    return digest.hexdigest()


def compute_digests(backend="serial") -> dict[str, dict]:
    """``{kind: {"cells": n, "sha256": hex}}`` under one execution backend."""
    from repro.experiments import Session

    out: dict[str, dict] = {}
    for kind, sweep in golden_sweeps().items():
        session = Session(numerics=NUMERICS, seed=SEED)
        envelopes = session.run_batch(sweep.expand(), backend=backend)
        out[kind] = {
            "cells": len(envelopes),
            "sha256": envelope_digest(envelopes),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=GOLDEN_PATH,
        help="where to write the digests (default: tests/golden/backends.json)",
    )
    args = parser.parse_args(argv)
    document = {
        "chips": list(CHIPS),
        "numerics": NUMERICS,
        "seed": SEED,
        "workloads": compute_digests("serial"),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(document['workloads'])} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
