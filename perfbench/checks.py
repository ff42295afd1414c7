"""Correctness checks: a run whose outputs are wrong reports no speed.

Each check raises :class:`CheckFailed` naming what went wrong; the harness
catches it, prints the result line with ``"correct": false`` and exits
non-zero.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

#: The chips every figure must show a row for.
CHIPS: tuple[str, ...] = ("M1", "M2", "M3", "M4")

#: The largest paper-fit MAPE (percent) a correct calibration reaches.
MAX_PAPER_MAPE_PCT = 1.0


class CheckFailed(Exception):
    """One correctness check did not hold."""


def all_cells(what: str, envelopes: Sequence[Any], expected: int) -> None:
    """Every grid returns all its cells (failed cells leave ``None`` holes)."""
    delivered = sum(1 for env in envelopes if env is not None)
    if delivered != expected:
        raise CheckFailed(f"{what}: {delivered} of {expected} cells returned")


def identical(what: str, got: Sequence[str], want: Sequence[str]) -> None:
    """Two envelope JSON sequences are byte-identical, cell for cell."""
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} envelopes, expected {len(want)}")
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            raise CheckFailed(f"{what}: envelope {index} differs")


def no_failures(what: str, failures: int) -> None:
    """``failed_frac`` is 0: no cell failed for good."""
    if failures:
        raise CheckFailed(f"{what}: {failures} cells failed")


def paper_mape(mape_pct: float) -> None:
    """The cold paper fit lands inside the acceptance band."""
    if not mape_pct <= MAX_PAPER_MAPE_PCT:
        raise CheckFailed(
            f"paper fit MAPE {mape_pct:.4f}% exceeds {MAX_PAPER_MAPE_PCT}%"
        )


def figures_cover_chips(series: Mapping[str, Mapping[str, Any]]) -> None:
    """Figures 1-4 each render rows for all four chips."""
    for name in ("figure1", "figure2", "figure3", "figure4"):
        rows = series.get(name) or {}
        missing = [chip for chip in CHIPS if not rows.get(chip)]
        if missing:
            raise CheckFailed(f"{name} renders no rows for {', '.join(missing)}")


def rendered_text(name: str, text: str) -> None:
    """A rendered figure names every chip."""
    missing = [chip for chip in CHIPS if f"\n{chip}" not in text]
    if missing:
        raise CheckFailed(f"{name} text lacks {', '.join(missing)}")


def texts(envelopes: Iterable[Any]) -> list[str]:
    """The canonical JSON of each envelope, in order."""
    return [env.to_json() for env in envelopes]
