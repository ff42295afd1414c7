"""Shared helpers for the chaos suite (imported by every chaos test)."""

from repro.experiments import GemmSpec, Session

#: Four GEMM cells — small enough that a chaos round trip is milliseconds,
#: large enough that sibling completion is observable.
SIZES = (64, 96, 128, 160)


def grid() -> list[GemmSpec]:
    """The chaos grid (fresh spec objects per call — specs are frozen)."""
    return [GemmSpec(chip="M1", impl_key="gpu-mps", n=n) for n in SIZES]


def long_grid() -> list[GemmSpec]:
    """Twelve cells: as one-cell shards, three times the in-flight window
    of a two-worker sharded pool, so later shards are submitted only after
    an early fault has hit."""
    return [GemmSpec(chip="M1", impl_key="gpu-mps", n=n) for n in range(64, 256, 16)]


def serial_json(specs) -> list:
    """The undisturbed serial reference of ``specs`` as envelope JSON."""
    return [e.to_json() for e in model_session().run_batch(specs, backend="serial")]


def model_session(**kwargs) -> Session:
    return Session(numerics="model-only", **kwargs)
