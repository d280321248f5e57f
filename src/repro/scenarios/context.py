"""Run-identity context shared between the registry and the writers.

A :class:`RunStamp` names one concrete run of a registered scenario:
the content-addressed ``run_key`` of the spec it executed, which
repetition it was, and the seed that repetition derived (``stage`` is
always ``"experiment"``; it stays in the block so every artifact keeps
one layout).  The registry installs the active stamp in a
:class:`contextvars.ContextVar` around the runner call, and every
metadata writer — :func:`repro.analysis.experiments.run_meta`, the
profile and SLO exporters — folds the active stamp into its output.  That is
what makes *every* result file carry the same
``run_key``/``seed``/``repo_version`` block without each writer knowing
about the registry.

This module is deliberately a leaf (no repro imports) so that
``analysis.experiments`` can read the stamp without creating an import
cycle with the registry, which imports the experiment runners.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["RunStamp", "current_stamp", "stamped"]


@dataclass(frozen=True)
class RunStamp:
    """Identity of one scenario run: what spec, which derivation, which seed."""

    run_key: str
    scenario: str
    stage: str
    repetition: int
    seed: str
    seed_scheme: str

    def as_meta(self) -> dict[str, Any]:
        """The uniform run-identity block every result writer emits."""
        return {
            "run_key": self.run_key,
            "scenario": self.scenario,
            "stage": self.stage,
            "repetition": self.repetition,
            "seed": self.seed,
            "seed_scheme": self.seed_scheme,
        }


_ACTIVE: ContextVar[RunStamp | None] = ContextVar("repro.scenarios.stamp", default=None)


def current_stamp() -> RunStamp | None:
    """The stamp of the scenario run currently executing, if any."""
    return _ACTIVE.get()


@contextlib.contextmanager
def stamped(stamp: RunStamp) -> Iterator[RunStamp]:
    """Install *stamp* as the active run identity for the duration."""
    token = _ACTIVE.set(stamp)
    try:
        yield stamp
    finally:
        _ACTIVE.reset(token)
