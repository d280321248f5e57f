"""The §5 robustness attacks and their harness.

Five attack classes — man-in-the-middle, reflection, interleaving,
replay, timeliness — each runnable against the fully defended protocol
and against a target missing the defence the paper credits for
stopping it.
"""

from . import base, harness, interleaving, mitm, naive, reflection, replay, timeliness
from .base import Attack, AttackResult
from .harness import run_gauntlet, tpnr_defense_holds
from .interleaving import InterleavingAttack, SpliceAdversary
from .mitm import MitmAttack
from .naive import NaiveChallengeResponse, NaiveReceiptService
from .reflection import ReflectionAttack, ReflectorAdversary
from .replay import RecordAndReplayAdversary, ReplayAttack
from .timeliness import DelayAdversary, TimelinessAttack

__all__ = [
    "base",
    "harness",
    "interleaving",
    "mitm",
    "naive",
    "reflection",
    "replay",
    "timeliness",
    "Attack",
    "AttackResult",
    "run_gauntlet",
    "tpnr_defense_holds",
    "InterleavingAttack",
    "SpliceAdversary",
    "MitmAttack",
    "NaiveChallengeResponse",
    "NaiveReceiptService",
    "ReflectionAttack",
    "ReflectorAdversary",
    "RecordAndReplayAdversary",
    "ReplayAttack",
    "DelayAdversary",
    "TimelinessAttack",
]
