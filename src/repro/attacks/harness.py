"""The §5 attack gauntlet: every attack against every relevant target.

:func:`run_gauntlet` stages the five attack classes twice each — once
against the fully defended configuration and once against the matching
weakened/naive target — and returns the results.  The expected matrix
(asserted by tests, printed by the S5 benchmark):

================  ==========================  =========
attack            target                      succeeds?
================  ==========================  =========
man-in-the-middle securechannel/authenticated no
man-in-the-middle securechannel/no-cert-check YES
reflection        tpnr/full                   no
reflection        naive-challenge-response    YES
interleaving      tpnr/full                   no
interleaving      naive-receipt-service       YES
replay            tpnr/full                   no
replay            tpnr/no-seq-no-nonce        YES
timeliness        tpnr/full                   no
timeliness        tpnr/no-time-limit          YES
================  ==========================  =========
"""

from __future__ import annotations

from .base import AttackResult
from .interleaving import InterleavingAttack
from .mitm import MitmAttack
from .reflection import ReflectionAttack
from .replay import ReplayAttack
from .timeliness import TimelinessAttack

__all__ = ["run_gauntlet", "tpnr_defense_holds"]


def run_gauntlet(seed: bytes = b"gauntlet") -> list[AttackResult]:
    """Run all ten (attack, target) combinations."""
    results: list[AttackResult] = []
    results.append(MitmAttack().run(seed, verify_peer=True))
    results.append(MitmAttack().run(seed, verify_peer=False))
    results.append(ReflectionAttack().run(seed, naive_target=False))
    results.append(ReflectionAttack().run(seed, naive_target=True))
    results.append(InterleavingAttack().run(seed, naive_target=False))
    results.append(InterleavingAttack().run(seed, naive_target=True))
    results.append(ReplayAttack().run(seed, weakened=False))
    results.append(ReplayAttack().run(seed, weakened=True))
    results.append(TimelinessAttack().run(seed, weakened=False))
    results.append(TimelinessAttack().run(seed, weakened=True))
    return results


def tpnr_defense_holds(results: list[AttackResult]) -> bool:
    """True iff no attack succeeded against a fully defended target."""
    defended = ("tpnr/full", "securechannel/authenticated")
    return not any(r.succeeded for r in results if r.target in defended)
