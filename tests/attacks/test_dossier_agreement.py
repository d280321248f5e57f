"""Reconstruction vs. arbitration: the two paths must agree.

The :class:`~repro.obs.forensics.DisputeDossier` computes a verdict
purely from the reconstructed cross-surface timeline; the
:class:`~repro.core.arbitrator.Arbitrator` rules on the raw evidence the
parties submit.  For every adversarial scenario the §5 matrix worries
about — each attack class mapped onto its wire-level fault analog
against the fully defended deployment, every storage-tampering mode,
the unfairness (withheld receipt) variants, and a sweep of generated
fault plans — the two verdicts must be identical, for both dispute
types.  A disagreement means the telemetry record and the evidence
record have drifted apart, which is exactly the integrity failure the
paper's platforms suffered from.
"""

import pytest

from repro.core.arbitrator import Verdict
from repro.core.protocol import make_deployment, run_download, run_upload
from repro.core.provider import ProviderBehavior
from repro.net.faults import (
    CrashWindow,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    generate_plans,
)
from repro.storage.tamper import TamperMode

DISPUTES = ("tampering", "missing-receipt")

# The §5 attack classes from tests/attacks/test_matrix.py, each mapped
# onto the wire-level fault analog an adversary would mount against the
# fully defended TPNR deployment (the weakened/naive matrix targets
# have no arbitrator to agree with).
WIRE_ATTACKS = {
    "man-in-the-middle": FaultPlan(
        name="dossier-mitm",
        rules=(FaultRule(FaultAction.CORRUPT, "tpnr.upload"),),
    ),
    "replay": FaultPlan(
        name="dossier-replay",
        rules=(FaultRule(FaultAction.DUPLICATE, "tpnr.upload"),),
    ),
    "reflection": FaultPlan(
        name="dossier-reflection",
        rules=(FaultRule(FaultAction.DUPLICATE, "tpnr.upload.receipt"),),
    ),
    "interleaving": FaultPlan(
        name="dossier-interleaving",
        rules=(FaultRule(FaultAction.REORDER, "tpnr.upload", delay=0.5),),
    ),
    "timeliness": FaultPlan(
        name="dossier-timeliness",
        rules=(FaultRule(FaultAction.DELAY, "tpnr.upload.receipt", delay=3.0),),
    ),
}


def assert_agreement(dep, txn):
    dossier = dep.dossier(txn)
    for dispute in DISPUTES:
        ruling = dossier.rule(dep.arbitrator, dispute)
        reconstructed = dossier.reconstructed_verdict(dispute)
        assert ruling.verdict is reconstructed, (
            f"{dispute}: arbitrator says {ruling.verdict.value}, "
            f"reconstruction says {reconstructed.value}"
        )
    return dossier


class TestWireAttackAgreement:
    @pytest.mark.parametrize("attack", sorted(WIRE_ATTACKS))
    def test_attacked_session_verdicts_agree(self, attack):
        plan = WIRE_ATTACKS[attack]
        dep = make_deployment(seed=b"dossier-" + attack.encode(),
                              observe=True, durable=True)
        injector = FaultInjector(plan)
        dep.network.install_adversary(injector)
        injector.reset(epoch=dep.sim.now)
        outcome = run_upload(dep, b"attacked payload " * 4)
        dep.network.remove_adversary()
        run_download(dep, outcome.transaction_id)
        dossier = assert_agreement(dep, outcome.transaction_id)
        # The defended deployment absorbs every wire attack: an honest
        # provider is never blamed.
        assert dossier.rule(dep.arbitrator, "tampering").verdict \
            is not Verdict.PROVIDER_FAULT

    @pytest.mark.parametrize("attack", sorted(WIRE_ATTACKS))
    def test_crashed_session_verdicts_agree(self, attack):
        # The same attacks with an amnesia crash of the client layered
        # on top — recovery must not open a gap between the records.
        plan = WIRE_ATTACKS[attack]
        crashed = FaultPlan(
            name=plan.name + "+amnesia",
            rules=plan.rules,
            crashes=(CrashWindow("alice", 0.0, 2.0, amnesia=True),),
        )
        dep = make_deployment(seed=b"dossier-crash-" + attack.encode(),
                              observe=True, durable=True)
        injector = FaultInjector(crashed)
        dep.network.install_adversary(injector)
        injector.reset(epoch=dep.sim.now)
        outcome = run_upload(dep, b"crashed payload " * 4)
        dep.network.remove_adversary()
        assert_agreement(dep, outcome.transaction_id)


class TestTamperAgreement:
    @pytest.mark.parametrize("mode", list(TamperMode))
    def test_every_tamper_mode_verdicts_agree(self, mode):
        dep = make_deployment(
            seed=b"dossier-tamper-" + mode.value.encode(),
            observe=True, durable=True,
            behavior=ProviderBehavior(tamper_mode=mode),
        )
        outcome = run_upload(dep, b"custody payload " * 4)
        run_download(dep, outcome.transaction_id)
        dossier = assert_agreement(dep, outcome.transaction_id)
        expected = (Verdict.PROVIDER_FAULT if mode is not TamperMode.NONE
                    else Verdict.CLAIM_REJECTED)
        assert dossier.rule(dep.arbitrator, "tampering").verdict is expected

    def test_blackmail_claim_rejected_by_both_paths(self):
        # A false claim against an honest provider: both paths must
        # reject it, or reconstruction becomes a blackmail tool.
        dep = make_deployment(seed=b"dossier-blackmail", observe=True,
                              durable=True)
        outcome = run_upload(dep, b"honest payload " * 4)
        run_download(dep, outcome.transaction_id)
        dossier = assert_agreement(dep, outcome.transaction_id)
        assert dossier.reconstructed_verdict("tampering") \
            is Verdict.CLAIM_REJECTED


class TestUnfairnessAgreement:
    def test_withheld_receipt_resolved_by_ttp(self):
        # Silent provider: the client escalates, the TTP extracts the
        # receipt, and both paths see the same (resolved) story.
        dep = make_deployment(
            seed=b"dossier-silent", observe=True, durable=True,
            behavior=ProviderBehavior(silent_on_upload=True),
        )
        outcome = run_upload(dep, b"withheld receipt payload " * 4)
        assert_agreement(dep, outcome.transaction_id)

    def test_provider_silent_to_ttp_blamed_by_both_paths(self):
        dep = make_deployment(
            seed=b"dossier-stonewall", observe=True, durable=True,
            behavior=ProviderBehavior(silent_on_upload=True,
                                      silent_to_ttp=True),
        )
        outcome = run_upload(dep, b"stonewalled payload " * 4)
        dossier = assert_agreement(dep, outcome.transaction_id)
        assert dossier.rule(dep.arbitrator, "missing-receipt").verdict \
            is Verdict.PROVIDER_FAULT


class TestCampaignAgreement:
    def test_generated_fault_plans_verdicts_agree(self):
        # A seeded slice of the FC1 plan space: whatever the fault did
        # to the session, the two verdict paths stay in lockstep.
        for plan in generate_plans(b"dossier-campaign", 12):
            dep = make_deployment(seed=b"dossier-" + plan.name.encode(),
                                  observe=True, durable=True)
            injector = FaultInjector(plan)
            dep.network.install_adversary(injector)
            injector.reset(epoch=dep.sim.now)
            outcome = run_upload(dep, b"campaign payload " * 4)
            dep.network.remove_adversary()
            assert_agreement(dep, outcome.transaction_id)
