"""Attack-matrix regression: every attack x target cell, pinned.

Two matrices, both fully enumerated so a behavior change in any attack,
defense, or bridging scheme flips a visible cell rather than slipping
through a spot check:

* the §5 gauntlet — five attack classes, each against a fully defended
  target and a weakened/naive one (10 cells);
* the §3 bridging schemes — each scheme under real tampering and under
  a blackmail (false) claim, with the dispute verdicts per cell.
"""

import pytest

from repro.attacks.harness import run_gauntlet, tpnr_defense_holds
from repro.bridging import ALL_SCHEMES, make_world
from repro.core import (
    ProviderBehavior,
    Verdict,
    dispute_tampering,
    make_deployment,
)
from repro.storage.tamper import TamperMode

# (attack, target) -> attack succeeded.  The paper's claim in one
# literal: every weakened column is exploitable, every defended column
# holds.
EXPECTED_GAUNTLET = {
    ("man-in-the-middle", "securechannel/authenticated"): False,
    ("man-in-the-middle", "securechannel/no-cert-check"): True,
    ("reflection", "tpnr/full"): False,
    ("reflection", "naive-challenge-response"): True,
    ("interleaving", "tpnr/full"): False,
    ("interleaving", "naive-receipt-service"): True,
    ("replay", "tpnr/full"): False,
    ("replay", "tpnr/no-seq-no-nonce"): True,
    ("timeliness", "tpnr/full"): False,
    ("timeliness", "tpnr/no-time-limit"): True,
}

# scheme -> (detected, provable, forgery_possible, tamper_verdict)
# under TamperMode.REPLACE, plus the blackmail verdict for a clean
# upload.  Only `plain` (the paper's §3 status quo) leaves tampering
# undetected and disputes unresolvable.
EXPECTED_BRIDGING = {
    "plain": (False, False, True, "undetected", "unresolved"),
    "nn": (True, True, False, "provider-at-fault", "claim-rejected"),
    "sks": (True, True, False, "provider-at-fault", "claim-rejected"),
    "tac": (True, True, False, "provider-at-fault", "claim-rejected"),
    "both": (True, True, False, "provider-at-fault", "claim-rejected"),
}


def gauntlet_matrix(results):
    """(attack, target) -> succeeded."""
    return {(r.attack, r.target): r.succeeded for r in results}


class TestGauntletMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return gauntlet_matrix(run_gauntlet(b"matrix-pin"))

    def test_every_cell_matches(self, matrix):
        assert matrix == EXPECTED_GAUNTLET

    def test_all_ten_cells_present(self, matrix):
        assert len(matrix) == 10

    def test_defended_targets_hold(self, matrix):
        results = run_gauntlet(b"matrix-pin-2")
        assert tpnr_defense_holds(results)

    def test_every_weakened_target_falls(self, matrix):
        # The weakened columns are the paper's §5 motivation: each
        # omitted countermeasure has a concrete working exploit.
        weakened = {t for (_, t), ok in EXPECTED_GAUNTLET.items() if ok}
        for (_, target), succeeded in matrix.items():
            assert succeeded == (target in weakened)

    def test_matrix_is_seed_independent(self, matrix):
        assert gauntlet_matrix(run_gauntlet(b"another-seed")) == matrix


class TestBridgingMatrix:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for cls in ALL_SCHEMES:
            for mode in (TamperMode.REPLACE, TamperMode.NONE):
                scheme = cls(make_world(seed=b"matrix-" + cls.__name__.encode()))
                out[(scheme.name, mode)] = scheme.run_scenario(
                    b"bridging matrix payload " * 3, mode
                )
        return out

    def test_all_schemes_enumerated(self, results):
        assert {name for name, _ in results} == set(EXPECTED_BRIDGING)

    @pytest.mark.parametrize("name", sorted(EXPECTED_BRIDGING))
    def test_tamper_cell(self, results, name):
        detected, provable, forgery, verdict, _ = EXPECTED_BRIDGING[name]
        r = results[(name, TamperMode.REPLACE)]
        assert r.detected is detected
        assert r.agreed_digest_provable is provable
        assert r.unilateral_forgery_possible is forgery
        assert r.tamper_verdict == verdict

    @pytest.mark.parametrize("name", sorted(EXPECTED_BRIDGING))
    def test_blackmail_cell(self, results, name):
        *_, blackmail = EXPECTED_BRIDGING[name]
        r = results[(name, TamperMode.NONE)]
        assert r.blackmail_verdict == blackmail
        assert r.tamper_verdict == "no-dispute"
        assert not r.detected  # nothing was altered

    def test_only_plain_is_vulnerable(self, results):
        for (name, mode), r in results.items():
            if mode is not TamperMode.REPLACE:
                continue
            if name == "plain":
                assert not r.detected and r.unilateral_forgery_possible
            else:
                assert r.detected and not r.unilateral_forgery_possible


class TestBatchedEvidenceMatrix:
    """ISSUE 9 satellite: the Merkle-batched evidence attack cell.

    The new surface batching opens: an attacker who holds a
    legitimately *signed* batch tries to pass off a tampered item
    under it.  The batch-root signature verifies — only the item's
    inclusion proof can catch the swap, so the cell pins three facts:
    the forged item is rejected (never silently accepted), an honest
    batched world still convicts a storage-tampering provider, and
    the dossier's reconstructed verdict agrees with the Arbitrator's.
    """

    PAYLOAD = b"batched matrix payload " * 8

    @pytest.fixture(scope="class")
    def tampered_world(self):
        from repro.core.protocol import run_session

        dep = make_deployment(
            seed=b"matrix-batched-tamper", batch_size=4, observe=True,
            behavior=ProviderBehavior(tamper_mode=TamperMode.REPLACE),
        )
        outcome = run_session(dep, self.PAYLOAD)
        dep.settle_batches()
        return dep, outcome

    def test_batched_storage_tamper_convicted(self, tampered_world):
        dep, outcome = tampered_world
        ruling = dispute_tampering(dep, outcome.transaction_id)
        assert ruling.verdict is Verdict.PROVIDER_FAULT
        assert ruling.evidence_admitted > 0

    def test_dossier_agrees_on_batched_evidence(self, tampered_world):
        dep, outcome = tampered_world
        dossier = dep.dossier(outcome.transaction_id)
        assert dossier.reconstructed_verdict("tampering") is Verdict.PROVIDER_FAULT
        assert dossier.agrees(dep.arbitrator, "tampering")

    @staticmethod
    def forge_swapped_item(dep, outcome):
        """A doctored header claiming different bytes, its matching
        leaf, and a *real* sealed batch stapled on — the batch-root
        signature verifies, the inclusion proof cannot."""
        from dataclasses import replace

        from repro.core.evidence import BatchedEvidence, evidence_leaf
        from repro.crypto.batch import BatchProof

        genuine = [
            e for e in dep.client.evidence_store.for_transaction(
                outcome.transaction_id)
            if isinstance(e, BatchedEvidence) and not e.pending
        ]
        assert genuine, "expected settled batched evidence in the client store"
        real = genuine[0]
        fake_header = replace(real.header, data_hash=b"\x13" * 32)
        fake_leaf = evidence_leaf(real.signer, fake_header)
        return BatchedEvidence(
            signer=real.signer,
            header=fake_header,
            signature_over_data_hash=b"",
            signature_over_header=b"",
            leaf=fake_leaf,
            proof=BatchProof(
                signer=real.signer,
                leaf=fake_leaf,
                index=real.proof.index,
                path=real.proof.path,
                batch=real.proof.batch,
            ),
        )

    def test_signed_batch_does_not_bless_a_swapped_item(self, tampered_world):
        """Batch signature valid + inclusion proof invalid -> rejected."""
        from repro.crypto.batch import verify_batch_root

        dep, outcome = tampered_world
        forged = self.forge_swapped_item(dep, outcome)
        # The batch signature the forgery rides on IS valid...
        signer_key = dep.registry.lookup(forged.signer)
        assert verify_batch_root(signer_key, forged.proof.batch)
        # ...and the item must still be rejected, not silently accepted.
        ruling = dep.arbitrator.rule_on_tampering(
            outcome.transaction_id, dep.provider.name, [forged], []
        )
        assert ruling.verdict is Verdict.UNRESOLVED
        assert ruling.evidence_admitted == 0
        assert ruling.evidence_rejected == 1

    def test_forged_item_among_genuine_changes_nothing(self, tampered_world):
        """A forgery mixed into honest evidence is dropped while the
        genuine items still convict."""
        dep, outcome = tampered_world
        forged = self.forge_swapped_item(dep, outcome)
        genuine = list(
            dep.client.evidence_store.for_transaction(outcome.transaction_id))
        ruling = dep.arbitrator.rule_on_tampering(
            outcome.transaction_id, dep.provider.name, genuine + [forged], []
        )
        assert ruling.verdict is Verdict.PROVIDER_FAULT
        assert ruling.evidence_rejected >= 1
