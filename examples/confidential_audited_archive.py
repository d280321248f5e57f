#!/usr/bin/env python3
"""Confidentiality + evidence archives on top of TPNR.

The paper's own cross-user scenario (§2.4), with client-side
encryption and archived evidence added:

1. Alice (CFO) seals the ledger so only she and the chairman can read
   it — the provider stores ciphertext only (§2.4 concern 1).
2. The provider is compromised and the stored ciphertext is replaced
   (with the stored digest fixed up — the stealthiest tamper).
3. The chairman's download detects the substitution (TPNR closes the
   upload-to-download link across users).
4. Both parties export their evidence to **JSON archives**; the
   arbitrator re-verifies the rehydrated bundles and convicts.

Run:  python examples/confidential_audited_archive.py
"""

from repro import (
    Verdict,
    make_deployment,
    run_shared_download,
    run_upload,
)
from repro.core.archive import export_store, verify_bundle
from repro.core.confidential import recipients_of, seal_payload
from repro.storage import TamperMode, apply_tamper

LEDGER = b"FY2010 consolidated ledger, board copy. " * 32


def main() -> None:
    dep = make_deployment(seed=b"enterprise-example",
                          provider_name="eve", extra_client_names=("chairman",))

    # 1. Seal for the two authorized readers; upload the ciphertext.
    ciphertext = seal_payload(LEDGER, ["alice", "chairman"], dep.registry, dep.rng)
    print(f"sealed ledger: {len(LEDGER)} plaintext -> {len(ciphertext)} ciphertext bytes")
    print(f"authorized readers: {recipients_of(ciphertext)}")
    outcome = run_upload(dep, ciphertext)
    print(f"upload: {outcome.upload_status.value} in {outcome.steps} messages")
    stored = dep.provider.store.get("tpnr-data", outcome.transaction_id)
    print(f"provider can read the plaintext: {LEDGER[:20] in stored.data}")

    # 2. Compromise: stealthiest possible in-storage substitution.
    apply_tamper(dep.provider.store, "tpnr-data", outcome.transaction_id,
                 TamperMode.FIXUP_MD5, dep.rng)
    print("\n[provider storage compromised: contents replaced, digest fixed up]\n")

    # 3. The chairman downloads and TPNR catches it.
    result = run_shared_download(dep, outcome.transaction_id, "chairman")
    print(f"chairman's download: tampering detected = {result.tampering_detected}")

    # 4. Evidence to JSON archives; arbitration from the files alone.
    chairman = dep.extra_clients["chairman"]
    claim = export_store(chairman.evidence_store, outcome.transaction_id)
    rebuttal = export_store(dep.provider.evidence_store, outcome.transaction_id)
    print(f"archived evidence: claimant {len(claim)} B, respondent {len(rebuttal)} B")
    ruling = dep.arbitrator.rule_on_tampering(
        outcome.transaction_id,
        dep.provider.name,
        verify_bundle(claim, dep.registry),
        verify_bundle(rebuttal, dep.registry),
    )
    print(f"arbitrator (from archives): {ruling.verdict.value}")
    assert ruling.verdict is Verdict.PROVIDER_FAULT
    print("\nEve is convicted and the plaintext was never exposed:")
    print("confidentiality and non-repudiation compose.")


if __name__ == "__main__":
    main()
