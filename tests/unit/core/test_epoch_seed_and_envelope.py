"""Unit tests for committee epoch seeds and the dissemination envelope."""

import dataclasses

import pytest

from repro.core.dissemination import DisseminationEnvelope
from repro.core.membership import committee_epoch_seed
from repro.crypto.backend import FastCryptoBackend
from repro.mempool.transaction import Transaction
from repro.trs.committee import trs_binding

COMMITTEE = [0, 1, 2, 3]


@pytest.fixture()
def backend():
    backend = FastCryptoBackend(7)
    backend.setup_committee(COMMITTEE, threshold=3)
    return backend


class TestEpochSeed:
    def test_deterministic(self, backend):
        assert committee_epoch_seed(backend, COMMITTEE, 1) == committee_epoch_seed(
            backend, COMMITTEE, 1
        )

    def test_epochs_differ(self, backend):
        seeds = {committee_epoch_seed(backend, COMMITTEE, e) for e in range(6)}
        assert len(seeds) > 1

    def test_quorum_subset_suffices(self, backend):
        full = committee_epoch_seed(backend, COMMITTEE, 3)
        quorum = committee_epoch_seed(backend, COMMITTEE[:3], 3)
        assert full == quorum  # unique combined signature => same seed

    def test_in_range(self, backend):
        for epoch in range(4):
            assert 0 <= committee_epoch_seed(backend, COMMITTEE, epoch) < 2**31


class TestEnvelope:
    def _make(self, backend, overlay_count=5):
        tx = Transaction.create(origin=9, created_at=0.0)
        binding = trs_binding(9, 0, tx.digest())
        partials = [backend.partial_sign(m, binding) for m in COMMITTEE[:3]]
        signature = backend.combine(binding, partials)
        overlay_id = backend.seed_from_signature(signature, overlay_count)
        return DisseminationEnvelope(
            tx=tx, origin=9, sequence=0, signature=signature, overlay_id=overlay_id
        )

    def test_valid_envelope_verifies(self, backend):
        envelope = self._make(backend)
        assert envelope.verify(backend, 5)

    def test_wrong_overlay_count_invalidates(self, backend):
        """Verification binds the claimed overlay to the modulus actually used."""

        envelope = self._make(backend, overlay_count=5)
        seed_with_7 = backend.seed_from_signature(envelope.signature, 7)
        if seed_with_7 != envelope.overlay_id:
            assert not envelope.verify(backend, 7)

    def test_tampered_signature_fails(self, backend):
        envelope = self._make(backend)
        forged = DisseminationEnvelope(
            tx=envelope.tx,
            origin=envelope.origin,
            sequence=envelope.sequence,
            signature=object(),
            overlay_id=envelope.overlay_id,
        )
        assert not forged.verify(backend, 5)

    def test_wrong_sequence_fails(self, backend):
        envelope = self._make(backend)
        shifted = DisseminationEnvelope(
            tx=envelope.tx,
            origin=envelope.origin,
            sequence=envelope.sequence + 1,
            signature=envelope.signature,
            overlay_id=envelope.overlay_id,
        )
        assert not shifted.verify(backend, 5)

    def test_wire_bytes_cover_payload_and_signature(self, backend):
        envelope = self._make(backend)
        assert envelope.wire_bytes(backend) >= envelope.tx.size_bytes + 96


class TestWarmBackend:
    """The fast backend memoizes H(binding) and the seed; verdicts must not.

    A warm backend (one that has already verified the genuine envelope) must
    answer exactly like a cold one for every envelope, and a tampered
    envelope presented after the genuine one is still rejected.
    """

    def _variants(self, backend):
        genuine = TestEnvelope()._make(backend)
        other_tx = Transaction.create(origin=9, created_at=0.0)
        other_binding = trs_binding(9, 0, other_tx.digest())
        other_signature = backend.combine(
            other_binding, [backend.partial_sign(m, other_binding) for m in COMMITTEE[:3]]
        )
        replace = dataclasses.replace
        return [
            ("genuine", genuine),
            ("sequence + 1", replace(genuine, sequence=genuine.sequence + 1)),
            ("another tx", replace(genuine, tx=other_tx)),
            ("another overlay", replace(genuine, overlay_id=(genuine.overlay_id + 1) % 5)),
            ("another signature", replace(genuine, signature=other_signature)),
        ]

    @staticmethod
    def _cold():
        backend = FastCryptoBackend(7)
        backend.setup_committee(COMMITTEE, threshold=3)
        return backend

    def test_warm_answers_equal_cold_answers(self, backend):
        variants = self._variants(backend)
        for _round in range(2):  # the second round is served from the memos
            for name, envelope in variants:
                assert envelope.binding() == trs_binding(
                    envelope.origin, envelope.sequence, envelope.tx.digest()
                ), name
                for modulus in (5, 7):
                    assert backend.seed_from_signature(
                        envelope.signature, modulus
                    ) == self._cold().seed_from_signature(envelope.signature, modulus), name
                assert backend.verify_combined(
                    envelope.binding(), envelope.signature
                ) == self._cold().verify_combined(envelope.binding(), envelope.signature), name
                assert envelope.verify(backend, 5) == envelope.verify(self._cold(), 5), name

    def test_tampered_after_genuine_is_rejected(self, backend):
        verdicts = {name: envelope.verify(backend, 5) for name, envelope in self._variants(backend)}
        assert verdicts == {
            "genuine": True,
            "sequence + 1": False,
            "another tx": False,
            "another overlay": False,
            "another signature": False,
        }
