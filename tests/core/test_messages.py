"""TPNR message and header structures."""

import pytest

from repro.core.messages import Flag, Header, TpnrMessage
from repro.errors import ProtocolError


def header(**overrides):
    fields = dict(
        flag=Flag.UPLOAD,
        sender_id="alice",
        recipient_id="bob",
        ttp_id="ttp",
        transaction_id="TXN-1",
        sequence_number=0,
        nonce=b"n" * 16,
        time_limit=30.0,
        data_hash=b"h" * 32,
    )
    fields.update(overrides)
    return Header(**fields)


class TestHeader:
    def test_canonical_encoding_deterministic(self):
        assert header().to_signed_bytes() == header().to_signed_bytes()

    @pytest.mark.parametrize(
        "change",
        [
            {"flag": Flag.ABORT},
            {"sender_id": "mallory"},
            {"recipient_id": "carol"},
            {"ttp_id": "other-ttp"},
            {"transaction_id": "TXN-2"},
            {"sequence_number": 1},
            {"nonce": b"m" * 16},
            {"time_limit": 31.0},
            {"data_hash": b"x" * 32},
        ],
    )
    def test_every_field_changes_encoding(self, change):
        """Each field is signature-covered: changing any of them must
        change the canonical bytes (the §5 defences hang on this)."""
        assert header().to_signed_bytes() != header(**change).to_signed_bytes()

    def test_negative_sequence_rejected(self):
        with pytest.raises(ProtocolError):
            header(sequence_number=-1)

    def test_empty_nonce_rejected(self):
        with pytest.raises(ProtocolError):
            header(nonce=b"")

    def test_wire_size_positive(self):
        assert header().wire_size() > 50


class TestTpnrMessage:
    def test_annotation_lookup(self):
        message = TpnrMessage(
            header=header(), data=None, evidence=b"e",
            annotations=(("action", "continue"), ("x", "y")),
        )
        assert message.annotation("action") == "continue"
        assert message.annotation("missing", "dflt") == "dflt"

    def test_wire_size_includes_everything(self):
        bare = TpnrMessage(header=header(), data=None, evidence=b"")
        loaded = TpnrMessage(
            header=header(), data=b"d" * 100, evidence=b"e" * 50,
            annotations=(("k", "v" * 10),),
        )
        assert loaded.wire_size() >= bare.wire_size() + 100 + 50 + 11

    def test_embedded_counted(self):
        inner = TpnrMessage(header=header(), data=None, evidence=b"e" * 10)
        outer = TpnrMessage(header=header(), data=None, evidence=b"e", embedded=(inner,))
        assert outer.wire_size() > inner.wire_size()
