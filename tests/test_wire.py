"""Tests for the binary wire codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import Digest, hash_bytes
from repro.crypto.signatures import Signer
from repro.mtree.database import (
    DeleteQuery,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.protocols.base import Followup, Request, Response
from repro.protocols.protocol3 import EpochDeposit
from repro.wire import WireError, decode, encode, wire_size


def roundtrip(value):
    data = encode(value)
    back = decode(data)
    assert back == value, (value, back)
    return data


class TestPrimitives:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, 2 ** 40, "", "héllo", b"", b"\x00\xff",
        0.0, -1.5, 0.3, 2.0 ** 80, float("inf"),
        Digest.zero(), hash_bytes(b"x"),
        (), (1, "two", b"three"), ((1, 2), (3,)),
        {}, {"a": 1, "b": None}, {1: "x", "y": (2, 3)},
    ])
    def test_roundtrip(self, value):
        roundtrip(value)

    def test_lists_normalise_to_tuples(self):
        assert decode(encode([1, 2])) == (1, 2)

    def test_dict_encoding_is_deterministic(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
                  st.text(max_size=8), st.binary(max_size=8)),
        lambda children: st.lists(children, max_size=4).map(tuple),
        max_leaves=12,
    ))
    def test_roundtrip_property(self, value):
        roundtrip(value)

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError):
            encode(object())

    def test_truncated_rejected(self):
        data = encode({"k": b"value"})
        with pytest.raises(WireError):
            decode(data[:-2])

    def test_trailing_rejected(self):
        with pytest.raises(WireError):
            decode(encode(1) + b"\x00")

    def test_garbage_tag_rejected(self):
        with pytest.raises(WireError):
            decode(b"\xfe")


class TestQueriesAndProofs:
    @pytest.fixture(scope="class")
    def db(self):
        database = VerifiedDatabase(order=4)
        for i in range(40):
            database.execute(WriteQuery(f"k{i:03d}".encode(), f"v{i}".encode()))
        return database

    def test_queries(self):
        for query in (ReadQuery(b"k"), RangeQuery(b"a", b"z"),
                      WriteQuery(b"k", b"v"), DeleteQuery(b"k")):
            roundtrip(query)

    def test_read_result(self, db):
        result = db.execute(ReadQuery(b"k005"))
        roundtrip(result)

    def test_absence_result(self, db):
        roundtrip(db.execute(ReadQuery(b"nope")))

    def test_range_result(self, db):
        roundtrip(db.execute(RangeQuery(b"k010", b"k020")))

    def test_update_results(self, db):
        roundtrip(db.execute(WriteQuery(b"k005", b"new")))
        roundtrip(db.execute(DeleteQuery(b"k006")))

    def test_decoded_proof_still_verifies(self, db):
        from repro.mtree.proofs import verify_read

        result = db.execute(ReadQuery(b"k010"))
        decoded = decode(encode(result))
        assert verify_read(db.root_digest(), decoded.proof, b"k010") == db.get(b"k010")


class TestProtocolEnvelopes:
    def test_request_response_followup(self):
        db = VerifiedDatabase(order=4)
        db.execute(WriteQuery(b"k", b"v"))
        result = db.execute(ReadQuery(b"k"))
        signer = Signer.generate("alice", bits=512, seed=33)
        signature = signer.sign(hash_bytes(b"state"))

        roundtrip(Request(query=ReadQuery(b"k"), extras={"fetch_epochs": (1, 2)}))
        roundtrip(Response(result=result,
                           extras={"ctr": 7, "last_user": "bob", "sig": signature}))
        roundtrip(Followup(extras={"sig": signature, "turn": 3}))

    def test_error_reply(self):
        from repro.protocols.base import ErrorReply

        roundtrip(ErrorReply(reason="server blocked awaiting a follow-up "
                                    "signature", extras={"timeout_s": 0.3}))
        roundtrip(ErrorReply())

    def test_epoch_deposit(self):
        signer = Signer.generate("u1", bits=512, seed=34)
        deposit = EpochDeposit(user_id="u1", epoch=4, sigma=hash_bytes(b"s"),
                               last=hash_bytes(b"l"),
                               signature=signer.sign(hash_bytes(b"d")))
        roundtrip(deposit)
        roundtrip(Response(result=None, extras={"epoch": 6,
                                                "deposits": {4: {"u1": deposit}}}))


class TestWireSize:
    def test_vo_bytes_are_logarithmic(self):
        sizes = {}
        for exponent in (6, 12):
            n = 2 ** exponent
            db = VerifiedDatabase(order=8)
            for i in range(n):
                db.execute(WriteQuery(f"{i:06d}".encode(), b"x" * 16))
            result = db.execute(ReadQuery(f"{n // 2:06d}".encode()))
            sizes[n] = wire_size(result)
        # 64x the data, far less than 64x the proof bytes
        assert sizes[2 ** 12] < sizes[2 ** 6] * 4

    def test_network_accounting(self):
        from repro.core.scenarios import build_simulation
        from repro.simulation.channels import Network
        from repro.simulation.workload import steady_workload

        workload = steady_workload(3, 6, seed=3)
        network = Network(user_ids=workload.user_ids, account_bytes=True)
        simulation = build_simulation("protocol2", workload, k=100, seed=3,
                                      network=network)
        report = simulation.execute()
        assert not report.detected
        assert network.bytes_sent > 0
        ops = sum(report.operations_completed.values())
        assert network.bytes_sent / ops > 100  # VOs dominate


# ---------------------------------------------------------------------------
# Golden bytes: one value per tag, pinned by the SHA-256 of its encoding
# ---------------------------------------------------------------------------


def _golden_values() -> dict:
    """One deterministic value per wire tag, keyed by tag name.

    Everything is built from fixed inputs (no RNG, no RSA: signatures
    carry fixed raw bytes) so the encodings are stable across runs and
    interpreters.
    """
    from repro.mtree.database import QueryResult
    from repro.mtree.proofs import FringeNode, SiblingPair
    from repro.crypto.signatures import Signature
    from repro.net.replication import RootAttestation, RootDeposit
    from repro.protocols.base import ErrorReply

    db = VerifiedDatabase(order=4)
    for i in range(40):
        db.execute(WriteQuery(f"k{i:03d}".encode(), f"v{i}".encode()))
    read = db.execute(ReadQuery(b"k017"))
    scan = db.execute(RangeQuery(b"k010", b"k020"))
    insert = db.execute(WriteQuery(b"k017", b"new"))
    delete = db.execute(DeleteQuery(b"k006"))
    pair = next(p for p in delete.proof.siblings
                if p.left is not None or p.right is not None)
    assert isinstance(pair, SiblingPair)
    assert isinstance(scan.proof.root, FringeNode)

    forest = VerifiedDatabase(order=4, shards=3)
    for i in range(30):
        forest.execute(WriteQuery(f"f{i:03d}".encode(), f"w{i}".encode()))
    forest_read = forest.execute(ReadQuery(b"f011")).proof
    forest_scan = forest.execute(RangeQuery(b"f005", b"f015")).proof
    forest_update = forest.execute(WriteQuery(b"f012", b"z")).proof

    signature = Signature(signer_id="alice", digest=hash_bytes(b"state"),
                          raw=bytes(range(64)))
    deposit = RootDeposit(primary_id="primary", ctr=9,
                          root=hash_bytes(b"root"), signature=signature)
    extras = {"rid": "alice:7", "ctr": 7, 3: 0.5,
              "nested": {"sig": signature, "roots": (hash_bytes(b"a"), None),
                         "flags": (True, False)}}
    return {
        "none": None, "false": False, "true": True, "int": -(2 ** 40) + 7,
        "str": "héllo", "bytes": b"\x00\xffab", "digest": hash_bytes(b"d"),
        "list": (1, "two", b"three", None, hash_bytes(b"e")),
        "dict": extras, "float": 0.3,
        "read_query": ReadQuery(b"k"), "range_query": RangeQuery(b"a", b"z"),
        "write_query": WriteQuery(b"k", b"v"), "delete_query": DeleteQuery(b"k"),
        "leaf_snapshot": read.proof.leaf,
        "internal_snapshot": read.proof.internals[0],
        "read_proof": read.proof, "range_proof": scan.proof,
        "fringe_node": scan.proof.root, "update_proof": delete.proof,
        "sibling_pair": pair, "query_result": insert,
        "forest_read_proof": forest_read,
        "forest_update_proof": forest_update,
        "forest_range_proof": forest_scan,
        "signature": signature,
        "epoch_deposit": EpochDeposit(
            user_id="u1", epoch=4, sigma=hash_bytes(b"s"),
            last=hash_bytes(b"l"), signature=signature),
        "root_deposit": deposit,
        "root_attestation": RootAttestation(
            witness_id="w1", deposit=deposit, signature=signature),
        "request": Request(query=WriteQuery(b"k", b"v"), extras=extras),
        "response": Response(result=insert, extras=extras),
        "followup": Followup(extras={"sig": signature, "turn": 3}),
        "error_reply": ErrorReply(reason="busy", extras={"timeout_s": 0.3}),
    }


#: SHA-256 of ``encode(value)`` for each golden value.  The codec's byte
#: format is frozen at ``CODEC_VERSION`` 1 (WAL records, snapshots and
#: evidence bundles persist these bytes), so a change here is a format
#: change, not a refactor.
GOLDEN_SHA256 = {
    "none":
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "false":
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "true":
        "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
    "int":
        "b1b15fa9ca3a1e166a0d2d95da44ba0032f23cf06654996850323e3ac6268670",
    "str":
        "a3f73e04d119e74f680f14f6bdea550c724b8807bc71075b1fe7e2e4ed83b0ec",
    "bytes":
        "e98e52664917801a22e8cb6ee75ddcbd01f59e392aabe36ad7ce233c6a4238fe",
    "digest":
        "e243daec4cd2fc2744f9d40d8d48a3ab83c8acd3224676831689c35e427d47db",
    "list":
        "b035209f90a88993b5ef14d4d77a006425393f44238b338ad8300806cbdd3198",
    "dict":
        "82452ec1c2a0387a41804ca7cee0c75be5e7c4598d2c4a6797fe4a80319be27b",
    "float":
        "180a660b2cf43c6aee3ab4615aab0722ca2a134cfd1d5c05a3d153fbd42f6144",
    "read_query":
        "e2b220f1abbde054b62f30746dd6dfac3d7a5c7087e829fd28cbd2a20fa2317b",
    "range_query":
        "3ad6a3aca9ef137f277c190a6f7869dd3b2e3d7350f50cd011510e0a1434a3f0",
    "write_query":
        "ae4d61c2564de1f52629e6b3170dfbb20719fe8821fd80eb75fb7a69c7ef8dac",
    "delete_query":
        "407b4c2893b80ae92c3190e40d45231f8cd456469cf7b377ff0f76687316af19",
    "leaf_snapshot":
        "9083385765e1aea1f7a52b4b04139729caa3c75285a380bf564e9923259d33c2",
    "internal_snapshot":
        "0a560e0e25b6e2d57a0192fce3b81a7e99f1401d234fa324cc59b234347ca82c",
    "read_proof":
        "48aac80dc0b2aa9e03a27dbfd54a9c4538637b136db2e50202eab517b899248b",
    "range_proof":
        "c88797e6e527e4e51e92abd21466ace18773450ba576e4d561b715f7bd04ac54",
    "fringe_node":
        "25a0e7685a69488153623c038749577b44e97eb801de4bcf1f899a6d1b54163d",
    "update_proof":
        "d952145cf5d3aca4d23a395a75fb5dbf6a4eb38034bdca161a47649fb7766486",
    "sibling_pair":
        "38291b314ab1df9177ec428cc7feef99a9fa8b0dce3359601ccf37eae416dbaa",
    "query_result":
        "4abe04b8a42fec93152d5e9e200526cf3b2171dec27758da9146482939b46218",
    "forest_read_proof":
        "8fad6a7fa948c4740c445f50ee6be4f29714ff72cc59b9ae533b0d4f8321343f",
    "forest_update_proof":
        "23bf13c977d84c00c851c05ed9004c28b28ae8989825cc6cc1fe4352ce6ca6a4",
    "forest_range_proof":
        "9c0efbb7b8bbcb56ca7d501c7619d782e7b886af970922907cfc0f0b406c604c",
    "signature":
        "bc4a4eb703f119c677748814675f5cb4b7553dc6eaf614e9ee8931e4fd2a90f1",
    "epoch_deposit":
        "d9f8dde0caf8f8ef5073aa8c830b863a9647d700169e5f4907cd3eb812ab4aa3",
    "root_deposit":
        "b681758d768a51a375f36d1d9d314d50fbc2e63824939d0e28b8b90247b38e9f",
    "root_attestation":
        "0562b4ce83a648ccd2e78bd93179d0395df09ba754534316fd5532baf0fc43c1",
    "request":
        "0b556cb661ae8683e20d542315f6ddf7a03825e10d993ed8ef195a7d51ad2501",
    "response":
        "a38019771bc90913e18afdbdbed84c2776c9bc074177ec62d16dc91240157b64",
    "followup":
        "910e63ca88143a255a00087b60c6d55107cecc0d005969e6b25d369fb4ffe2ee",
    "error_reply":
        "d3ec28ef862cc79e9c6e9111cfebcbaf0237e7527198b26dc7b1bb723e2a78c5",
}


class TestGoldenBytes:
    @pytest.fixture(scope="class")
    def values(self):
        return _golden_values()

    def test_every_tag_has_a_golden_value(self, values):
        from repro.wire import _TAGS

        assert set(values) == set(_TAGS) == set(GOLDEN_SHA256)
        for name, value in values.items():
            assert encode(value)[0] == _TAGS[name], name

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_encoding_is_byte_identical(self, values, name):
        import hashlib

        data = encode(values[name])
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name]
        assert decode(data) == values[name]
        assert encode(decode(data)) == data


# ---------------------------------------------------------------------------
# Decoder fast paths: strided digest lists and inline byte-string lists
# ---------------------------------------------------------------------------


def _update_responses():
    """A real single-tree and a real forest update response frame."""
    db = VerifiedDatabase(order=8)
    forest = VerifiedDatabase(order=8, shards=4)
    for i in range(300):
        db.execute(WriteQuery(f"k{i:04d}".encode(), b"v" * 64))
        forest.execute(WriteQuery(f"k{i:04d}".encode(), b"v" * 64))
    extras = {"rid": "u0:17", "ctr": 301}
    return (
        encode(Response(result=db.execute(WriteQuery(b"k0123", b"new")),
                        extras=extras)),
        encode(Response(result=forest.execute(WriteQuery(b"k0123", b"new")),
                        extras=extras)),
    )


def _digest_list(count: int) -> bytes:
    return encode(tuple(hash_bytes(b"%d" % i) for i in range(count)))


class TestDecoderFastPaths:
    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("intruder", [b"key", "key", None, 7, (), True])
    def test_digest_list_with_one_non_digest_falls_back(self, position,
                                                        intruder):
        items = [hash_bytes(b"%d" % i) for i in range(7)]
        items[position] = intruder
        roundtrip(tuple(items))

    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_unknown_tag_inside_digest_list_rejected(self, position):
        data = bytearray(_digest_list(7))
        data[5 + 33 * position] = 0xFE
        with pytest.raises(WireError, match="unknown wire tag 0xfe"):
            decode(bytes(data))

    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_retagged_digest_shifts_the_frame_and_is_rejected(self, position):
        # A ``none`` tag where a digest belongs shifts every later
        # element by 32 bytes: the frame is then garbage at the next
        # offset (first or middle) or has 32 trailing bytes (last).
        data = bytearray(_digest_list(7))
        data[5 + 33 * position] = 0x00
        with pytest.raises(WireError):
            decode(bytes(data))

    def test_digest_list_count_beyond_the_buffer_is_truncation(self):
        data = bytearray(_digest_list(3))
        data[1:5] = (4).to_bytes(4, "big")
        with pytest.raises(WireError, match="truncated"):
            decode(bytes(data))
        data[1:5] = (2 ** 32 - 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="truncated"):
            decode(bytes(data))

    def test_digest_list_count_short_of_the_buffer_leaves_trailing_bytes(self):
        data = bytearray(_digest_list(3))
        data[1:5] = (2).to_bytes(4, "big")
        with pytest.raises(WireError, match="trailing"):
            decode(bytes(data))

    @pytest.mark.parametrize("value", [(), [], ((),), ((), ()), {"k": ()}])
    def test_empty_lists(self, value):
        data = encode(value)
        assert encode(decode(data)) == data

    @pytest.mark.parametrize("value", [
        (b"a", "s", b"b"),
        (b"a", None, b"", None),
        (b"a", (b"b", (b"c",)), b"d"),
        ("s", b"a", hash_bytes(b"x"), b"b", 3),
        (None, b"x" * 300),
    ])
    def test_bytes_lists_interleaved_with_other_types(self, value):
        roundtrip(value)

    def test_byte_string_length_beyond_the_buffer_is_truncation(self):
        data = bytearray(encode((b"ab", b"cd")))
        data[6:10] = (3).to_bytes(4, "big")
        with pytest.raises(WireError):
            decode(bytes(data))

    def test_truncated_update_responses_raise_only_wire_error(self):
        for frame in _update_responses():
            decode(frame)
            for cut in range(len(frame)):
                with pytest.raises(WireError):
                    decode(frame[:cut])

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_input_yields_bytes_backed_values(self, wrap):
        for frame in _update_responses():
            reference = decode(frame)
            decoded = decode(wrap(frame))
            assert decoded == reference
            proof = decoded.result.proof
            proof = getattr(proof, "inner", proof)
            digests = proof.leaf.entry_digests + tuple(
                d for s in proof.internals for d in s.child_digests)
            expected = reference.result.proof
            expected = getattr(expected, "inner", expected)
            want = expected.leaf.entry_digests + tuple(
                d for s in expected.internals for d in s.child_digests)
            assert digests == want
            for got, ref in zip(digests, want):
                assert type(got.value) is bytes
                assert hash(got) == hash(ref)
            assert all(type(key) is bytes for key in proof.leaf.keys)

    def test_subclasses_encode_as_their_registered_base(self):
        import enum

        class Small(int):
            pass

        class Colour(str, enum.Enum):
            RED = "red"

        assert encode(Small(5)) == encode(5)
        assert encode(Colour.RED) == encode("red")
        assert encode((Small(1), Colour.RED)) == encode((1, "red"))
