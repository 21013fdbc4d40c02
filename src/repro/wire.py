"""A binary wire format for every message the system exchanges.

The simulator passes Python objects between agents; this module gives
them a real byte-level encoding, for two reasons:

* **bandwidth accounting** -- verification objects are the protocols'
  dominant cost, and "O(log n) digests" only means something once it is
  measured in bytes on the wire (benchmark E13);
* **fidelity** -- a deployable client/server pair needs a codec; this
  one covers the full closed universe of message types: queries,
  read/range/update proofs (including the recursive range fringe),
  signatures, epoch deposits, and the protocol envelopes with their
  extras dictionaries.

Format: a tagged, length-prefixed TLV encoding.  Every value is
``tag(1B) || payload``; variable-length payloads carry a 4-byte
big-endian length.  Deterministic: equal objects encode identically.

The codec is two dispatch tables.  Encoding looks a value's exact type
up in ``_ENCODERS`` (a subclass falls back to the first registered
class on its MRO, cached on first use); decoding indexes
``_DECODERS`` by the tag byte and walks one ``bytes`` buffer by integer
offset.  Every record type -- queries, snapshots, proofs, signatures,
deposits, envelopes -- is a dataclass whose fields go on the wire in
declaration order, so one table row (tag, class, field kinds) gives
both directions.  Lists of digests, the bulk of every VO, decode in
one pass: all elements sit at a fixed 33-byte stride, so a single
strided slice compare validates every tag byte.
"""

from __future__ import annotations

import dataclasses
import struct

from repro.crypto.hashing import DIGEST_SIZE, Digest
from repro.crypto.signatures import Signature
from repro.mtree.database import (
    DeleteQuery,
    QueryResult,
    RangeQuery,
    ReadQuery,
    WriteQuery,
)
from repro.mtree.forest import (
    ForestRangeProof,
    ForestReadProof,
    ForestUpdateProof,
)
from repro.mtree.proofs import (
    FringeNode,
    InternalSnapshot,
    LeafSnapshot,
    ProofError,
    RangeProof,
    ReadProof,
    SiblingPair,
    UpdateProof,
)
from repro.protocols.base import ErrorReply, Followup, Request, Response
from repro.protocols.protocol3 import EpochDeposit


class WireError(Exception):
    """Raised on malformed or truncated wire data."""


#: codec revision, recorded in persisted artefacts (evidence bundles)
#: so a future decoder can refuse bytes written by an incompatible one.
CODEC_VERSION = 1


# One tag byte per type in the closed universe.
_TAGS = {
    "none": 0x00, "false": 0x01, "true": 0x02, "int": 0x03, "str": 0x04,
    "bytes": 0x05, "digest": 0x06, "list": 0x07, "dict": 0x08,
    "float": 0x09,
    "read_query": 0x10, "range_query": 0x11, "write_query": 0x12,
    "delete_query": 0x13,
    "leaf_snapshot": 0x20, "internal_snapshot": 0x21, "read_proof": 0x22,
    "range_proof": 0x23, "fringe_node": 0x24, "update_proof": 0x25,
    "sibling_pair": 0x26, "query_result": 0x27,
    "forest_read_proof": 0x28, "forest_update_proof": 0x29,
    "forest_range_proof": 0x2A,
    "signature": 0x30, "epoch_deposit": 0x31,
    "root_deposit": 0x32, "root_attestation": 0x33,
    "request": 0x40, "response": 0x41, "followup": 0x42,
    "error_reply": 0x43,
}

_BYTES_TAG = _TAGS["bytes"]
_DIGEST_TAG = _TAGS["digest"]
# A digest list element is ``tag || 32 bytes``.
_DIGEST_STRIDE = 1 + DIGEST_SIZE

_pack_length = struct.Struct(">I").pack
_unpack_length = struct.Struct(">I").unpack_from
_pack_int = struct.Struct(">q").pack
_unpack_int = struct.Struct(">q").unpack_from
_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack_from


def _truncated() -> WireError:
    return WireError("truncated wire data")


# ---------------------------------------------------------------------------
# Encoding: type -> encoder(value, out)
# ---------------------------------------------------------------------------


def _encode_value(value: object, out: bytearray) -> None:
    kind = type(value)
    (_ENCODERS.get(kind) or _encoder_for(kind))(value, out)


def _encoder_for(kind: type):
    """MRO fallback for subclasses of a registered type, cached."""
    for base in kind.__mro__[1:]:
        encoder = _ENCODERS.get(base)
        if encoder is not None:
            _ENCODERS[kind] = encoder
            return encoder
    raise WireError(f"cannot encode {kind.__name__}")


def _encode_raw(data: bytes, out: bytearray) -> None:
    out += _pack_length(len(data))
    out += data


def _encode_list(value, out: bytearray) -> None:
    out += _LIST_FRAME
    out += _pack_length(len(value))
    for item in value:
        kind = type(item)
        if kind is Digest:
            out += _DIGEST_FRAME
            out += item.value
        elif kind is bytes:
            out += _BYTES_FRAME
            out += _pack_length(len(item))
            out += item
        else:
            (_ENCODERS.get(kind) or _encoder_for(kind))(item, out)


def _encode_seq(value, out: bytearray) -> None:
    _encode_list(tuple(value), out)


def _encode_pairs(value, out: bytearray) -> None:
    _encode_list([tuple(entry) for entry in value], out)


def _encode_dict(value: dict, out: bytearray) -> None:
    out += _DICT_FRAME
    out += _pack_length(len(value))
    for key in sorted(value, key=repr):
        _encode_value(key, out)
        _encode_value(value[key], out)


def _encode_none(value: None, out: bytearray) -> None:
    out += _NONE_FRAME


def _encode_bool(value: bool, out: bytearray) -> None:
    out += _TRUE_FRAME if value else _FALSE_FRAME


def _encode_int(value: int, out: bytearray) -> None:
    out += _INT_FRAME
    out += _pack_int(value)


def _encode_float(value: float, out: bytearray) -> None:
    out += _FLOAT_FRAME
    out += _pack_float(value)


def _encode_str(value: str, out: bytearray) -> None:
    out += _STR_FRAME
    _encode_raw(value.encode(), out)  # UTF-8, the default


def _encode_bytes(value: bytes | bytearray, out: bytearray) -> None:
    out += _BYTES_FRAME
    _encode_raw(bytes(value), out)


def _encode_digest(value: Digest, out: bytearray) -> None:
    out += _DIGEST_FRAME
    out += value.value


# Single-byte tag frames, prebuilt so encoders append constants into
# one growing bytearray instead of assembling throwaway objects.
_NONE_FRAME, _FALSE_FRAME, _TRUE_FRAME, _INT_FRAME, _STR_FRAME, \
    _BYTES_FRAME, _DIGEST_FRAME, _LIST_FRAME, _DICT_FRAME, _FLOAT_FRAME = (
        bytes([_TAGS[name]]) for name in (
            "none", "false", "true", "int", "str", "bytes", "digest", "list",
            "dict", "float"))

_ENCODERS = {
    type(None): _encode_none, bool: _encode_bool, int: _encode_int,
    float: _encode_float, str: _encode_str, bytes: _encode_bytes,
    bytearray: _encode_bytes, Digest: _encode_digest,
    list: _encode_list, tuple: _encode_list, dict: _encode_dict,
}


def encode(message: object) -> bytes:
    """Serialise any message/value in the closed universe."""
    out = bytearray()
    _encode_value(message, out)
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoding: tag byte -> decoder(data, pos) -> (value, next pos)
# ---------------------------------------------------------------------------


# Reading past the end of the buffer surfaces as IndexError (a tag
# byte) or struct.error (a length or number); decode() reports both as
# truncation.  Slices never raise, so every sliced payload is bounds
# checked explicitly.


def _decode_at(data: bytes, pos: int):
    return _DECODERS[data[pos]](data, pos + 1)


def _unknown_tag(data: bytes, pos: int):
    raise WireError(f"unknown wire tag 0x{data[pos - 1]:02x}")


def _decode_raw(data: bytes, pos: int):
    start = pos + 4
    end = start + _unpack_length(data, pos)[0]
    if end > len(data):
        raise _truncated()
    return data[start:end], end


def _constant(value: object):
    def decode_constant(data: bytes, pos: int):
        return value, pos
    return decode_constant


def _decode_int(data: bytes, pos: int):
    return _unpack_int(data, pos)[0], pos + 8


def _decode_float(data: bytes, pos: int):
    return _unpack_float(data, pos)[0], pos + 8


def _decode_str(data: bytes, pos: int):
    start = pos + 4
    end = start + _unpack_length(data, pos)[0]
    if end > len(data):
        raise _truncated()
    return data[start:end].decode(), end  # UTF-8, the default


def _decode_digest(data: bytes, pos: int):
    end = pos + DIGEST_SIZE
    if end > len(data):
        raise _truncated()
    return Digest._from_hash(data[pos:end]), end


def _decode_list(data: bytes, pos: int):
    count = _unpack_length(data, pos)[0]
    pos += 4
    # Fast path: an all-digest list is ``count`` fixed 33-byte strides;
    # one strided slice compare checks every element's tag byte.
    end = pos + _DIGEST_STRIDE * count
    if count and data[pos] == _DIGEST_TAG and end <= len(data) \
            and data[pos:end:_DIGEST_STRIDE] == _DIGEST_FRAME * count:
        from_hash = Digest._from_hash
        return tuple([from_hash(data[at:at + DIGEST_SIZE])
                      for at in range(pos + 1, end, _DIGEST_STRIDE)]), end
    items = []
    append = items.append
    size = len(data)
    decoders = _DECODERS
    for _ in range(count):
        tag = data[pos]
        if tag == _BYTES_TAG:  # keys: parsed inline
            start = pos + 5
            pos = start + _unpack_length(data, pos + 1)[0]
            if pos > size:
                raise _truncated()
            append(data[start:pos])
        else:
            item, pos = decoders[tag](data, pos + 1)
            append(item)
    return tuple(items), pos


def _decode_dict(data: bytes, pos: int):
    count = _unpack_length(data, pos)[0]
    pos += 4
    result = {}
    decoders = _DECODERS
    for _ in range(count):
        key, pos = decoders[data[pos]](data, pos + 1)
        result[key], pos = decoders[data[pos]](data, pos + 1)
    return result, pos


def _decode_pairs(data: bytes, pos: int):
    entries, pos = _decode_at(data, pos)
    return tuple(tuple(entry) for entry in entries), pos


_DECODERS: list = [_unknown_tag] * 256
for _name, _decoder in (
        ("none", _constant(None)), ("false", _constant(False)),
        ("true", _constant(True)),
        ("int", _decode_int), ("float", _decode_float), ("str", _decode_str),
        ("bytes", _decode_raw), ("digest", _decode_digest),
        ("list", _decode_list), ("dict", _decode_dict)):
    _DECODERS[_TAGS[_name]] = _decoder


def decode(data: bytes) -> object:
    """Inverse of :func:`encode`; raises :class:`WireError` on garbage.

    Accepts any bytes-like buffer; decoded bytes and digests are always
    ``bytes``-backed.  Corrupt frames can put a well-formed value of the
    *wrong type* into a structured field (a digest where a key tuple
    belongs); the dataclass validators then raise -- all such type
    confusion is a wire-format error and is normalised to
    :class:`WireError`.
    """
    try:
        if type(data) is not bytes:
            data = bytes(memoryview(data))
        value, end = _DECODERS[data[0]](data, 1)
    except (IndexError, struct.error) as exc:
        raise _truncated() from exc
    except (TypeError, ValueError, ProofError) as exc:
        # snapshot/proof constructors validate their own invariants
        raise WireError(f"malformed frame: {exc}") from exc
    if end != len(data):
        raise WireError("trailing bytes after message")
    return value


def wire_size(message: object) -> int:
    """Bytes this message occupies on the wire."""
    return len(encode(message))


# ---------------------------------------------------------------------------
# Record types: one row per dataclass, fields in declaration order
# ---------------------------------------------------------------------------

# Field kinds: (encoder, decoder).  RAW fields are bare length-prefixed
# bytes with no tag; SEQ fields encode any iterable as a list; PAIRS is
# a sequence of (key, value) entries.
_VALUE = (_encode_value, _decode_at)
_RAW = (_encode_raw, _decode_raw)
_SEQ = (_encode_seq, _decode_at)
_PAIRS = (_encode_pairs, _decode_pairs)


def _register(name: str, cls: type, fields: tuple,
              shape: dict | None = None) -> None:
    """Add one record type to both tables.

    ``shape`` maps a field to the type its decoded value must have (a
    tuple field: every element); a mismatch is a malformed frame of
    this record type.
    """
    names = tuple(field for field, _ in fields)
    assert names == tuple(f.name for f in dataclasses.fields(cls)), cls
    frame = bytes([_TAGS[name]])
    plan = tuple((field, kind[0]) for field, kind in fields)
    readers = tuple(kind[1] for _, kind in fields)
    decoders = _DECODERS

    def encode_record(value, out: bytearray) -> None:
        out += frame
        for field, encode_field in plan:
            encode_field(getattr(value, field), out)

    kinds = dict(fields)
    checks = tuple((names.index(field), required, kinds[field] is _SEQ)
                   for field, required in (shape or {}).items())
    malformed = f"malformed {name.replace('_', ' ')}"

    def decode_record(data: bytes, pos: int):
        args = []
        for read in readers:
            # The two common field kinds are inlined.
            if read is _decode_at:
                value, pos = decoders[data[pos]](data, pos + 1)
            elif read is _decode_raw:
                start = pos + 4
                pos = start + _unpack_length(data, pos)[0]
                if pos > len(data):
                    raise _truncated()
                value = data[start:pos]
            else:
                value, pos = read(data, pos)
            args.append(value)
        for index, required, each in checks:
            value = args[index]
            if not (all(isinstance(item, required) for item in value)
                    if each else isinstance(value, required)):
                raise WireError(malformed)
        return cls(*args), pos

    _ENCODERS[cls] = encode_record
    _DECODERS[_TAGS[name]] = decode_record


# Imported last: repro.net.replication is reached through the repro.net
# package, whose __init__ imports modules that import *this* module --
# deferring until every name above exists keeps either import order
# (wire first or repro.net first) cycle-safe.  replication itself is
# codec-free at module level for the same reason.
from repro.net.replication import RootAttestation, RootDeposit  # noqa: E402

_register("read_query", ReadQuery, (("key", _RAW),))
_register("range_query", RangeQuery, (("low", _RAW), ("high", _RAW)))
_register("write_query", WriteQuery, (("key", _RAW), ("value", _RAW)))
_register("delete_query", DeleteQuery, (("key", _RAW),))
_register("leaf_snapshot", LeafSnapshot,
          (("keys", _SEQ), ("entry_digests", _SEQ)))
_register("internal_snapshot", InternalSnapshot,
          (("keys", _SEQ), ("child_digests", _SEQ)))
_register("read_proof", ReadProof,
          (("key", _RAW), ("value", _VALUE), ("internals", _SEQ), ("leaf", _VALUE)))
_register("fringe_node", FringeNode, (("keys", _SEQ), ("children", _SEQ)))
_register("range_proof", RangeProof,
          (("low", _RAW), ("high", _RAW), ("root", _VALUE), ("entries", _PAIRS)))
_register("sibling_pair", SiblingPair, (("left", _VALUE), ("right", _VALUE)))
_register("update_proof", UpdateProof,
          (("operation", _VALUE), ("key", _RAW), ("internals", _SEQ),
           ("leaf", _VALUE), ("siblings", _SEQ)))
_register("forest_read_proof", ForestReadProof,
          (("shard", _VALUE), ("inner", _VALUE), ("top", _VALUE)),
          {"shard": int, "inner": ReadProof, "top": ReadProof})
_register("forest_update_proof", ForestUpdateProof,
          (("operation", _VALUE), ("shard", _VALUE), ("inner", _VALUE),
           ("top", _VALUE)),
          {"shard": int, "inner": UpdateProof, "top": UpdateProof})
_register("forest_range_proof", ForestRangeProof,
          (("low", _RAW), ("high", _RAW), ("shard_proofs", _SEQ),
           ("top", _VALUE), ("entries", _PAIRS)),
          {"top": RangeProof, "shard_proofs": RangeProof})
_register("query_result", QueryResult, (("answer", _VALUE), ("proof", _VALUE)))
_register("signature", Signature,
          (("signer_id", _VALUE), ("digest", _VALUE), ("raw", _RAW)))
_register("epoch_deposit", EpochDeposit,
          (("user_id", _VALUE), ("epoch", _VALUE), ("sigma", _VALUE),
           ("last", _VALUE), ("signature", _VALUE)))
_register("root_deposit", RootDeposit,
          (("primary_id", _VALUE), ("ctr", _VALUE), ("root", _VALUE),
           ("signature", _VALUE)),
          {"primary_id": str, "ctr": int, "root": Digest, "signature": Signature})
_register("root_attestation", RootAttestation,
          (("witness_id", _VALUE), ("deposit", _VALUE), ("signature", _VALUE)),
          {"witness_id": str, "deposit": RootDeposit, "signature": Signature})
_register("request", Request, (("query", _VALUE), ("extras", _VALUE)))
_register("response", Response, (("result", _VALUE), ("extras", _VALUE)))
_register("followup", Followup, (("extras", _VALUE),))
_register("error_reply", ErrorReply, (("reason", _VALUE), ("extras", _VALUE)))
