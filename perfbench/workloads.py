"""The three benchmark workloads and their seeded inputs.

Everything the program under test receives is made here from the
workload seed: the prepared store (keys, 64-byte values, insertion
order) and each session's query stream.  The same ``(seed, size)``
gives byte-identical stores and the same ``(seed, workload, session)``
gives byte-identical query streams; ``--digest`` prints one SHA-256
over both so the self-test can compare two independent generations.

Usage::

    python3 perfbench/workloads.py --digest --workload commit-pipelined --seed 7
    python3 perfbench/workloads.py --prepare DIR --workload signed-durable --seed 7
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.mtree.database import (  # noqa: E402
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.mtree.forest import StoreSpec  # noqa: E402

ORDER = 8
VALUE_BYTES = 64
SESSIONS = 2
SCAN_KEYS = 16
#: RSA modulus size of the Protocol I users' keys.
KEY_BITS = 1024


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server deployment."""

    name: str
    #: "repro-async" = ``repro serve --async``; "repro-threaded" =
    #: ``repro serve``; "p1-durable" = Protocol I on the async core
    #: over the sqlite page store.
    server: str
    store_size: int
    shards: int
    #: "pipelined" (PipelinedRemoteClient), "stopwait" (RemoteClient)
    #: or "pipelined-p1" (PipelinedRemoteClientP1).
    client: str
    window: int
    read_share: float
    scan_share: float
    #: "zipf" (s = 1 over the store's keys) or "uniform".
    skew: str

    @property
    def spec(self) -> StoreSpec:
        return StoreSpec(order=ORDER, shards=self.shards)

    @property
    def protocol(self) -> str:
        return "I" if self.client == "pipelined-p1" else "II"


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("commit-pipelined", server="repro-async", store_size=10_000,
                 shards=1, client="pipelined", window=16, read_share=0.0,
                 scan_share=0.0, skew="zipf"),
        Workload("checkout-stopwait", server="repro-threaded",
                 store_size=100_000, shards=1, client="stopwait", window=1,
                 read_share=0.85, scan_share=0.10, skew="uniform"),
        Workload("signed-durable", server="p1-durable", store_size=20_000,
                 shards=8, client="pipelined-p1", window=16, read_share=0.0,
                 scan_share=0.0, skew="uniform"),
    )
}


class StoreInputs:
    """The prepared store's contents for one ``(seed, size)``.

    ``keys`` is in insertion order (random, so leaves fill as they do
    under real traffic); ``sorted_keys`` serves range scans; ``ranked``
    maps a Zipf rank to a key through a seeded permutation, so the hot
    keys are spread over the tree rather than clustered in one leaf.
    """

    def __init__(self, seed: int, size: int) -> None:
        rng = random.Random(f"store:{seed}:{size}")
        seen: set[bytes] = set()
        keys: list[bytes] = []
        while len(keys) < size:
            key = b"f%012x" % rng.getrandbits(48)
            if key not in seen:
                seen.add(key)
                keys.append(key)
        self.keys = keys
        self.values = {key: rng.randbytes(VALUE_BYTES) for key in keys}
        self.sorted_keys = sorted(keys)
        self.ranked = list(keys)
        rng.shuffle(self.ranked)

    def build_database(self, spec: StoreSpec) -> VerifiedDatabase:
        """The store as a server would hold it.  Inserts go straight into
        the Merkle tree: building a VO per entry would only add time."""
        database = VerifiedDatabase(order=spec.order, shards=spec.shards,
                                    top_order=spec.top_order)
        for key in self.keys:
            database.mtree.insert(key, self.values[key])
        database.root_digest()
        return database


class QueryStream:
    """One session's endless, seeded query sequence for a workload."""

    def __init__(self, workload: Workload, store: StoreInputs, seed: int,
                 session: int) -> None:
        self._workload = workload
        self._store = store
        self._rng = random.Random(f"ops:{seed}:{workload.name}:{session}")
        if workload.skew == "zipf":
            total = 0.0
            cumulative = []
            for rank in range(1, len(store.ranked) + 1):
                total += 1.0 / rank
                cumulative.append(total)
            self._zipf = cumulative
        else:
            self._zipf = None

    def _key(self) -> bytes:
        if self._zipf is None:
            return self._store.keys[self._rng.randrange(len(self._store.keys))]
        point = self._rng.random() * self._zipf[-1]
        rank = min(bisect.bisect_left(self._zipf, point),
                   len(self._zipf) - 1)
        return self._store.ranked[rank]

    def __iter__(self):
        return self

    def __next__(self):
        draw = self._rng.random()
        workload = self._workload
        if draw < workload.read_share:
            return ReadQuery(self._key())
        if draw < workload.read_share + workload.scan_share:
            ordered = self._store.sorted_keys
            first = self._rng.randrange(len(ordered) - SCAN_KEYS + 1)
            return RangeQuery(ordered[first], ordered[first + SCAN_KEYS - 1])
        return WriteQuery(self._key(), self._rng.randbytes(VALUE_BYTES))


def probe_key(session: int) -> bytes:
    """A key outside every store, written once per session before the
    crash check; it sorts after all generated keys (``f...``)."""
    return b"z-probe-%d" % session


def user_name(session: int) -> str:
    return f"u{session}"


def signers(seed: int):
    """Deterministic Protocol I key pairs, one per session."""
    from repro.crypto.signatures import Signer, Verifier

    keys = {user_name(session): Signer.generate(
        user_name(session), bits=KEY_BITS, seed=seed * 131 + session)
        for session in range(SESSIONS)}
    verifier = Verifier({user: signer.public_key
                         for user, signer in keys.items()})
    return keys, verifier


def inputs_digest(workload: Workload, seed: int, ops: int = 2000) -> str:
    """SHA-256 over the prepared store's serialised bytes and the first
    ``ops`` wire-encoded queries of every session."""
    from repro.mtree.persistence import dump_database
    from repro.protocols.base import Request
    from repro.wire import encode

    store = StoreInputs(seed, workload.store_size)
    digest = hashlib.sha256(dump_database(store.build_database(workload.spec)))
    for session in range(SESSIONS):
        stream = QueryStream(workload, store, seed, session)
        for _ in range(ops):
            digest.update(encode(Request(query=next(stream))))
    return digest.hexdigest()


def prepare_store(workload: Workload, seed: int, out_dir: str) -> None:
    """Write the prepared store a server starts from into ``out_dir``:
    ``db.snapshot`` (a ``repro serve`` repository) for Protocol II, or
    a bootstrapped sqlite page store under ``data/`` for Protocol I.
    ``meta.json`` records the genesis root the clients trust."""
    from repro.mtree.persistence import dump_database

    database = StoreInputs(seed, workload.store_size).build_database(
        workload.spec)
    os.makedirs(out_dir)
    if workload.protocol == "II":
        with open(os.path.join(out_dir, "db.snapshot"), "wb") as handle:
            handle.write(dump_database(database))
    else:
        from repro.net.core import ServerCore
        from repro.protocols.base import ServerState
        from repro.protocols.protocol1 import (
            Protocol1Server,
            bootstrap_server_state,
        )

        state = ServerState(database=database)
        keys, _verifier = signers(seed)
        bootstrap_server_state(state, keys[user_name(0)])
        core = ServerCore(protocol=Protocol1Server(), state=state,
                          data_dir=os.path.join(out_dir, "data"),
                          backend="sqlite")
        core.close_store()
    with open(os.path.join(out_dir, "meta.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"root": database.root_digest().hex()}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--digest", action="store_true",
                      help="print the SHA-256 of the seed's inputs")
    mode.add_argument("--prepare", metavar="DIR",
                      help="write the seed's prepared store into DIR")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.prepare:
        prepare_store(workload, args.seed, args.prepare)
    else:
        print(inputs_digest(workload, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
