"""The one verified session: window equivalence, retry metrics, and the
server's admission check.

``RemoteClient`` is a single transport whose per-protocol verification
step checks every response; ``window=1`` is the serial client.  These
tests pin that a window changes nothing a verifier can observe, that
every operation and retry is visible in the obs registry, and that a
wire-valid request the protocol can never execute is refused before it
reaches the WAL -- so it cannot stop a durable server from restarting.
"""

import random
import socket

import pytest

from repro import obs
from repro.crypto.hashing import hash_bytes
from repro.mtree.database import (
    DeleteQuery,
    RangeQuery,
    ReadQuery,
    VerifiedDatabase,
    WriteQuery,
)
from repro.net import (
    Protocol1Step,
    Protocol2Step,
    RemoteClient,
    RemoteClientP1,
    RetryPolicy,
    TransientNetworkError,
    count_sync_check,
    serve_async_in_thread,
    serve_in_thread,
)
from repro.net.framing import recv_message, send_message
from repro.protocols.base import ErrorReply, Request, Response, ServerState
from repro.protocols.protocol1 import Protocol1Server, bootstrap_server_state
from repro.protocols.protocol3 import Protocol3Server

CORES = {"threaded": serve_in_thread, "async": serve_async_in_thread}


def _ops(seed: int, count: int = 40) -> list:
    """A seeded single-user op sequence: writes, reads, scans, deletes
    of keys known to exist."""
    rng = random.Random(seed)
    live: set[bytes] = set()
    ops = []
    for step in range(count):
        roll = rng.random()
        key = f"k{rng.randrange(12):02d}".encode()
        if roll < 0.5 or not live:
            ops.append(WriteQuery(key, f"v{step}".encode()))
            live.add(key)
        elif roll < 0.7:
            ops.append(ReadQuery(key))
        elif roll < 0.85:
            ops.append(RangeQuery(b"k03", b"k08"))
        else:
            victim = sorted(live)[rng.randrange(len(live))]
            ops.append(DeleteQuery(victim))
            live.discard(victim)
    return ops


def _run(client, ops) -> list:
    answers = []
    for query in ops:
        answers.extend(client.submit(query))
    answers.extend(client.drain())
    return answers


def _p1_server(core, keys, **kwargs):
    state = ServerState(database=VerifiedDatabase(order=4))
    bootstrap_server_state(state, keys.signers["alice"])
    return CORES[core](order=4, protocol=Protocol1Server(), state=state,
                       block_timeout=10.0, **kwargs)


class TestWindowEquivalence:
    @pytest.mark.parametrize("core", sorted(CORES))
    def test_protocol2_windows_agree(self, core):
        ops = _ops(seed=11)
        observed = {}
        for window in (1, 4, 16):
            server = CORES[core](order=4)
            try:
                host, port = server.address
                with RemoteClient(host, port, "alice",
                                  server.initial_root_digest(), order=4,
                                  window=window) as client:
                    answers = _run(client, ops)
                    observed[window] = (answers, client.sigma, client.last,
                                        client.gctr)
            finally:
                server.stop()
        assert len(observed[1][0]) == len(ops)
        assert observed[4] == observed[1]
        assert observed[16] == observed[1]

    @pytest.mark.parametrize("core", sorted(CORES))
    def test_protocol1_windows_agree(self, core, shared_keys):
        ops = _ops(seed=12, count=24)
        observed = {}
        for window in (1, 4, 16):
            server = _p1_server(core, shared_keys)
            try:
                host, port = server.address
                with RemoteClientP1(host, port, "alice",
                                    shared_keys.signers["alice"],
                                    shared_keys.verifier, order=4,
                                    window=window) as client:
                    answers = _run(client, ops)
                    counts = client.counts()
                    observed[window] = (
                        answers, counts["lctr"], counts["gctr"],
                        count_sync_check({"alice": counts}))
            finally:
                server.stop()
        assert observed[1][3] is True
        assert observed[4] == observed[1]
        assert observed[16] == observed[1]


class TestSessionMetrics:
    @pytest.fixture(autouse=True)
    def _obs(self):
        obs.reset()
        obs.enable()
        yield
        obs.disable()
        obs.reset()

    def test_windowed_session_records_every_latency(self):
        server = serve_async_in_thread(order=4)
        try:
            host, port = server.address
            total = 37
            with RemoteClient(host, port, "alice",
                              server.initial_root_digest(), order=4,
                              window=8) as client:
                _run(client, [WriteQuery(f"k{i % 5}".encode(), b"v")
                              for i in range(total)])
            latency = obs.registry.histogram("net.client_op_ms")
            assert latency.count(user="alice") == total
        finally:
            server.stop()

    def test_closed_port_counts_refused(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransientNetworkError):
            RemoteClient("127.0.0.1", dead_port, "alice",
                         hash_bytes(b"genesis"), order=4,
                         retry=RetryPolicy(attempts=3, base=0.001, seed=0))
        retries = obs.registry.counter("net.retries")
        assert retries.value(reason="refused", user="alice") == 2
        assert retries.total() == 2

    def test_silent_server_counts_timeout(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        host, port = listener.getsockname()
        try:
            client = RemoteClient(
                host, port, "alice", hash_bytes(b"genesis"), order=4,
                op_timeout=0.1,
                retry=RetryPolicy(attempts=2, base=0.001, cap=0.001, seed=0))
            with pytest.raises(TransientNetworkError):
                client.put(b"k", b"v")
            client.close()
        finally:
            listener.close()
        retries = obs.registry.counter("net.retries")
        assert retries.value(reason="timeout", user="alice") == 1
        assert retries.total() == 1


class TestAdmission:
    """A wire-valid request the protocol can never execute -- here
    ``Request(query=None)`` -- must be refused before the WAL append:
    logged, it would fail again on every replay and the durable server
    could never restart."""

    @staticmethod
    def _live_root(server):
        if hasattr(server, "read_state"):
            return server.read_state(lambda s: s.database.root_digest())
        return server.read_quiesced(lambda s: s.database.root_digest())

    @staticmethod
    def _send_batch(sock, user, frames):
        for index, query in enumerate(frames):
            send_message(sock, Request(query=query, extras={
                "user": user, "rid": f"{user}:raw:{index}"}))

    @pytest.mark.parametrize("core", sorted(CORES))
    def test_poison_frame_cannot_stop_a_restart_p2(self, core, tmp_path):
        data_dir = str(tmp_path / "data")
        server = CORES[core](order=4, data_dir=data_dir)
        host, port = server.address
        step = Protocol2Step("mallory", 4)
        sock = socket.create_connection((host, port), timeout=10)
        try:
            frames = [WriteQuery(b"a", b"1"), None, WriteQuery(b"b", b"2"),
                      ReadQuery(b"a")]
            self._send_batch(sock, "mallory", frames)
            requests = [Request(query=q, extras={
                "user": "mallory", "rid": f"mallory:raw:{i}"})
                for i, q in enumerate(frames)]
            replies = [recv_message(sock) for _ in frames]
            assert isinstance(replies[1], ErrorReply)
            assert replies[1].extras["retryable"] is False
            answers = [step.verify(q, r, reply)[0]
                       for q, r, reply in zip(frames, requests, replies)
                       if q is not None]
            assert answers == [None, None, b"1"]
            live = self._live_root(server)
        finally:
            sock.close()
            server.stop(snapshot=False)  # crash: the WAL is all there is
        restarted = CORES[core](order=4, data_dir=data_dir)
        try:
            assert restarted.replayed_records == 3
            assert self._live_root(restarted) == live
            with RemoteClient(host, restarted.address[1], "alice",
                              restarted.initial_root_digest(),
                              order=4) as alice:
                assert alice.get(b"b") == b"2"
        finally:
            restarted.stop()

    @pytest.mark.parametrize("core", sorted(CORES))
    def test_poison_frame_cannot_stop_a_restart_p1(self, core, shared_keys,
                                                   tmp_path):
        data_dir = str(tmp_path / "data")
        server = _p1_server(core, shared_keys, data_dir=data_dir)
        host, port = server.address
        step = Protocol1Step("alice", 4, shared_keys.signers["alice"],
                             shared_keys.verifier)
        sock = socket.create_connection((host, port), timeout=10)
        try:
            frames = [WriteQuery(b"a", b"1"), None, WriteQuery(b"b", b"2")]
            self._send_batch(sock, "alice", frames)
            verified = []
            for index, query in enumerate(frames):
                reply = recv_message(sock)
                if query is None:
                    assert isinstance(reply, ErrorReply)
                    assert reply.extras["retryable"] is False
                    continue
                assert isinstance(reply, Response)
                request = Request(query=query, extras={
                    "user": "alice", "rid": f"alice:raw:{index}"})
                answer, followup = step.verify(query, request, reply)
                verified.append(answer)
                if followup is not None:
                    send_message(sock, followup)
            assert verified == [None, None]
            assert step.lctr == 2
            assert server.quiesce(timeout=10.0)
            live = self._live_root(server)
        finally:
            sock.close()
            server.stop(snapshot=False)
        restarted = CORES[core](order=4, protocol=Protocol1Server(),
                                data_dir=data_dir, block_timeout=10.0)
        try:
            assert self._live_root(restarted) == live
        finally:
            restarted.stop()

    def test_protocol3_still_admits_the_auditor_fetch(self):
        request = Request(query=None, extras={"fetch_epochs": [0]})
        assert Protocol3Server(epoch_length=8).admit(request) is None
        assert Protocol1Server().admit(request) is not None
