"""Verifying TCP sessions: one transport, one verification step per protocol.

A :class:`RemoteClient` connects to a Trusted-CVS server (threaded or
asyncio core), sends queries over the wire format, and checks every
response exactly as the simulated client of its protocol does.  The
checking is a small I/O-free *verification step*:

* :class:`Protocol2Step` -- derive the old/new roots from the VO, check
  the counter, accumulate the tagged-state XOR registers;
* :class:`Protocol1Step` -- check the signed root at the head of a
  signing run and the hash chain inside it, and sign the run-final
  root (the follow-up the server blocks on).

Everything else is the session's: a window of in-flight operations
(``window=1`` is the serial client), idempotent request ids, evidence
capture on detection, witness-quorum hooks, and the retry loop.

Several clients sharing a server can check their collective view with
:func:`sync_check` -- the Protocol II synchronisation predicate over
registers exchanged out-of-band (users trust each other; how they meet
is outside the server's control, which is the whole point) -- or, for
Protocol I, :func:`count_sync_check`.

Self-healing (Protocol II): every logical operation carries an
idempotent request id, so when a connection drops (or an operation
times out) the session reconnects with capped exponential backoff +
jitter and resends the same ids -- the server's dedup table guarantees
each write is applied exactly once whichever side of the failure it
landed on.  The trust anchor (initial tag, XOR registers, counter) can
be persisted to a file so a restarted *client* resumes verification
where it left off.  Failures that exhaust the retry budget surface as
:class:`TransientNetworkError` -- explicitly *not* an integrity
verdict; nothing about a flaky link implicates the server's honesty.
"""

from __future__ import annotations

import os
import random
import socket
import time
from collections import deque
from typing import NamedTuple

from repro.crypto.hashing import Digest, hash_state, hash_tagged_state, xor_all
from repro.crypto.signatures import Signature
from repro.mtree.database import DeleteQuery, Query, RangeQuery, ReadQuery, WriteQuery
from repro.mtree.forest import StoreSpec
from repro.mtree.proofs import ProofError
from repro.net.framing import FramingError, recv_message, send_message
from repro.storage.atomic import atomic_write
from repro.obs import runtime as _obs
from repro.obs.metrics import REGISTRY as _registry
from repro.protocols.base import ErrorReply, Followup, Request, Response
from repro.protocols.protocol1 import BATCH_FINAL_KEY
from repro.protocols.protocol2 import INITIAL_OWNER, initial_state_tag
from repro.protocols.verify import derive_outcome
from repro.wire import WireError

#: default socket timeouts -- a hung server must not block a client
#: forever; the timeout surfaces as a retryable failure instead.
CONNECT_TIMEOUT_SECONDS = 5.0
OP_TIMEOUT_SECONDS = 15.0

_CLIENT_OP_MS = _registry.histogram(
    "net.client_op_ms", "client operation latency (submit to verified)")
_RECONNECTS = _registry.counter(
    "net.reconnects", "client reconnections after a lost/failed connection")
_RETRIES = _registry.counter(
    "net.retries", "client transport retries, by reason (timeout/reset/refused/busy)")
_DETECTIONS = _registry.counter(
    "net.detections", "integrity violations detected by verifying clients")
_RESENDS = _registry.counter(
    "net.pipeline_resends", "in-flight requests resent after a reconnect")
_WINDOW_FULL = _registry.counter(
    "net.pipeline_window_full", "submissions that had to drain a slot first")


class IntegrityError(Exception):
    """The server's response is inconsistent with every honest history."""


class ServerBusyError(IntegrityError):
    """The server refused the request: it stayed blocked on another
    client's follow-up signature past its block timeout (Protocol I).
    The session remains usable -- retry once the operator catches up."""

    def __init__(self, reply: ErrorReply) -> None:
        super().__init__(reply.reason or "server busy")
        self.reply = reply


class RequestRejected(Exception):
    """The server refused a request it will never execute: the request
    failed the protocol's admission check.  Not retryable, and not an
    integrity verdict -- the fault lies with the request."""

    def __init__(self, reply: ErrorReply) -> None:
        super().__init__(reply.reason or "request rejected")
        self.reply = reply


class TransientNetworkError(Exception):
    """The operation could not complete over the network (connection
    refused/lost, timeout, server busy past the retry budget).  This is
    a *liveness* failure, not an integrity one: retrying later is safe
    because operations carry idempotent request ids."""


class ReplicationDivergence(IntegrityError):
    """A witness quorum proved the primary served this client a root
    lineage it never deposited (fork) or deposited two lineages at once
    (equivocation).  ``deviant`` names the replica the evidence bundle
    at ``evidence_path`` implicates."""

    def __init__(self, reason: str, deviant: str = "primary",
                 evidence_path: str | None = None) -> None:
        super().__init__(reason)
        self.deviant = deviant
        self.evidence_path = evidence_path


class EndpointConnector:
    """Sticky failover over an ordered ``[(host, port), ...]`` list.

    One code path for every multi-server client: the verified sessions
    (:class:`RemoteClient`) and the witness fetch in
    :class:`~repro.net.replication.QuorumChecker` both connect through
    it.  A connect tries the *current* endpoint first -- reconnects
    prefer the server the session last spoke to, keeping dedup windows
    and blocking state warm -- then rotates through the rest in order.
    One full pass with no listener raises the last ``OSError``, so the
    caller's retry budget counts a pass as a single attempt.
    """

    def __init__(self, endpoints, connect_timeout: float,
                 op_timeout: float) -> None:
        self.endpoints = [(str(host), int(port)) for host, port in endpoints]
        if not self.endpoints:
            raise ValueError("endpoint list must not be empty")
        self._connect_timeout = connect_timeout
        self._op_timeout = op_timeout
        self._index = 0
        self.failovers = 0

    @property
    def current(self) -> tuple[str, int]:
        return self.endpoints[self._index]

    def describe(self) -> str:
        return ", ".join(f"{host}:{port}" for host, port in self.endpoints)

    def connect(self) -> socket.socket:
        last_error: OSError | None = None
        for offset in range(len(self.endpoints)):
            index = (self._index + offset) % len(self.endpoints)
            try:
                sock = socket.create_connection(
                    self.endpoints[index], timeout=self._connect_timeout)
            except OSError as exc:
                last_error = exc
                continue
            sock.settimeout(self._op_timeout)
            if index != self._index:
                self.failovers += 1
                self._index = index
            return sock
        raise last_error


class RetryPolicy:
    """Capped exponential backoff with jitter, driven by a seeded RNG.

    ``attempts`` bounds tries per operation (the first try included);
    the delay before retry ``n`` is ``min(cap, base * 2**n)`` scaled by
    a uniform jitter factor in ``[1 - jitter, 1]``.  A seeded policy
    produces a reproducible backoff schedule -- the chaos harness runs
    on fixed seeds end to end.
    """

    def __init__(self, attempts: int = 6, base: float = 0.05,
                 cap: float = 2.0, jitter: float = 0.5,
                 busy_attempts: int = 4, seed: int | None = None) -> None:
        if attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        self.attempts = attempts
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self.busy_attempts = busy_attempts
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        raw = min(self.cap, self.base * (2 ** attempt))
        return raw * (1.0 - self.jitter * self._rng.random())


def rid_for(user_id: str, nonce: str, seq: int) -> str:
    """The idempotency token of a user's logical operation ``seq``.

    ``user:nonce:seq``; the bare ``user:seq`` form survives only for
    trust anchors written before sessions carried a nonce.
    """
    if nonce:
        return f"{user_id}:{nonce}:{seq}"
    return f"{user_id}:{seq}"


def _check_rid(request: Request, response: Response) -> None:
    echoed = response.extras.get("rid")
    if echoed is not None and echoed != request.extras.get("rid"):
        raise IntegrityError(
            f"response names request id {echoed!r} but the oldest "
            f"in-flight operation is {request.extras.get('rid')!r}: the "
            "server reordered or dropped operations within one connection")


def _derive(query: Query, response: Response, order):
    try:
        return derive_outcome(query, response.result, order)
    except ProofError as exc:
        raise IntegrityError(f"verification object rejected: {exc}") from exc


def _failure_reason(exc: Exception) -> str:
    """The ``net.retries`` reason for a transport failure."""
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, ConnectionRefusedError):
        return "refused"
    return "reset"


class Protocol2Step:
    """Protocol II response checking: counter, VO-derived root
    transition, and the tagged-state XOR registers (paper Section 4.3).

    Does no I/O.  :meth:`verify` either raises :class:`IntegrityError`
    with the registers untouched -- so an evidence bundle records the
    pre-operation state -- or folds the operation in.  The registers
    plus ``initial_tag`` are the user's trust anchor.

    Transport policy: a lost connection or a busy refusal is retried
    (reconnect and resend the whole window verbatim), because request
    ids make every resend idempotent.
    """

    protocol = "II"
    resilient = True

    def __init__(self, user_id: str, order) -> None:
        self.user_id = user_id
        self.order = order
        self.initial_tag: Digest | None = None
        self.sigma = Digest.zero()
        self.last = Digest.zero()
        self.gctr = 0
        self.operations = 0
        #: the post-state root of the last verified operation
        self.root: Digest | None = None

    def verify(self, query: Query, request: Request,
               response: Response) -> tuple[object, None]:
        _check_rid(request, response)
        try:
            ctr = int(response.extras["ctr"])
            last_user = response.extras["last_user"]
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError("malformed response") from exc
        if ctr < self.gctr:
            raise IntegrityError(
                f"operation counter regressed: {ctr} after {self.gctr}")
        if ctr == 0 and last_user != INITIAL_OWNER:
            raise IntegrityError("initial state attributed to a user")
        outcome = _derive(query, response, self.order)
        old_tag = hash_tagged_state(outcome.old_root, ctr, last_user)
        new_tag = hash_tagged_state(outcome.new_root, ctr + 1, self.user_id)
        self.sigma = self.sigma ^ old_tag ^ new_tag
        self.last = new_tag
        self.gctr = ctr + 1
        self.operations += 1
        self.root = outcome.new_root
        return outcome.answer, None

    def registers(self) -> dict:
        """This user's contribution to a sync check."""
        return {"sigma": self.sigma, "last": self.last}

    def evidence_fields(self, seq: int) -> tuple[int, dict]:
        """``(file index, bundle fields)`` for a failed operation ``seq``."""
        return seq, {
            "op_index": self.operations,
            "client_state": {"sigma": self.sigma, "last": self.last,
                             "gctr": self.gctr, "seq": seq},
        }

    def anchor_fields(self) -> dict[str, str]:
        return {
            "initial_tag": self.initial_tag.hex(),
            "sigma": self.sigma.hex(),
            "last": self.last.hex(),
            "gctr": str(self.gctr),
            "operations": str(self.operations),
        }

    def load_anchor_fields(self, fields: dict[str, str]) -> None:
        """Raises ``KeyError``/``ValueError`` on a missing or bad field."""
        self.initial_tag = Digest.from_hex(fields["initial_tag"])
        self.sigma = Digest.from_hex(fields["sigma"])
        self.last = Digest.from_hex(fields["last"])
        self.gctr = int(fields["gctr"])
        self.operations = int(fields["operations"])


class Protocol1Step:
    """Protocol I response checking: signed roots, with signing runs.

    A batching server answers a window of W requests as one *signing
    run*: only the last response carries ``batch_final=True``; an
    unbatched server marks every response final.  Per response:

    * *run head* (the first response after this user signed, or the
      first of the session): RSA-verify the presented signature over
      ``h(old_root || ctr)``;
    * *inside a run*: hash-chain membership -- the VO-derived old root
      must be the previous operation's derived new root, with ``ctr``
      advancing by exactly one;
    * *run final*: sign ``h(new_root || ctr + 1)`` -- the follow-up the
      server blocks on.

    Does no I/O; :meth:`verify` returns the follow-up to send.

    Transport policy: no transparent retry.  Protocol I's blocking
    follow-up makes a half-done operation visible to every other user
    (blocking is inherent to fork-sequential consistency), so a lost
    connection or a busy refusal is reported to the caller.
    """

    protocol = "I"
    resilient = False
    initial_tag = None

    def __init__(self, user_id: str, order, signer, verifier) -> None:
        self.user_id = user_id
        self.order = order
        self._signer = signer
        self._verifier = verifier
        self.lctr = 0
        self.gctr = 0
        self.root: Digest | None = None
        #: signatures produced; ~operations/W against a batching server
        self.followups_sent = 0
        self._expect_signed = True

    def verify(self, query: Query, request: Request,
               response: Response) -> tuple[object, Followup | None]:
        _check_rid(request, response)
        try:
            ctr = int(response.extras["ctr"])
            last_user = response.extras["last_user"]
            signature = response.extras["sig"]
            final = bool(response.extras.get(BATCH_FINAL_KEY, True))
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError("malformed response") from exc
        if ctr < self.gctr:
            raise IntegrityError(
                f"operation counter regressed: {ctr} after {self.gctr}")
        outcome = _derive(query, response, self.order)
        if self._expect_signed:
            expected = hash_state(outcome.old_root, ctr)
            if (not isinstance(signature, Signature)
                    or signature.signer_id != last_user
                    or not self._verifier.verify(signature, expected)):
                raise IntegrityError("illegitimate state signature")
        else:
            if outcome.old_root != self.root:
                raise IntegrityError(
                    "batch root chain broken: this operation's pre-state "
                    "is not the previous operation's post-state")
            if ctr != self.gctr:
                raise IntegrityError(
                    f"batch counter not contiguous: {ctr} after "
                    f"{self.gctr - 1}")
        self.lctr += 1
        self.gctr = ctr + 1
        self.root = outcome.new_root
        self._expect_signed = final
        if not final:
            return outcome.answer, None
        self.followups_sent += 1
        signed = self._signer.sign(hash_state(outcome.new_root, ctr + 1))
        return outcome.answer, Followup(
            extras={"sig": signed, "user": self.user_id})

    def counts(self) -> dict:
        """This user's contribution to the Protocol I count sync."""
        return {"lctr": self.lctr, "gctr": self.gctr}

    def evidence_fields(self, seq: int) -> tuple[int, dict]:
        from repro.net import evidence

        return self.lctr, {
            "op_index": self.lctr,
            "client_state": {"lctr": self.lctr, "gctr": self.gctr},
            "verifier_keys": evidence.key_directory(self._verifier),
        }


class _Op(NamedTuple):
    query: Query
    request: Request
    seq: int
    started_ns: int


_ANCHOR_MAGIC = "client-anchor 1"


def _step_attr(name: str) -> property:
    return property(lambda self: getattr(self.step, name),
                    doc=f"The verification step's ``{name}``.")


class RemoteClient:
    """One user's verified session against a TCP server.

    The session owns the transport: a window of up to ``window``
    in-flight operations (``submit`` queues one, ``drain`` completes
    them all in order, ``execute`` is submit-and-drain), request ids,
    evidence capture, witness-quorum hooks, and the retry loop.  A
    serial client is a session with ``window=1``.  Each response is
    checked by the session's verification step -- Protocol II
    registers (:class:`Protocol2Step`) by default, Protocol I signed
    roots (:class:`Protocol1Step`) when ``signer`` and ``verifier`` are
    given (:class:`RemoteClientP1` spells that constructor).

    ``anchor_path`` (Protocol II, optional) persists the trust anchor
    -- initial tag, sigma/last registers, counter, and the request-id
    sequence -- after every verified operation, so a restarted client
    process can resume the same session: pass the same path and
    ``initial_root`` may be omitted.

    ``endpoints`` (optional) replaces the single ``host``/``port`` pair
    with an ordered failover list walked through one shared
    :class:`EndpointConnector`.  ``quorum`` attaches a
    :class:`~repro.net.replication.QuorumChecker`; each verified
    operation's expected ``(ctr, new_root)`` is then recorded and
    confirmed against f+1 random witnesses every ``quorum_every``
    operations (and on demand via :meth:`quorum_check`).

    Windowed crash recovery (Protocol II): when the connection drops
    mid-window the session reconnects and resends *every* in-flight
    request verbatim; the server's windowed dedup table answers the
    already-executed ones from memory, so application stays
    exactly-once -- which is why the server's dedup window must be at
    least as deep as ``window``.
    """

    def __init__(self, host, port: int | None = None,
                 user_id: str = "anonymous",
                 initial_root: Digest | None = None,
                 order: "int | StoreSpec" = 8,
                 connect_timeout: float = CONNECT_TIMEOUT_SECONDS,
                 op_timeout: float = OP_TIMEOUT_SECONDS,
                 retry: RetryPolicy | None = None,
                 anchor_path: str | None = None,
                 evidence_dir: str | None = None,
                 endpoints=None,
                 quorum=None, quorum_every: int = 8,
                 window: int = 1,
                 signer=None, verifier=None) -> None:
        if window < 1:
            raise ValueError("pipeline window must be at least 1")
        if quorum_every < 1:
            raise ValueError("quorum_every must be at least 1")
        self.user_id = user_id
        self.window = window
        self._order = order
        if endpoints is None:
            if port is None and isinstance(host, (list, tuple)):
                endpoints = list(host)
            else:
                endpoints = [(host, port)]
        self._connector = EndpointConnector(
            endpoints, connect_timeout, op_timeout)
        self._host, self._port = self._connector.current
        self.quorum = quorum
        if quorum is not None:
            quorum.set_order(order)
        self._quorum_every = quorum_every
        self._ops_since_quorum = 0
        self._retry = retry or RetryPolicy()
        self._anchor_path = anchor_path
        self._evidence_dir = evidence_dir
        self._capture: list[bytes] = []
        self._inflight: deque[_Op] = deque()
        self._seq = 0
        # Request ids must name a *logical operation* uniquely for as
        # long as the server's dedup window may remember it; the
        # per-session nonce keeps a new session for the same user from
        # colliding with an old one.  The anchor persists it, so a
        # resumed process keeps deduping its own in-flight retries.
        self._rid_nonce = os.urandom(4).hex()
        if signer is not None:
            if anchor_path is not None:
                raise ValueError("Protocol I sessions keep no trust anchor")
            self.step = Protocol1Step(user_id, order, signer, verifier)
        else:
            self.step = Protocol2Step(user_id, order)
            if anchor_path is not None and os.path.isfile(anchor_path):
                self._load_anchor()
            if self.step.initial_tag is None:
                if initial_root is None:
                    raise ValueError(
                        "initial_root is required unless a saved anchor exists")
                self.step.initial_tag = initial_state_tag(initial_root)
        self._sock: socket.socket | None = None
        self._connect_with_retry()

    sigma = _step_attr("sigma")
    last = _step_attr("last")
    gctr = _step_attr("gctr")
    operations = _step_attr("operations")
    lctr = _step_attr("lctr")
    followups_sent = _step_attr("followups_sent")

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # -- connection management --------------------------------------------

    def _connect_with_retry(self) -> None:
        """The constructor's first connect, under the same retry budget
        as every other transport failure: a server mid-restart must not
        kill client construction with a raw OSError."""
        policy = self._retry
        for attempt in range(policy.attempts):
            try:
                self._sock = self._connector.connect()
                self._host, self._port = self._connector.current
                return
            except OSError as exc:
                last_error = exc
                if attempt + 1 < policy.attempts:
                    self._count_retry(_failure_reason(exc))
                    time.sleep(policy.delay(attempt))
        raise TransientNetworkError(
            f"could not connect to {self._connector.describe()} after "
            f"{policy.attempts} attempt(s): {last_error}") from last_error

    def _reconnect(self) -> None:
        """Open a fresh connection and resend every in-flight request
        verbatim.  Any of them may or may not have executed before the
        old connection died; identical rids make the resend idempotent,
        so the whole window is re-answered in order."""
        self._sock = self._connector.connect()
        self._host, self._port = self._connector.current
        if _obs.enabled:
            _RECONNECTS.inc(user=self.user_id)
        for op in self._inflight:
            send_message(self._sock, op.request)
            if _obs.enabled:
                _RESENDS.inc(user=self.user_id)

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _count_retry(self, reason: str) -> None:
        if _obs.enabled:
            _RETRIES.inc(reason=reason, user=self.user_id)

    def close(self) -> None:
        # Draining on close would mask errors; callers drain explicitly.
        self._drop_connection()
        if self.quorum is not None:
            self.quorum.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- anchor persistence -------------------------------------------------

    def _load_anchor(self) -> None:
        """Parse the persisted trust anchor, defensively.

        The anchor file is the client's root of trust; a corrupted or
        truncated one must be rejected with an explicit
        :class:`IntegrityError` -- never a raw parse crash, and never a
        silent fallback to some partially-read register state.  An
        anchor that parses fine but names a *different* user is a
        caller mix-up, not corruption: that stays ``ValueError``.
        """
        def corrupt(detail: str, cause: Exception | None = None):
            error = IntegrityError(
                f"trust anchor {self._anchor_path!r} is corrupted or "
                f"truncated: {detail}")
            raise error from cause

        try:
            with open(self._anchor_path, "r", encoding="ascii") as handle:
                lines = handle.read().splitlines()
        except UnicodeDecodeError as exc:
            corrupt("not ASCII text", exc)
        except OSError as exc:
            corrupt(f"unreadable ({exc})", exc)
        if not lines or lines[0] != _ANCHOR_MAGIC:
            corrupt("missing anchor magic header")
        fields = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(" ")
            if not _ or not value:
                corrupt(f"malformed field line {line!r}")
            fields[name] = value
        if "user" not in fields:
            corrupt("no user field")
        if fields["user"] != self.user_id:
            raise ValueError(
                f"anchor belongs to {fields['user']!r}, not {self.user_id!r}")
        try:
            self.step.load_anchor_fields(fields)
            self._seq = int(fields["seq"])
            # absent in pre-nonce anchors: keep their bare rid format
            self._rid_nonce = fields.get("nonce", "")
        except KeyError as exc:
            corrupt(f"missing field {exc.args[0]!r}", exc)
        except ValueError as exc:
            corrupt(f"unparseable field value ({exc})", exc)

    def save_anchor(self) -> None:
        """Persist the trust anchor atomically and durably.

        The anchor is the client's entire defence against a forking
        server; it gets the full tmp + fsync + rename + dir-fsync
        sequence so a crash can never leave a torn or resurrected-stale
        anchor behind.
        """
        if self._anchor_path is None:
            return
        lines = [_ANCHOR_MAGIC, f"user {self.user_id}"]
        lines.extend(f"{name} {value}"
                     for name, value in self.step.anchor_fields().items())
        lines.append(f"seq {self._seq}")
        if self._rid_nonce:
            lines.append(f"nonce {self._rid_nonce}")
        atomic_write(self._anchor_path,
                     ("\n".join(lines) + "\n").encode("ascii"))

    # -- operations ---------------------------------------------------------

    def submit(self, query: Query) -> list:
        """Queue one operation; returns answers completed on the way.

        Blocks only when the window is full (drains the oldest slot).
        """
        drained = []
        while len(self._inflight) >= self.window:
            if _obs.enabled:
                _WINDOW_FULL.inc(user=self.user_id)
            drained.append(self._drain_one())
        request = Request(query=query, extras={
            "user": self.user_id,
            "rid": rid_for(self.user_id, self._rid_nonce, self._seq)})
        started = time.perf_counter_ns() if _obs.enabled else 0
        self._inflight.append(_Op(query, request, self._seq, started))
        self._seq += 1
        self._send(request)
        return drained

    def drain(self) -> list:
        """Complete (and verify) every in-flight operation, in order."""
        answers = []
        while self._inflight:
            answers.append(self._drain_one())
        return answers

    def execute(self, query: Query) -> object:
        """Send a query; verify the response; return the trusted answer."""
        answers = self.submit(query)
        answers.extend(self.drain())
        return answers[-1]

    def _send(self, request: Request) -> None:
        """Send on the live connection.  On failure a resilient step
        reconnects at once and resends the whole window (this request
        included); Protocol I reports the failure."""
        if self._sock is not None:
            try:
                send_message(self._sock, request)
                return
            except OSError as exc:
                self._drop_connection()
                failure: Exception = exc
        else:
            failure = ConnectionResetError("the session's connection was lost")
        if not self.step.resilient:
            raise TransientNetworkError(
                f"Protocol I session failed in transit: {failure}") from failure
        policy = self._retry
        for attempt in range(policy.attempts):
            self._count_retry(_failure_reason(failure))
            if attempt:
                time.sleep(policy.delay(attempt - 1))
            try:
                self._reconnect()
                return
            except OSError as exc:
                self._drop_connection()
                failure = exc
        raise TransientNetworkError(
            f"could not reconnect after {policy.attempts} attempt(s): "
            f"{failure}") from failure

    def _receive(self, request: Request) -> object:
        """Read the reply to ``request``, the oldest in-flight operation.

        Connection-level failures (the stream may be mid-frame
        desynchronised) and busy refusals are retried under the retry
        policy when the step is resilient, each retry counted once in
        ``net.retries`` by reason; otherwise they surface at once.
        """
        policy = self._retry
        failures = busy = 0
        while True:
            try:
                if self._sock is None:
                    if not self.step.resilient:
                        raise ConnectionResetError(
                            "the session's connection was lost")
                    self._reconnect()
                self._capture.clear()
                message = recv_message(self._sock, capture=self._capture)
                if message is None:
                    raise FramingError("server closed the connection")
            except (OSError, FramingError, WireError) as exc:
                self._drop_connection()
                failures += 1
                if not self.step.resilient:
                    raise TransientNetworkError(
                        f"Protocol I operation failed in transit: {exc}") from exc
                if failures >= policy.attempts:
                    raise TransientNetworkError(
                        f"operation failed after {failures} connection "
                        f"failure(s) and {busy} busy refusal(s): {exc}") from exc
                self._count_retry(_failure_reason(exc))
                time.sleep(policy.delay(failures - 1))
                continue
            if not isinstance(message, ErrorReply):
                return message
            if message.extras.get("retryable") is False:
                self._inflight.popleft()
                raise RequestRejected(message)
            if not self.step.resilient:
                self._inflight.popleft()  # refused: it never executed
                raise ServerBusyError(message)
            # The session is intact -- the server refused, it did not
            # vanish.  Back off and re-ask.
            busy += 1
            if busy >= policy.busy_attempts:
                raise TransientNetworkError(
                    f"operation failed after {failures} connection "
                    f"failure(s) and {busy} busy refusal(s): "
                    f"{message.reason}") from ServerBusyError(message)
            self._count_retry("busy")
            time.sleep(policy.delay(busy - 1))
            if len(self._inflight) == 1:
                self._send(request)
            else:
                # Later requests are queued behind the refused one on
                # this connection; resend the window in order instead.
                self._drop_connection()

    def _drain_one(self) -> object:
        op = self._inflight[0]
        message = self._receive(op.request)
        self._inflight.popleft()
        try:
            if not isinstance(message, Response):
                raise IntegrityError(
                    "server closed the connection or spoke garbage")
            answer, followup = self.step.verify(op.query, op.request, message)
        except IntegrityError as exc:
            self._on_detection(exc, op)
            raise
        if followup is not None:
            try:
                send_message(self._sock, followup)
            except OSError as exc:
                self._drop_connection()
                raise TransientNetworkError(
                    f"Protocol I follow-up failed in transit: {exc}") from exc
        # Only after any due follow-up went out: a divergence raised by
        # the quorum check must not leave the server blocked on us.
        self._record_quorum(op.request)
        if self._anchor_path is not None:
            self.save_anchor()
        if op.started_ns:
            _CLIENT_OP_MS.observe(
                (time.perf_counter_ns() - op.started_ns) / 1e6,
                user=self.user_id)
        self._maybe_quorum_check()
        return answer

    # -- witness quorum -----------------------------------------------------

    def _record_quorum(self, request: Request) -> None:
        """Remember a verified op's expected lineage entry: the primary
        must have deposited exactly the derived root at the new
        counter."""
        if self.quorum is None:
            return
        from repro.wire import encode

        self.quorum.record(
            self.step.gctr, self.step.root, request_frame=encode(request),
            response_frame=self._capture[-1] if self._capture else b"")

    def _maybe_quorum_check(self) -> None:
        """Every ``quorum_every`` verified ops, confirm the pending
        lineage against a random f+1 witness sample.  Counters no
        witness holds yet (replication lag) simply stay pending; a
        proven divergence raises :class:`ReplicationDivergence` out of
        the operation that triggered the check."""
        if self.quorum is None:
            return
        self._ops_since_quorum += 1
        if self._ops_since_quorum >= self._quorum_every:
            self._ops_since_quorum = 0
            self.quorum.check()

    def quorum_check(self, require_all: bool = False):
        """Confirm the recorded lineage now; see
        :meth:`~repro.net.replication.QuorumChecker.check`."""
        if self.quorum is None:
            return set()
        return self.quorum.check(require_all=require_all)

    def _on_detection(self, exc: IntegrityError, op: _Op) -> None:
        """A verification failed: count it and, when an evidence
        directory is configured, capture a forensic bundle (the verbatim
        frames, the pre-operation client state, the anchor lineage, and
        for Protocol I the public-key directory) so the deviation is
        provable offline.  Sets ``exc.evidence_path``."""
        if _obs.enabled:
            _DETECTIONS.inc(user=self.user_id, protocol=self.step.protocol)
        if self._evidence_dir is None:
            return
        from repro.net import evidence
        from repro.wire import encode

        index, fields = self.step.evidence_fields(op.seq)
        bundle = evidence.response_bundle(
            protocol=self.step.protocol, user_id=self.user_id,
            reason=str(exc), order=StoreSpec.coerce(self._order).to_wire(),
            request_frame=encode(op.request),
            response_frame=self._capture[-1] if self._capture else b"",
            anchor=evidence.anchor_lineage(self.step.initial_tag,
                                           self._anchor_path),
            **fields)
        os.makedirs(self._evidence_dir, exist_ok=True)
        path = os.path.join(self._evidence_dir,
                            f"{self.user_id}-{index}.evidence")
        exc.evidence_path = evidence.write_bundle(path, bundle)

    # convenience verbs
    def get(self, key: bytes) -> bytes | None:
        return self.execute(ReadQuery(key))

    def put(self, key: bytes, value: bytes) -> None:
        self.execute(WriteQuery(key, value))

    def delete(self, key: bytes) -> None:
        self.execute(DeleteQuery(key))

    def scan(self, low: bytes, high: bytes):
        return self.execute(RangeQuery(low, high))

    def registers(self) -> dict:
        """This user's contribution to a Protocol II sync check."""
        return self.step.registers()

    def counts(self) -> dict:
        """This user's contribution to the Protocol I count sync."""
        return self.step.counts()


class RemoteClientP1(RemoteClient):
    """A Protocol I session: :class:`RemoteClient` with the
    :class:`Protocol1Step`.

    Needs a signer (this user's key) and a verifier holding every
    user's public key (from the PKI).  Against a batching server a
    window of W operations becomes one signing run, so RSA work drops
    to about one verify and one sign per W operations.
    """

    def __init__(self, host: str, port: int, user_id: str,
                 signer, verifier, order: "int | StoreSpec" = 8,
                 **kwargs) -> None:
        super().__init__(host, port, user_id, order=order,
                         signer=signer, verifier=verifier, **kwargs)


#: The windowed sessions are the same classes; the names remain for
#: callers that spell out pipelining.
PipelinedRemoteClient = RemoteClient
PipelinedRemoteClientP1 = RemoteClientP1


def count_sync_check(counts: dict[str, dict]) -> bool:
    """Protocol I's predicate over exchanged counts: some user's gctr
    must equal the total of everyone's lctr."""
    total = sum(entry["lctr"] for entry in counts.values())
    operated = [entry for entry in counts.values() if entry["lctr"] > 0]
    if not operated:
        return total == 0
    return any(entry["gctr"] == total for entry in operated)


def sync_check(initial_root: Digest, registers: dict[str, dict]) -> bool:
    """The Protocol II predicate over all users' exchanged registers.

    True iff the server's behaviour is consistent with one serial
    history (Theorem 4.2); exchange the registers over any channel the
    server does not control.
    """
    initial_tag = initial_state_tag(initial_root)
    total = xor_all(entry["sigma"] for entry in registers.values())
    lasts = [entry["last"] for entry in registers.values() if entry["last"]]
    if not lasts:
        return total == Digest.zero()
    return any((initial_tag ^ last) == total for last in lasts)
