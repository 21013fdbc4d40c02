"""Out-of-process verified-ops benchmark for the Trusted CVS server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The server runs in its own process (``perfbench/server.py``).  This
process is the load generator: two verifying sessions of the library
clients, one on the main thread and one on a second thread, each a
closed loop that waits for its verified answer before counting an
operation done.  Every run checks its outputs (read answers against
the values written, the Protocol II sync check or the Protocol I count
sync, and on ``signed-durable`` a SIGKILL and restart that must keep
every acknowledged write) and prints, as its last line, one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a separate traced phase (``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
LAUNCHER = os.path.join(HERE, "server.py")

#: server starts timed per run; setup_s is their median.
SETUP_REPS = 3
#: closed-loop time before the measured window (pipelines fill, lazily
#: built caches warm up).
WARMUP_S = 1.0
#: length of the sub-windows the measured window is cut into
SUBWINDOW_S = 1.0
#: a sub-window with at most this share of CPU time stolen counts as quiet
QUIET_STEAL = 0.01
#: the run aborts (non-zero exit) if it is still going after this long.
WATCHDOG_S = 170
#: pause between the last Protocol I follow-up and the SIGKILL: the
#: protocol has no follow-up resend, so a follow-up lost to the crash
#: would leave the restarted server blocked.
FOLLOWUP_SETTLE_S = 0.3
#: prepared stores kept on disk across runs (newest first).
STORE_CACHE = 6

_SERVING = re.compile(r" on ([0-9.]+):(\d+),")


class CheckFailed(Exception):
    """An output check failed: the run is not correct."""


# -- outside-in resource accounting -----------------------------------------

class ServerProcess:
    """One server process, its stdout line protocol and its /proc files."""

    def __init__(self, argv: list[str], log_path: str, trace: bool) -> None:
        command = [sys.executable, LAUNCHER] + (["--trace"] if trace else [])
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command + argv, cwd=ROOT, stdout=subprocess.PIPE,
                stdin=subprocess.PIPE if trace else subprocess.DEVNULL,
                stderr=log)
        self._buffer = b""
        self.log_path = log_path
        match = None
        try:
            while match is None:
                match = _SERVING.search(self.read_line(timeout=120.0))
        except BaseException:
            self.kill()
            raise
        self.address = (match.group(1), int(match.group(2)))

    def read_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise CheckFailed(f"server silent for {timeout:.0f} s")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise CheckFailed(f"server exited: {self._log_tail()}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8", "replace")

    def command(self, text: str, answer: str) -> None:
        """Send a trace-control command and wait for its answer."""
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()
        while self.read_line(timeout=60.0) != answer:
            pass

    def _log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="ascii") as handle:
            return handle.read()

    def cpu_seconds(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM in /proc status")

    def write_bytes(self) -> int:
        for line in self._proc_file("io").splitlines():
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
        raise CheckFailed("no write_bytes in /proc io")

    def kill(self) -> None:
        """SIGKILL (crash-equivalent) and wait until the process is gone."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for pipe in (self.proc.stdout, self.proc.stdin):
            if pipe is not None:
                pipe.close()


def wire_bytes(port: int) -> int:
    """Payload bytes sent plus received on this process's TCP
    connections to ``port``, from the kernel's TCP_INFO counters."""
    total = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            if not os.readlink(f"/proc/self/fd/{name}").startswith("socket:"):
                continue
            probe = socket.socket(fileno=os.dup(int(name)))
        except OSError:
            continue
        try:
            if probe.family != socket.AF_INET or \
                    probe.type != socket.SOCK_STREAM or \
                    probe.getpeername()[1] != port:
                continue
            info = probe.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 256)
            acked, received = struct.unpack_from("<QQ", info, 120)
            total += acked + received
        except OSError:
            continue
        finally:
            probe.close()
    return total


def vm_steal() -> tuple[int, int]:
    """(steal ticks, all ticks) of this virtual machine's CPUs."""
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(field) for field in handle.readline().split()[1:]]
    return ticks[7], sum(ticks)


def process_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


# -- sessions ---------------------------------------------------------------

class Expected:
    """What a correct answer may be: a key's prepared value or any value
    a session wrote to it (noted before the write is sent)."""

    def __init__(self, store) -> None:
        from repro.mtree.database import RangeQuery, ReadQuery

        self._read, self._range = ReadQuery, RangeQuery
        self._initial = store.values
        self._sorted = store.sorted_keys
        self._index = {key: i for i, key in enumerate(store.sorted_keys)}
        self._written: dict[bytes, set[bytes]] = {}

    def note_write(self, key: bytes, value: bytes) -> None:
        self._written.setdefault(key, set()).add(value)

    def _valid(self, key: bytes, value) -> bool:
        return value == self._initial.get(key) or \
            value in self._written.get(key, ())

    def check(self, query, answer) -> None:
        if isinstance(query, self._read):
            ok = self._valid(query.key, answer)
        elif isinstance(query, self._range):
            first = self._index[query.low]
            want = self._sorted[first:self._index[query.high] + 1]
            ok = [key for key, _ in answer] == want and all(
                self._valid(key, value) for key, value in answer)
        else:
            ok = answer is None
        if not ok:
            raise CheckFailed(f"wrong answer to {query!r}: {answer!r:.200}")


class Session:
    """One user's verifying client, driven as a closed loop."""

    def __init__(self, client, stream, expected: Expected,
                 pipelined: bool) -> None:
        self.client = client
        self.stream = stream
        self.expected = expected
        self.pipelined = pipelined
        #: (completion time, latency) per verified operation
        self.done: list[tuple[float, float]] = []
        self.attempted = 0
        self.verified = 0
        self.error: str | None = None
        self._pending: deque = deque()

    def _complete(self, answers, now: float) -> None:
        for answer in answers:
            query, started = self._pending.popleft()
            self.expected.check(query, answer)
            self.verified += 1
            self.done.append((now, now - started))

    def issue(self, query) -> None:
        if query.is_update:
            self.expected.note_write(query.key, query.value)
        self.attempted += 1
        self._pending.append((query, time.perf_counter()))
        if self.pipelined:
            answers = self.client.submit(query)
        else:
            answers = [self.client.execute(query)]
        self._complete(answers, time.perf_counter())

    def drain(self) -> None:
        if self.pipelined and self._pending:
            self._complete(self.client.drain(), time.perf_counter())

    def run(self, until: float, tick=None) -> None:
        """Closed loop until ``until``, then drain the pipeline.  ``tick``
        is called before every operation and once when the loop ends.
        Any failure (an IntegrityError included) ends the session."""
        try:
            while self.error is None and time.perf_counter() < until:
                if tick is not None:
                    tick()
                self.issue(next(self.stream))
            if tick is not None:
                tick()
            self.drain()
        except Exception as exc:  # the run's verdict; never throughput
            self.error = f"{type(exc).__name__}: {exc}"


def run_sessions(sessions: list[Session], until: float, tick=None) -> None:
    """Both sessions until ``until``; session 0 runs on this thread and
    calls ``tick``."""
    worker = threading.Thread(target=sessions[1].run, args=(until,),
                              name="session-1", daemon=True)
    worker.start()
    sessions[0].run(until, tick)
    worker.join(timeout=WATCHDOG_S)
    failures = [s.error for s in sessions if s.error]
    if failures:
        raise CheckFailed("; ".join(failures))


class Sample(NamedTuple):
    """Outside-in counters read at one sub-window boundary."""

    time: float
    done: int
    client_cpu: float
    server_cpu: float
    wire: int
    disk: int
    steal: tuple[int, int]


class Phase:
    """One measured closed-loop window, cut into sub-windows of
    ``SUBWINDOW_S``.  At every boundary the main thread samples the
    outside-in counters.  The metrics pool the sub-windows in which the
    virtual machine lost no more CPU time to steal than in the median
    one, or at most ``QUIET_STEAL`` (at least half of them, all of them
    on a quiet host): on a shared host, descheduling inflates latency
    and cost by far more than the stolen time, and it comes in bursts."""

    def __init__(self, server: ServerProcess, sessions: list[Session],
                 seconds: float) -> None:
        port = server.address[1]
        samples: list[Sample] = []

        def sample() -> None:
            samples.append(Sample(
                time.perf_counter(), sum(len(s.done) for s in sessions),
                process_cpu_seconds(), server.cpu_seconds(), wire_bytes(port),
                server.write_bytes(), vm_steal()))

        count = max(2, round(seconds / SUBWINDOW_S))
        sample()
        start = samples[0].time
        boundaries = deque(start + seconds * (i + 1) / count
                           for i in range(count))

        def tick() -> None:
            if boundaries and time.perf_counter() >= boundaries[0]:
                boundaries.popleft()
                sample()

        marks = [len(s.done) for s in sessions]
        run_sessions(sessions, start + seconds, tick)
        self.peak_rss_mb = server.peak_rss_mb()
        done = sorted(item for s, mark in zip(sessions, marks)
                      for item in s.done[mark:])
        windows = list(zip(samples, samples[1:]))
        limit = max(QUIET_STEAL, statistics.median_low(
            _share(before.steal, after.steal) for before, after in windows))
        kept = [(before, after) for before, after in windows
                if _share(before.steal, after.steal) <= limit]
        latencies = [lat for before, after in kept for t, lat in done
                     if before.time <= t < after.time]
        wall = sum(after.time - before.time for before, after in kept)
        client_cpu = sum(after.client_cpu - before.client_cpu
                         for before, after in kept)
        server_cpu = sum(after.server_cpu - before.server_cpu
                         for before, after in kept)
        if len(latencies) < 100:
            raise CheckFailed(f"only {len(latencies)} ops completed")
        self.latency_samples = len(latencies)
        self.ops_per_s = len(latencies) / wall
        self.p50_ms = statistics.median(latencies) * 1e3
        self.p99_ms = statistics.quantiles(latencies, n=100)[98] * 1e3
        self.client_cpu_per_op = client_cpu / len(latencies)
        self.server_cpu_per_op = server_cpu / len(latencies)
        self.client_busy = client_cpu / wall
        self.server_busy = server_cpu / wall
        self.kept_seconds = wall
        self.steal_kept = limit
        first, last = samples[0], samples[-1]
        self.steal_all = _share(first.steal, last.steal)
        self.ops = last.done - first.done
        self.server_cpu = last.server_cpu - first.server_cpu
        self.wire = last.wire - first.wire
        self.disk_bytes = last.disk - first.disk


def _share(before: tuple[int, int], after: tuple[int, int]) -> float:
    return (after[0] - before[0]) / max(1, after[1] - before[1])


# -- the run -----------------------------------------------------------------

class Bench:
    def __init__(self, workload, seed: int, trace: bool) -> None:
        from workloads import StoreInputs

        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.run_dir = os.path.join(WORK, f"run-{os.getpid()}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.log_path = os.path.join(self.run_dir, "server.log")
        self.store_dir = prepared_store(workload, seed)
        with open(os.path.join(self.store_dir, "meta.json"),
                  encoding="utf-8") as handle:
            self.root_hex = json.load(handle)["root"]
        self.store = StoreInputs(seed, workload.store_size)
        self.servers: list[ServerProcess] = []
        self.sessions: list[Session] = []
        self.retired: list[Session] = []
        if workload.protocol == "I":
            from workloads import signers

            self.keys, self.verifier = signers(seed)

    # -- servers and clients -----------------------------------------------

    def fresh_data(self) -> str:
        """A private copy of the prepared store for one server life."""
        target = os.path.join(self.run_dir, "data")
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.store_dir, target)
        return target

    def start_server(self, data: str, trace: bool) -> ServerProcess:
        server = self.workload.server
        if server == "p1-durable":
            argv = ["p1", os.path.join(data, "data")]
        else:
            argv = ["repro", "-R", data, "serve", "-p", "0"]
            if server == "repro-async":
                argv.append("--async")
        process = ServerProcess(argv, self.log_path, trace)
        self.servers.append(process)
        return process

    def connect(self, address, session: int):
        from repro.crypto.hashing import Digest
        from repro.net import (
            PipelinedRemoteClient,
            PipelinedRemoteClientP1,
            RemoteClient,
        )
        from workloads import user_name

        host, port = address
        user = user_name(session)
        workload = self.workload
        if workload.client == "pipelined-p1":
            return PipelinedRemoteClientP1(
                host, port, user, self.keys[user], self.verifier,
                order=workload.spec, window=workload.window)
        root = Digest.from_hex(self.root_hex)
        if workload.client == "pipelined":
            return PipelinedRemoteClient(host, port, user, root,
                                         order=workload.spec,
                                         window=workload.window)
        return RemoteClient(host, port, user, root, order=workload.spec)

    def setup(self) -> float:
        """Spawn the server on a fresh copy of the prepared store and open
        both sessions; returns seconds from spawn to session 0's first
        verified answer."""
        from workloads import QueryStream

        for session in self.sessions:
            session.client.close()
        self.retired.extend(self.sessions)
        for server in self.servers:
            server.kill()
        self.data = self.fresh_data()
        expected = Expected(self.store)
        started = time.perf_counter()
        self.server = self.start_server(self.data, self.trace)
        self.sessions = []
        for index in range(2):
            client = self.connect(self.server.address, index)
            session = Session(
                client, QueryStream(self.workload, self.store, self.seed, index),
                expected, pipelined=self.workload.client != "stopwait")
            session.issue(next(session.stream))
            session.drain()
            if index == 0:
                elapsed = time.perf_counter() - started
            self.sessions.append(session)
        return elapsed

    # -- end-of-run checks ---------------------------------------------------

    def check_sync(self) -> None:
        from repro.crypto.hashing import Digest
        from repro.net import sync_check

        registers = {s.client.user_id: s.client.registers()
                     for s in self.sessions}
        if not sync_check(Digest.from_hex(self.root_hex), registers):
            raise CheckFailed("Protocol II sync check failed")

    def check_crash_restart(self) -> None:
        """Write a probe per session, SIGKILL the server, restart it on
        the same data directory, and verify one read per session: the
        probe must hold its value and the Protocol I count sync must
        cover every acknowledged operation."""
        from repro.mtree.database import ReadQuery, WriteQuery
        from repro.net import count_sync_check
        from workloads import VALUE_BYTES, probe_key

        probes = {}
        for index, session in enumerate(self.sessions):
            value = (b"probe:%d:%d:" % (self.seed, index)).ljust(VALUE_BYTES, b".")
            session.attempted += 1
            session.client.execute(WriteQuery(probe_key(index), value))
            session.verified += 1
            probes[index] = value
        time.sleep(FOLLOWUP_SETTLE_S)
        self.server.kill()
        restarted = self.start_server(self.data, trace=False)
        counts = {s.client.user_id: s.client.counts() for s in self.sessions}
        for index, session in enumerate(self.sessions):
            session.client.close()
            client = self.connect(restarted.address, index)
            try:
                session.attempted += 1
                answer = client.execute(ReadQuery(probe_key(index)))
                if answer != probes[index]:
                    raise CheckFailed(
                        f"acked probe write of session {index} lost: "
                        f"read {answer!r} after restart")
                session.verified += 1
                entry = counts[client.user_id]
                entry["lctr"] += client.lctr
                entry["gctr"] = client.gctr
            finally:
                client.close()
        if not count_sync_check(counts):
            raise CheckFailed(f"Protocol I count sync failed: {counts}")

    def op_counts(self) -> tuple[int, int]:
        """(attempted, verified) over every session of the run."""
        sessions = self.retired + self.sessions
        return (sum(s.attempted for s in sessions),
                sum(s.verified for s in sessions))

    def close(self) -> None:
        for session in self.sessions:
            try:
                session.client.close()
            except OSError:
                pass
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.run_dir, ignore_errors=True)


def prepared_store(workload, seed: int) -> str:
    """The cached prepared store for ``(workload, seed)``, built in a
    child process on first use (not timed)."""
    stores = os.path.join(WORK, "stores")
    path = os.path.join(stores, f"{workload.name}-{seed}")
    if not os.path.isdir(path):
        os.makedirs(stores, exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                        "--prepare", tmp, "--workload", workload.name,
                        "--seed", str(seed)], check=True, timeout=600)
        try:
            os.replace(tmp, path)
        except OSError:  # another run built the same store first
            shutil.rmtree(tmp, ignore_errors=True)
        cached = sorted((os.path.join(stores, name) for name in os.listdir(stores)),
                        key=os.path.getmtime, reverse=True)
        for old in cached[STORE_CACHE:]:
            shutil.rmtree(old, ignore_errors=True)
    return path


def trace_metrics(bench: Bench, untraced: Phase, seconds: float) -> dict:
    """Run the traced phase and turn its spans into per-layer metrics."""
    from spans import CLIENT_TARGETS, Tracer, followup_wait_ns, load_spans, summarize

    server_path = os.path.join(bench.run_dir, "server-spans.json")
    client_path = os.path.join(bench.run_dir, "client-spans.json")
    tracer = Tracer()
    tracer.install(CLIENT_TARGETS)
    try:
        bench.server.command("start", "trace started")
        tracer.start()
        traced = Phase(bench.server, bench.sessions, seconds)
        tracer.dump(client_path)
        bench.server.command(f"dump {server_path}", "trace dumped")
    finally:
        tracer.uninstall()
    server_spans = load_spans(server_path)
    server = summarize(server_spans)
    client = summarize(load_spans(client_path))

    batches = server["server.apply_batch"]
    requests = server["server.apply_request"]
    server_ops = batches.note_sum + requests.calls
    applies = sum(1 for span in server_spans
                  if span[1] == "server.apply_batch" and span[6][0]) \
        + requests.calls
    #: every verified op runs derive_outcome exactly once
    client_ops = client["client.derive_outcome"].calls
    if not server_ops or not client_ops:
        raise CheckFailed("traced phase saw no operations")

    def server_us(*names):
        return sum(server[name].self_ns for name in names) / 1e3 / server_ops

    def client_us(name):
        return client[name].self_ns / 1e3 / client_ops

    snapshots = server["server.write_snapshot"]
    wal_syncs = server["server.wal_sync"].calls + server["server.wal_append"].note_sum
    return {
        "server.execute_us_per_op": (server_us("server.execute"), "us"),
        "server.refresh_root_us_per_op": (server_us("server.refresh_roots"), "us"),
        "server.nodes_rehashed_per_op": (
            server["server.refresh_roots"].note_sum / server_ops, "count"),
        "server.wire_encode_us_per_op": (server_us("server.wire_encode"), "us"),
        "server.wire_decode_us_per_op": (server_us("server.wire_decode"), "us"),
        "server.apply_us_per_op": (
            server_us("server.apply_batch", "server.apply_request"), "us"),
        "server.ops_per_batch": (server_ops / applies, "count"),
        "server.wal_append_us_per_op": (server_us("server.wal_append"), "us"),
        "server.wal_sync_us_per_op": (server_us("server.wal_sync"), "us"),
        "server.wal_syncs_per_op": (wal_syncs / server_ops, "count"),
        "server.checkpoint_ms": (
            snapshots.total_ns / 1e6 / snapshots.calls if snapshots.calls else 0.0,
            "ms"),
        "server.checkpoints_per_kop": (snapshots.calls * 1e3 / server_ops, "count"),
        "server.checkpoint_share": (
            snapshots.total_ns / 1e9 / traced.server_cpu, "share"),
        "server.followup_wait_us_per_op": (
            followup_wait_ns(server_spans) / 1e3 / server_ops, "us"),
        "server.disk_write_bytes_per_op": (
            untraced.disk_bytes / untraced.ops, "bytes"),
        "server.busy_share": (untraced.server_busy, "share"),
        "client.wire_decode_us_per_op": (client_us("client.wire_decode"), "us"),
        "client.verify_us_per_op": (client_us("client.derive_outcome"), "us"),
        "client.state_tag_us_per_op": (client_us("client.hash_tagged_state"), "us"),
        "client.recv_wait_us_per_op": (client_us("client.recv_message"), "us"),
        "client.sign_us_per_op": (client_us("client.sign"), "us"),
        "client.sig_verify_us_per_op": (client_us("client.sig_verify"), "us"),
        "client.signatures_per_op": (client["client.sign"].calls / client_ops, "count"),
        "client.busy_share": (untraced.client_busy, "share"),
        "trace.overhead_share": (traced.ops_per_s / untraced.ops_per_s, "share"),
    }


def measure(bench: Bench, seconds: float) -> dict:
    """Set up, warm up, measure (and trace), then check; returns the
    metrics as ``{name: (value, unit)}``."""
    setups = [bench.setup() for _ in range(SETUP_REPS)]
    run_sessions(bench.sessions, time.perf_counter() + WARMUP_S)
    phase = Phase(bench.server, bench.sessions, seconds)
    layers = trace_metrics(bench, phase, seconds) if bench.trace else None
    if bench.workload.protocol == "II":
        bench.check_sync()
    else:
        bench.check_crash_restart()
    print(f"# {bench.workload.name} seed={bench.seed}: {phase.ops} ops in "
          f"{seconds:g} s; metrics pool the {phase.kept_seconds:.1f} s of "
          f"sub-windows with vm steal <= {phase.steal_kept:.1%} (whole "
          f"window {phase.steal_all:.1%}): {phase.latency_samples} latency "
          f"samples; setups {[round(s, 3) for s in setups]} s", flush=True)
    if layers is not None:
        return layers
    attempted, verified = bench.op_counts()
    return {
        "verified_ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (phase.p50_ms, "ms"),
        "op_p99_ms": (phase.p99_ms, "ms"),
        "verified_op_share": (verified / attempted, "share"),
        "setup_s": (statistics.median(setups), "s"),
        "server_peak_rss_mb": (phase.peak_rss_mb, "MB"),
        "server_cpu_us_per_op": (phase.server_cpu_per_op * 1e6, "us"),
        "client_cpu_us_per_op": (phase.client_cpu_per_op * 1e6, "us"),
        "wire_bytes_per_op": (phase.wire / phase.ops, "bytes"),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; a failed check or an IntegrityError makes the
    result ``correct: false`` with no metrics."""
    bench = Bench(workload, seed, trace)
    try:
        try:
            metrics = measure(bench, seconds)
            correct = True
        except Exception:  # the run's verdict, reported below
            traceback.print_exc()
            metrics, correct = {}, False
        attempted, verified = bench.op_counts()
        return {"correct": correct, "attempted": max(attempted, 1),
                "failed": max(attempted, 1) - verified,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}
    finally:
        bench.close()


def _watchdog(_signum, _frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
