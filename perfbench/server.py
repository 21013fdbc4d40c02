"""Server launcher: runs one deployment of the program in this process.

    python3 perfbench/server.py [--trace] repro -R REPO serve -p 0 [--async]
    python3 perfbench/server.py [--trace] p1 DATA_DIR

``repro`` hands the remaining arguments to the program's own CLI
(``repro serve`` exactly as a user runs it).  ``p1`` serves Protocol I
on the async core over the sqlite page store in ``DATA_DIR``, durable
with fsync on and the default snapshot interval; ``repro serve`` has no
Protocol I mode.  Both print ``serving ... on HOST:PORT, ...`` once
listening.

With ``--trace`` the server-side wrappers of :mod:`spans` are
installed before serving starts, and stdin takes two commands:
``start`` (clear and start recording, answers ``trace started``) and
``dump PATH`` (stop recording, write the spans, answer ``trace
dumped``).
"""

from __future__ import annotations

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _control(tracer) -> None:
    for line in sys.stdin:
        command = line.split()
        if command == ["start"]:
            tracer.start()
            print("trace started", flush=True)
        elif len(command) == 2 and command[0] == "dump":
            tracer.dump(command[1])
            print("trace dumped", flush=True)


def _serve_protocol1(data_dir: str) -> None:
    from repro.net import serve_async_in_thread
    from repro.protocols.protocol1 import Protocol1Server

    handle = serve_async_in_thread(protocol=Protocol1Server(),
                                   data_dir=data_dir, backend="sqlite",
                                   lock=True)
    host, port = handle.address
    print(f"serving {data_dir} on {host}:{port}, Protocol I, durable "
          f"(sqlite), async", flush=True)
    threading.Event().wait()


def main(argv: list[str]) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        from spans import SERVER_TARGETS, Tracer

        tracer = Tracer()
        tracer.install(SERVER_TARGETS)
        threading.Thread(target=_control, args=(tracer,), daemon=True,
                         name="trace-control").start()
    if argv[:1] == ["repro"]:
        from repro.cli import main as repro_main

        return repro_main(argv[1:])
    if len(argv) == 2 and argv[0] == "p1":
        _serve_protocol1(argv[1])
        return 0
    print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
