#!/usr/bin/env python3
"""Trusted CVS over real sockets: a deployable client/server session.

Starts the TCP server (the untrusted party) in a background thread,
connects two verifying clients over localhost, does real work, then
runs the Protocol II synchronisation check over registers the users
exchange among themselves.  Finally the server operator "forks" the
state to show two users one history each -- and the same register
exchange refuses to reconcile.

Run:  python examples/networked_team.py
Exits 0 only if the honest exchange reads CONSISTENT and the forked one
reads FORKED, so it doubles as a smoke test of the public client API.
"""

import sys

from repro.net import RemoteClient, serve_in_thread, sync_check


def main() -> int:
    print(__doc__)
    server = serve_in_thread(order=8)
    host, port = server.address
    genesis = server.initial_root_digest()
    print(f"server listening on {host}:{port}")
    print(f"genesis root (common knowledge): {genesis.hex()[:16]}...\n")

    alice = RemoteClient(host, port, "alice", genesis)
    bob = RemoteClient(host, port, "bob", genesis)

    # real work over the wire, every byte verified
    alice.put(b"src/common.h", b"#define VERSION 1")
    alice.put(b"src/main.c", b"int main() { return VERSION; }")
    print("alice committed src/common.h and src/main.c")
    print(f"bob reads common.h    : {bob.get(b'src/common.h').decode()}")
    bob.put(b"src/common.h", b"#define VERSION 2")
    print("bob bumped the version")
    print(f"alice sees the bump   : {alice.get(b'src/common.h').decode()}")
    listing = alice.scan(b"src/", b"src/\xff")
    print(f"alice's verified scan : {[k.decode() for k, _ in listing]}\n")

    # the users meet (mail, chat, a hallway) and compare registers
    registers = {"alice": alice.registers(), "bob": bob.registers()}
    honest = sync_check(genesis, registers)
    print(f"sync check over exchanged registers: "
          f"{'CONSISTENT' if honest else 'FORKED'}")

    # now the operator turns malicious: bob gets a private fork
    with server.state_lock:
        stale = server.state.clone()
    alice.put(b"src/main.c", b"int main() { return 0; } /* alice v2 */")
    with server.state_lock:
        live, server.state = server.state, stale
    bob.put(b"src/main.c", b"int main() { return 1; } /* bob's world */")
    bob_registers = bob.registers()
    with server.state_lock:
        server.state = live
    alice.get(b"src/main.c")

    registers = {"alice": alice.registers(), "bob": bob_registers}
    forked = not sync_check(genesis, registers)
    print(f"sync check after the operator forked bob:  "
          f"{'FORKED -- server busted' if forked else 'CONSISTENT'}")

    alice.close()
    bob.close()
    server.shutdown()
    server.server_close()
    return 0 if honest and forked else 1


if __name__ == "__main__":
    sys.exit(main())
