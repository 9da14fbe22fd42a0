"""Standalone shard server: host shard workers behind a socket.

``python -m repro.shard_server --listen host:port`` (or
``--listen unix:/path``) turns one process on any host into a home for
shard workers.  Each accepted connection is one shard: it opens with an
``("init", lo, hi, dmat, options)`` frame that builds the same
:class:`~repro.core.shard_workers._WorkerState` a pipe worker would
own — distance row block, dynamic-SSSP repairer and service store —
and then serves the standard ``reset`` / ``rebind`` / ``rows`` /
``sums`` / ``solve`` / ``stats`` / ``ping`` / ``stop`` protocol until
the client stops or disconnects.  Several shards may
share one server (the coordinator's
:class:`~repro.core.transport.SocketTransportFactory` round-robins
them); each connection's state is private, so co-hosted shards cannot
interfere.

``--auto-exit`` makes the server quit once its last connection closes
(after having served at least one).  The auto-spawned same-host server
runs in this mode so an abandoned coordinator cannot leak a listener —
when the pool's transports close (or die), the server follows, and the
Unix socket file is unlinked on the way out.

Frames are the length-prefixed binary format of
:mod:`repro.core.transport`; see that module for the wire layout.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
from typing import Optional

from repro.core.shard_workers import _WorkerState, serve_request
from repro.core.transport import (
    FramingError,
    bound_address,
    create_listener,
    format_address,
    parse_address,
    read_frame,
    send_frame,
)

__all__ = ["ShardServer", "main"]

#: Worker options the ``init`` handshake may set (anything else is a
#: client/server version skew and is rejected before state is built).
_INIT_OPTIONS = frozenset({"backend", "dynamic"})


class ShardServer:
    """Accept loop + per-connection shard workers (one thread each)."""

    def __init__(
        self,
        listen: str,
        auto_exit: bool = False,
        quiet: bool = True,
    ) -> None:
        self._address = parse_address(listen)
        self._listener = create_listener(self._address)
        self._bound = bound_address(self._listener)
        self._auto_exit = auto_exit
        self._quiet = quiet
        self._lock = threading.Lock()
        self._active = 0
        self._served_any = False
        self._stop = threading.Event()

    @property
    def address(self) -> str:
        """The listening address (TCP port 0 resolved to the real one)."""
        return format_address(self._bound)

    def _log(self, message: str) -> None:
        if not self._quiet:
            print(f"repro.shard_server: {message}", file=sys.stderr, flush=True)

    def stop(self) -> None:
        """Ask the accept loop to wind down (threads drain on their own)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Accept and serve until :meth:`stop` (or auto-exit) fires."""
        self._log(f"listening on {self.address}")
        self._listener.settimeout(0.1)
        try:
            while not self._stop.is_set():
                try:
                    conn, _peer = self._listener.accept()
                except socket.timeout:
                    with self._lock:
                        if (
                            self._auto_exit
                            and self._served_any
                            and self._active == 0
                        ):
                            break
                    continue
                except OSError:
                    break
                with self._lock:
                    self._active += 1
                    self._served_any = True
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    daemon=True,
                    name="repro-shard-conn",
                )
                thread.start()
        finally:
            self._listener.close()
            if self._bound[0] == "unix":
                try:
                    os.unlink(self._bound[1])
                except FileNotFoundError:
                    pass
            self._log("stopped")

    def _serve_connection(self, conn: socket.socket) -> None:
        state: Optional[_WorkerState] = None
        try:
            message = read_frame(conn.recv)
            if (
                not isinstance(message, tuple)
                or len(message) != 5
                or message[0] != "init"
            ):
                send_frame(conn, ("error", "expected an 'init' handshake"))
                return
            _kind, lo, hi, dmat, options = message
            unknown = set(options) - _INIT_OPTIONS
            if unknown:
                send_frame(
                    conn, ("error", f"unknown init options {sorted(unknown)}")
                )
                return
            state = _WorkerState(int(lo), int(hi), dmat, **options)
            send_frame(conn, ("ok", None))
            self._log(f"shard [{lo}, {hi}) connected")
            while True:
                try:
                    message = read_frame(conn.recv)
                except EOFError:
                    return  # client vanished without a stop; that's fine
                reply, stop = serve_request(state, message)
                send_frame(conn, reply)
                if stop:
                    return
        except (FramingError, OSError) as error:
            self._log(f"connection dropped: {error}")
        finally:
            conn.close()
            with self._lock:
                self._active -= 1
            if state is not None:
                self._log(f"shard [{state.lo}, {state.hi}) disconnected")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard_server",
        description=(
            "Host shard workers behind a TCP or Unix-domain socket; "
            "point --shard-hosts at one or more of these."
        ),
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="ADDR",
        help="address to listen on: host:port (use port 0 for an "
        "ephemeral port, printed on startup) or unix:/path",
    )
    parser.add_argument(
        "--auto-exit",
        action="store_true",
        help="exit once the last connection closes (after serving at "
        "least one) — used by the same-host auto-spawn launcher",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-connection log lines on stderr",
    )
    args = parser.parse_args(argv)
    try:
        server = ShardServer(
            args.listen, auto_exit=args.auto_exit, quiet=args.quiet
        )
    except (OSError, ValueError) as error:
        print(f"repro.shard_server: {error}", file=sys.stderr)
        return 1
    # Announce the bound address unless quiet; with --quiet still
    # announce an ephemeral TCP port — it is the one output a launcher
    # cannot know without us.
    if not args.quiet or (parse_address(args.listen)[-1] == 0):
        print(f"listening on {server.address}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
