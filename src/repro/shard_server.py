"""Standalone shard server: host shard workers behind a socket.

``python -m repro.shard_server --listen host:port`` (or
``--listen unix:/path``) turns one process on any host into a home for
shard workers; point ``--shard-hosts`` at one or more of them.  Each
accepted connection is one shard, served on its own thread by
:func:`repro.core.transport.serve_connection` — the same loop a forked
same-host shard runs: an ``("init", lo, hi, dmat, options)`` frame
builds the shard's :class:`~repro.core.shard_workers._WorkerState`
(distance row block and dynamic-SSSP repairer), then the connection
serves the standard ``reset`` / ``rebind`` / ``rows`` / ``sums`` /
``stats`` / ``ping`` / ``stop`` protocol until the client stops or
disconnects.  Several shards may share one server
(:class:`~repro.core.transport.SocketTransportFactory` round-robins
them); each connection's state is private, so co-hosted shards cannot
interfere.

Frames are the length-prefixed binary format of
:mod:`repro.core.transport`; see that module for the wire layout.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading

from repro.core.transport import (
    bound_address,
    create_listener,
    format_address,
    parse_address,
    serve_connection,
)

__all__ = ["ShardServer", "main"]


class ShardServer:
    """Accept loop + per-connection shard workers (one thread each)."""

    def __init__(self, listen: str, quiet: bool = True) -> None:
        self._address = parse_address(listen)
        self._listener = create_listener(self._address)
        self._bound = bound_address(self._listener)
        self._quiet = quiet
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
        """Accept and serve until :meth:`stop` fires."""
        self._log(f"listening on {self.address}")
        self._listener.settimeout(0.1)
        try:
            while not self._stop.is_set():
                try:
                    conn, _peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                threading.Thread(
                    target=serve_connection,
                    args=(conn, self._log),
                    daemon=True,
                    name="repro-shard-conn",
                ).start()
        finally:
            self._listener.close()
            if self._bound[0] == "unix":
                try:
                    os.unlink(self._bound[1])
                except FileNotFoundError:
                    pass
            self._log("stopped")


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
        "--quiet",
        action="store_true",
        help="suppress the per-connection log lines on stderr",
    )
    args = parser.parse_args(argv)
    try:
        server = ShardServer(args.listen, quiet=args.quiet)
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
