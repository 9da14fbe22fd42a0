"""Regression tests pinning the transport failure contract.

Two guarantees the recovery machinery (``ShardWorkerPool._recover``,
the chaos drills) depends on, frozen here so a refactor cannot silently
relax them:

* ``SocketTransport`` construction gives up **by its connect deadline**
  — it neither hangs forever on a server that never binds nor bails on
  the first refused connection.
* A worker killed *between* requests raises a ``ShardWorkerError``
  saying ``"died between requests"`` (recoverable: the lost process
  never saw the request, so respawn-and-retry cannot double-apply),
  while one killed *mid-request* says ``"died mid-request"``, and a
  closed transport says ``"transport is closed"`` — for **both** a
  forked same-host shard and a remote shard's socket.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.shard_workers import ShardWorkerError
from repro.core.transport import (
    SocketTransport,
    create_listener,
    read_frame,
    send_frame,
)


#: Worker-side delay of the delayed probe ``("ping", delay_s)`` sent
#: just before a kill: far longer than a kill takes to land.
PENDING_REPLY_S = 10.0


def dmat(n: int = 4) -> np.ndarray:
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(n, 2))
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


class TestConnectRetryDeadline:
    def test_gives_up_by_the_deadline(self, tmp_path):
        """No server ever binds: the retry loop must stop at the
        deadline (within slack), not hang and not fail instantly."""
        timeout = 0.4
        started = time.monotonic()
        with pytest.raises(ShardWorkerError, match="never came up"):
            SocketTransport(
                f"unix:{tmp_path / 'never.sock'}",
                0,
                2,
                dmat(),
                connect_timeout=timeout,
            )
        elapsed = time.monotonic() - started
        assert elapsed >= timeout, "gave up before the deadline"
        assert elapsed < timeout + 5.0, "kept retrying past the deadline"

    def test_failed_connect_leaves_transport_closed(self, tmp_path):
        transport = None
        try:
            transport = SocketTransport(
                f"unix:{tmp_path / 'never.sock'}",
                0,
                2,
                dmat(),
                connect_timeout=0.2,
            )
        except ShardWorkerError:
            pass
        assert transport is None  # __init__ raised; nothing half-open


class TestForkedMessageContract:
    """A same-host shard: a forked child on a socketpair, really killed."""

    def test_killed_between_requests(self):
        transport = SocketTransport.forked(0, 2, dmat())
        try:
            assert transport.request(("ping",)) == "pong"
            transport.kill()
            with pytest.raises(
                ShardWorkerError, match="died between requests"
            ):
                transport.send(("ping",))
        finally:
            transport.close()

    def test_crashed_child_is_found_dead_before_the_send(self):
        """A child that dies on its own (not through ``kill()``) is seen
        by the non-blocking peek before anything goes on the wire."""
        transport = SocketTransport.forked(0, 2, dmat())
        try:
            assert transport.request(("ping",)) == "pong"
            os.kill(transport._process.pid, signal.SIGKILL)
            transport._process.join(timeout=10)
            with pytest.raises(
                ShardWorkerError, match="repro-shard-0-2 died between requests"
            ):
                transport.send(("ping",))
            assert not transport.alive
        finally:
            transport.close()

    def test_killed_mid_request(self):
        transport = SocketTransport.forked(0, 2, dmat())
        try:
            assert transport.request(("ping",)) == "pong"
            # The request goes on the wire first; the worker holds its
            # reply for PENDING_REPLY_S, so the kill lands while the
            # reply is still pending and recv sees the EOF mid-exchange.
            # (A plain ping can be answered before the kill arrives.)
            transport.send(("ping", PENDING_REPLY_S))
            transport.kill()
            with pytest.raises(ShardWorkerError, match="died mid-request"):
                transport.recv()
        finally:
            transport.close()

    def test_solve_request_is_refused_and_the_worker_lives_on(self):
        """Shard workers serve distances only: ``solve`` is an unknown
        request, answered with an error reply on a stream that stays up."""
        transport = SocketTransport.forked(0, 2, dmat())
        try:
            with pytest.raises(
                ShardWorkerError,
                match="unknown shard-worker request 'solve'",
            ):
                transport.request(("solve", (), 1.0, "greedy"))
            assert transport.request(("ping",)) == "pong"
        finally:
            transport.close()

    def test_closed_transport_says_so(self):
        transport = SocketTransport.forked(0, 2, dmat())
        transport.close()
        with pytest.raises(ShardWorkerError, match="transport is closed"):
            transport.send(("ping",))
        assert not transport.alive


class TestSocketMessageContract:
    """Hand-rolled server: the real one drains connections on its own
    schedule, while these tests need the far side to die *on cue*."""

    @staticmethod
    def _serve(path, pings, die_mid_request=False):
        listener = create_listener(f"unix:{path}")

        def server():
            conn, _ = listener.accept()
            read_frame(conn.recv)  # init handshake
            send_frame(conn, ("ok", None))
            for _ in range(pings):
                read_frame(conn.recv)
                send_frame(conn, ("ok", "pong"))
            if die_mid_request:
                # Take one more request on board, then die without
                # replying: the client's recv sees the EOF mid-exchange.
                try:
                    read_frame(conn.recv)
                except EOFError:
                    pass
            conn.close()  # the scripted death

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        return listener, thread

    def test_killed_between_requests(self, tmp_path):
        path = str(tmp_path / "shard.sock")
        listener, thread = self._serve(path, pings=1)
        transport = SocketTransport(
            f"unix:{path}", 0, 2, dmat(), connect_timeout=10.0
        )
        try:
            assert transport.request(("ping",)) == "pong"
            thread.join(timeout=10)  # server is gone, FIN delivered
            with pytest.raises(
                ShardWorkerError, match="died between requests"
            ):
                transport.send(("ping",))
            assert not transport.alive
        finally:
            transport.close()
            listener.close()

    def test_killed_mid_request(self, tmp_path):
        path = str(tmp_path / "shard.sock")
        listener, thread = self._serve(path, pings=1, die_mid_request=True)
        transport = SocketTransport(
            f"unix:{path}", 0, 2, dmat(), connect_timeout=10.0
        )
        try:
            assert transport.request(("ping",)) == "pong"
            # This send lands while the server is still reading; the
            # server takes it and closes without replying.
            transport.send(("ping",))
            with pytest.raises(ShardWorkerError, match="died mid-request"):
                transport.recv()
            assert not transport.alive
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=10)

    def test_closed_transport_says_so(self, tmp_path):
        path = str(tmp_path / "shard.sock")
        listener, thread = self._serve(path, pings=0, die_mid_request=True)
        transport = SocketTransport(
            f"unix:{path}", 0, 2, dmat(), connect_timeout=10.0
        )
        transport.close()
        with pytest.raises(ShardWorkerError, match="transport is closed"):
            transport.send(("ping",))
        thread.join(timeout=10)
        listener.close()
