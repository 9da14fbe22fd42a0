"""Framing codec and socket transport: exact round-trips, hostile bytes.

The codec carries every byte of the socket shard protocol, so its
contract is absolute: any protocol value round-trips bit-identically
(ndarrays keep dtype, shape and bytes; tuples keep structure; control
values survive the pickle envelope), a reader that yields one byte at a
time reassembles the same frame a bulk read would, and malformed input —
bad magic, oversized lengths, truncated payloads, unknown tags — raises
:class:`FramingError` instead of returning garbage.  A clean close
*between* frames is the one non-error: :class:`EOFError`.
"""

import io
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transport import (
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME_BYTES,
    FramingError,
    bound_address,
    create_listener,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    format_address,
    parse_address,
    read_frame,
    recv_frame,
    send_frame,
)


def _assert_value_equal(got, expected) -> None:
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
    elif isinstance(expected, tuple):
        assert isinstance(got, tuple) and len(got) == len(expected)
        for g, e in zip(got, expected):
            _assert_value_equal(g, e)
    elif isinstance(expected, dict):
        assert isinstance(got, dict) and got.keys() == expected.keys()
        for key, e in expected.items():
            _assert_value_equal(got[key], e)
    else:
        assert got == expected


def _one_byte_reader(data: bytes):
    """A ``read(n)`` that ignores ``n`` and dribbles one byte at a time."""
    stream = io.BytesIO(data)
    return lambda n: stream.read(min(1, n))


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)

_arrays = st.builds(
    lambda seed, rows, cols, dtype: np.random.default_rng(seed)
    .uniform(-1e9, 1e9, size=(rows, cols))
    .astype(dtype),
    st.integers(0, 2**16),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from([np.float64, np.float32, np.int64]),
)

_values = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda children: st.one_of(
        st.tuples(children),
        st.tuples(children, children),
        st.tuples(children, children, children),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)


class TestPayloadCodec:
    @given(_values)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, value):
        _assert_value_equal(decode_payload(encode_payload(value)), value)

    @given(_values)
    @settings(max_examples=30, deadline=None)
    def test_frame_round_trip_is_exact(self, value):
        _assert_value_equal(decode_frame(encode_frame(value)), value)

    def test_protocol_shapes_round_trip(self):
        rng = np.random.default_rng(0)
        messages = [
            ("ping",),
            ("rebind", 3, (1, 2, 5)),
            ("rows", (0, 4, 2)),
            ("ok", rng.uniform(size=(5, 9))),
            ("ok", (rng.uniform(size=7), 12.5)),
            ("ok", {"block_builds": 3, "resident_bytes": 1024}),
            ("error", "Traceback (most recent call last): ..."),
            ("init", 0, 4, rng.uniform(size=(8, 8)), {"backend": "auto"}),
        ]
        for message in messages:
            _assert_value_equal(decode_frame(encode_frame(message)), message)

    def test_arrays_do_not_round_trip_through_pickle(self):
        # The point of the format: bulk rows travel as raw bytes after a
        # small preamble, not inside a pickle envelope.
        array = np.arange(64.0).reshape(8, 8)
        payload = encode_payload(array)
        assert payload[:1] == b"A"
        assert array.tobytes() in payload

    def test_large_array_frame_round_trips(self):
        # > 64 KiB of row bytes: exercises multi-chunk socket reads and
        # the header arithmetic on a realistically-sized rows reply.
        rng = np.random.default_rng(1)
        array = rng.uniform(size=(128, 80))  # 80 KiB of float64
        assert array.nbytes > (1 << 16)
        frame = encode_frame(("ok", array))
        assert len(frame) > (1 << 16)
        kind, got = read_frame(io.BytesIO(frame).read)
        assert kind == "ok"
        np.testing.assert_array_equal(got, array)

    def test_fortran_order_and_views_are_canonicalized(self):
        base = np.arange(36.0).reshape(6, 6)
        for array in (np.asfortranarray(base), base[::2, 1::2], base.T):
            got = decode_payload(encode_payload(array))
            assert got.flags["C_CONTIGUOUS"] and got.flags["WRITEABLE"]
            np.testing.assert_array_equal(got, array)


class TestFrameReader:
    @given(_values)
    @settings(max_examples=25, deadline=None)
    def test_one_byte_at_a_time_reads_reassemble(self, value):
        frame = encode_frame(value)
        _assert_value_equal(read_frame(_one_byte_reader(frame)), value)

    def test_back_to_back_frames_do_not_bleed(self):
        a, b = ("ping",), ("ok", np.arange(12.0))
        stream = io.BytesIO(encode_frame(a) + encode_frame(b))
        _assert_value_equal(read_frame(stream.read), a)
        _assert_value_equal(read_frame(stream.read), b)
        with pytest.raises(EOFError):
            read_frame(stream.read)

    def test_garbage_header_rejected(self):
        bad = b"XXXX" + encode_frame(("ping",))[4:]
        with pytest.raises(FramingError, match="magic"):
            read_frame(io.BytesIO(bad).read)
        with pytest.raises(FramingError, match="magic"):
            decode_frame(bad)

    def test_oversized_length_rejected_without_allocation(self):
        import struct

        bad = struct.pack("!4sQ", MAGIC, MAX_FRAME_BYTES + 1)
        with pytest.raises(FramingError, match="cap"):
            read_frame(io.BytesIO(bad + b"x").read)

    def test_eof_mid_frame_is_a_framing_error(self):
        frame = encode_frame(("ok", np.arange(100.0)))
        for cut in (3, HEADER_SIZE, HEADER_SIZE + 17, len(frame) - 1):
            with pytest.raises(FramingError, match="truncated"):
                read_frame(io.BytesIO(frame[:cut]).read)

    def test_eof_between_frames_is_eoferror(self):
        with pytest.raises(EOFError):
            read_frame(io.BytesIO(b"").read)

    def test_unknown_tag_rejected(self):
        with pytest.raises(FramingError, match="tag"):
            decode_payload(b"Z")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FramingError, match="trailing"):
            decode_payload(encode_payload(("ping",)) + b"!")

    def test_truncated_payload_rejected(self):
        payload = encode_payload(("ok", np.arange(10.0)))
        with pytest.raises(FramingError):
            decode_payload(payload[:-3])


class TestAddresses:
    def test_parse_and_format_round_trip(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("node7:9000") == ("tcp", "node7", 9000)
        assert parse_address("127.0.0.1:0") == ("tcp", "127.0.0.1", 0)
        for spec in ("unix:/tmp/x.sock", "node7:9000"):
            assert format_address(parse_address(spec)) == spec

    @pytest.mark.parametrize("bad", ["", "justahost", "unix:", "host:pp", ":90"])
    def test_bad_addresses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestSocketFraming:
    def test_frames_survive_a_real_socket(self):
        # Loopback TCP with an echo peer: sendall/recv chunking must not
        # perturb a frame carrying a large array.
        listener = create_listener("127.0.0.1:0")
        address = bound_address(listener)

        def echo():
            conn, _ = listener.accept()
            with conn:
                send_frame(conn, recv_frame(conn))

        thread = threading.Thread(target=echo, daemon=True)
        thread.start()
        message = ("ok", np.random.default_rng(2).uniform(size=(200, 50)))
        with socket.create_connection(address[1:]) as sock:
            send_frame(sock, message)
            _assert_value_equal(recv_frame(sock), message)
        thread.join(timeout=5)
        listener.close()


class TestConnectRetryWithBackoff:
    """Bounded retry on initial connect: a server still starting must
    not fail the run; a server killed mid-request still raises
    :class:`ShardWorkerError` (no retry once the stream is live)."""

    @staticmethod
    def _dmat(n=4):
        rng = np.random.default_rng(0)
        points = rng.uniform(size=(n, 2))
        diff = points[:, None, :] - points[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))

    def test_connect_address_waits_for_a_late_listener(self, tmp_path):
        from repro.core.transport import connect_address

        path = str(tmp_path / "late.sock")
        listener_box = []

        def bind_late():
            time.sleep(0.3)
            listener_box.append(create_listener(f"unix:{path}"))

        thread = threading.Thread(target=bind_late, daemon=True)
        started = time.monotonic()
        thread.start()
        sock = connect_address(f"unix:{path}", timeout=10.0)
        assert time.monotonic() - started >= 0.25
        sock.close()
        thread.join(timeout=5)
        listener_box[0].close()

    def test_connect_address_gives_up_at_the_deadline(self, tmp_path):
        from repro.core.transport import connect_address

        with pytest.raises(OSError):
            connect_address(
                f"unix:{tmp_path / 'never.sock'}", timeout=0.2
            )

    def test_transport_rides_out_a_slow_starting_server(self, tmp_path):
        """The full init handshake succeeds against a shard server that
        binds its socket well after the client started connecting."""
        from repro.core.transport import SocketTransport
        from repro.shard_server import ShardServer

        path = str(tmp_path / "slow.sock")
        server_box = []

        def serve_late():
            time.sleep(0.3)
            server = ShardServer(f"unix:{path}")
            server_box.append(server)
            server.serve_forever()

        thread = threading.Thread(target=serve_late, daemon=True)
        thread.start()
        transport = SocketTransport(
            f"unix:{path}", 0, 2, self._dmat(), connect_timeout=10.0
        )
        try:
            assert transport.alive
            assert transport.request(("ping",)) == "pong"
        finally:
            transport.close()
            server_box[0].stop()
            thread.join(timeout=10)

    def test_transport_retries_a_dropped_handshake(self, tmp_path):
        """A listener that accepts and immediately drops the first
        connections (a server mid-startup) is retried; the handshake
        lands once the far side actually serves."""
        path = str(tmp_path / "flaky.sock")
        listener = create_listener(f"unix:{path}")
        drops = 2

        def flaky_server():
            for _ in range(drops):
                conn, _ = listener.accept()
                conn.close()  # EOF before the init reply
            conn, _ = listener.accept()
            with conn:
                message = read_frame(conn.recv)
                assert message[0] == "init"
                send_frame(conn, ("ok", None))
                assert read_frame(conn.recv) == ("stop",)
                send_frame(conn, ("ok", None))

        from repro.core.transport import SocketTransport

        thread = threading.Thread(target=flaky_server, daemon=True)
        thread.start()
        transport = SocketTransport(
            f"unix:{path}", 0, 2, self._dmat(), connect_timeout=10.0
        )
        assert transport.alive
        transport.close()
        thread.join(timeout=5)
        listener.close()

    def test_error_reply_is_fatal_not_retried(self, tmp_path):
        """An explicit ("error", ...) init reply means the server is up
        and rejecting us — retrying would loop on a real failure."""
        from repro.core.shard_workers import ShardWorkerError
        from repro.core.transport import SocketTransport

        path = str(tmp_path / "reject.sock")
        listener = create_listener(f"unix:{path}")
        attempts = []

        def rejecting_server():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                attempts.append(1)
                with conn:
                    read_frame(conn.recv)
                    send_frame(conn, ("error", "init rejected"))

        thread = threading.Thread(target=rejecting_server, daemon=True)
        thread.start()
        started = time.monotonic()
        with pytest.raises(ShardWorkerError, match="init rejected"):
            SocketTransport(
                f"unix:{path}", 0, 2, self._dmat(), connect_timeout=10.0
            )
        assert time.monotonic() - started < 5.0  # no retry-until-deadline
        assert len(attempts) == 1
        # close() alone does not wake an accept() already waiting on
        # Linux; shutdown() does (EINVAL), so the thread can return.
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_deadline_exhaustion_raises_shard_worker_error(self, tmp_path):
        from repro.core.shard_workers import ShardWorkerError
        from repro.core.transport import SocketTransport

        with pytest.raises(ShardWorkerError, match="never came up"):
            SocketTransport(
                f"unix:{tmp_path / 'never.sock'}",
                0,
                2,
                self._dmat(),
                connect_timeout=0.3,
            )

    def test_killed_mid_request_still_raises(self, tmp_path):
        """Retry covers *initial connect* only: once the stream is
        live, a dying server is an error, never a silent reconnect."""
        from repro.core.shard_workers import ShardWorkerError
        from repro.core.transport import SocketTransport

        path = str(tmp_path / "dying.sock")
        listener = create_listener(f"unix:{path}")

        def dying_server():
            conn, _ = listener.accept()
            read_frame(conn.recv)
            send_frame(conn, ("ok", None))  # init succeeds...
            read_frame(conn.recv)
            conn.close()  # ...then dies mid-request

        thread = threading.Thread(target=dying_server, daemon=True)
        thread.start()
        transport = SocketTransport(
            f"unix:{path}", 0, 2, self._dmat(), connect_timeout=10.0
        )
        with pytest.raises(ShardWorkerError, match="died mid-request"):
            transport.request(("ping",))
        assert not transport.alive
        transport.close()
        listener.close()
        thread.join(timeout=5)


class TestShardServerHandshake:
    """``ShardServer`` refuses a connection whose first frame is not a
    well-formed ``init`` — answering with an ``("error", ...)`` frame and
    closing — and keeps serving the clients that come after."""

    _dmat = staticmethod(TestConnectRetryWithBackoff._dmat)

    @pytest.fixture
    def server(self, tmp_path):
        from repro.shard_server import ShardServer

        server = ShardServer(f"unix:{tmp_path / 'shard.sock'}")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()

    @staticmethod
    def _refused(server, message):
        """Send one raw frame; return the reply and check the hang-up."""
        from repro.core.transport import connect_address

        with connect_address(server.address, timeout=5.0) as sock:
            sock.settimeout(5.0)
            send_frame(sock, message)
            reply = recv_frame(sock)
            with pytest.raises(EOFError):
                recv_frame(sock)
        return reply

    def test_removed_solver_option_is_refused(self, server):
        options = {"backend": "auto", "dynamic": True, "solver": "serial"}
        kind, payload = self._refused(
            server, ("init", 0, 2, self._dmat(), options)
        )
        assert kind == "error"
        assert payload == "unknown init options ['solver']"

    def test_first_frame_must_be_init(self, server):
        assert self._refused(server, ("ping",)) == (
            "error",
            "expected an 'init' handshake",
        )

    def test_well_formed_client_is_served_after_refusals(self, server):
        from repro.core.transport import SocketTransport

        self._refused(server, ("ping",))
        self._refused(
            server, ("init", 0, 2, self._dmat(), {"solver_workers": 2})
        )
        dmat = self._dmat()
        transport = SocketTransport(server.address, 0, 2, dmat)
        try:
            assert transport.request(("ping",)) == "pong"
            transport.request(("reset", ((1,), (2,), (3,), (0,))))
            rows = transport.request(("rows", [0, 1]))
            assert rows.shape == (2, 4)
            assert rows[0, 1] == dmat[0, 1]
        finally:
            transport.close()


class TestForkedShardHandshake:
    """A forked same-host shard runs the shard server's handshake code,
    refusals included: it answers a bad first frame with an
    ``("error", ...)`` frame, hangs up and exits cleanly."""

    _dmat = staticmethod(TestConnectRetryWithBackoff._dmat)

    @staticmethod
    def _refused(message):
        from repro.core.transport import _reap, _start_shard_child

        sock, process = _start_shard_child("repro-shard-handshake")
        with sock:
            sock.settimeout(5.0)
            send_frame(sock, message)
            reply = recv_frame(sock)
            with pytest.raises(EOFError):
                recv_frame(sock)
        process.join(timeout=10)
        assert process.exitcode == 0
        _reap(process)
        return reply

    def test_unknown_init_option_is_refused(self):
        options = {"backend": "auto", "dynamic": True, "solver": "serial"}
        assert self._refused(("init", 0, 2, self._dmat(), options)) == (
            "error",
            "unknown init options ['solver']",
        )

    def test_first_frame_must_be_init(self):
        assert self._refused(("ping",)) == (
            "error",
            "expected an 'init' handshake",
        )
