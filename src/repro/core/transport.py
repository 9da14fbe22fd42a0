"""Socket transport for shard workers: framing codec + client + launcher.

:class:`~repro.core.shard_workers.ShardWorkerPool` talks to its shards
through the narrow :class:`~repro.core.shard_workers.ShardTransport`
request/reply protocol.  PR 5's :class:`PipeTransport` keeps workers on
the coordinator's host; this module takes them off it:

* A **length-prefixed binary framing codec** (:func:`encode_frame` /
  :func:`read_frame`) carries the protocol over any byte stream.  The
  format is deliberately msgpack-free: a fixed ``!4sQ`` header (magic +
  payload length) followed by a small tagged payload encoding in which
  ``numpy`` arrays — the ``rows``/``sums`` replies and the one-time
  ``init`` distance matrix, i.e. everything that scales with ``n`` —
  travel as raw C-contiguous bytes plus a dtype/shape preamble, while
  the small control values (op names, peer ids, stats dicts) ride in a
  pickle envelope.  Dispatch cost is therefore independent of payload
  *kind*: no row ever round-trips through pickle's object machinery.
* :class:`SocketTransport` speaks the existing ``reset`` / ``rebind`` /
  ``rows`` / ``sums`` / ``solve`` / ``stats`` / ``ping`` / ``stop``
  protocol over a TCP or Unix-domain socket against a standalone
  :mod:`repro.shard_server` (one ``init`` handshake ships the shard
  bounds and distance matrix, then the connection serves the same
  strictly-ordered request/reply stream a pipe would).
* :class:`SocketTransportFactory` is the launcher/placement half: given
  ``shard_hosts`` it round-robins shards across the listed servers;
  given none it **auto-spawns** a private same-host server on a
  Unix-domain socket (``repro-shard-<pid>-<token>.sock`` in the temp
  dir), so tests and CI need no external setup.  The factory owns the
  spawned server's lifecycle — the pool closes it after the transports.

Wire format (all integers big-endian)::

    frame   := "RSF1" | u64 payload-length | payload
    payload := tagged value
    tagged  := "N"                                   (None)
             | "T" u32 count tagged*                 (tuple)
             | "A" u8 dtype-len dtype-str u8 ndim
                   u64*ndim shape raw-bytes          (ndarray, C order)
             | "P" u64 length pickle-bytes           (small control values)

A corrupt magic, an oversized length, or a stream that ends mid-frame
raises :class:`FramingError`; a clean EOF *between* frames raises
:class:`EOFError` (the far side closed in an orderly way).
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import subprocess
import sys
import tempfile
import time
import uuid
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.shard_workers import ShardTransport, ShardWorkerError

__all__ = [
    "FramingError",
    "MAGIC",
    "encode_frame",
    "decode_frame",
    "encode_payload",
    "decode_payload",
    "read_frame",
    "send_frame",
    "recv_frame",
    "parse_address",
    "format_address",
    "create_listener",
    "bound_address",
    "connect_address",
    "SocketTransport",
    "SocketTransportFactory",
]

MAGIC = b"RSF1"
_HEADER = struct.Struct("!4sQ")
HEADER_SIZE = _HEADER.size

#: Hard ceiling on one frame's payload (16 GiB — far above any real
#: ``rows`` reply); a length beyond it means a corrupt or hostile
#: header, not a big array, so the decoder fails fast instead of trying
#: to allocate it.
MAX_FRAME_BYTES = 1 << 34

_TAG_NONE = b"N"
_TAG_TUPLE = b"T"
_TAG_ARRAY = b"A"
_TAG_PICKLE = b"P"

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")


class FramingError(ConnectionError):
    """The byte stream does not hold a well-formed frame."""


# ----------------------------------------------------------------------
# Payload codec
# ----------------------------------------------------------------------
def _encode_value(value, chunks: List[bytes]) -> None:
    if value is None:
        chunks.append(_TAG_NONE)
    elif isinstance(value, tuple):
        chunks.append(_TAG_TUPLE)
        chunks.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, chunks)
    elif isinstance(value, np.ndarray) and value.dtype != object:
        array = np.ascontiguousarray(value)
        dtype = array.dtype.str.encode("ascii")
        chunks.append(_TAG_ARRAY)
        chunks.append(_U8.pack(len(dtype)))
        chunks.append(dtype)
        chunks.append(_U8.pack(array.ndim))
        for dim in array.shape:
            chunks.append(_U64.pack(dim))
        chunks.append(array.tobytes())
    else:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        chunks.append(_TAG_PICKLE)
        chunks.append(_U64.pack(len(blob)))
        chunks.append(blob)


def encode_payload(value) -> bytes:
    """Tagged-payload bytes for one protocol value (no frame header)."""
    chunks: List[bytes] = []
    _encode_value(value, chunks)
    return b"".join(chunks)


def _need(view: memoryview, offset: int, count: int) -> None:
    if offset + count > len(view):
        raise FramingError(
            f"payload truncated: need {count} bytes at offset {offset}, "
            f"have {len(view) - offset}"
        )


def _decode_value(view: memoryview, offset: int) -> Tuple[object, int]:
    _need(view, offset, 1)
    tag = bytes(view[offset : offset + 1])
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TUPLE:
        _need(view, offset, _U32.size)
        (count,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        items = []
        for _ in range(count):
            item, offset = _decode_value(view, offset)
            items.append(item)
        return tuple(items), offset
    if tag == _TAG_ARRAY:
        _need(view, offset, _U8.size)
        (dtype_len,) = _U8.unpack_from(view, offset)
        offset += _U8.size
        _need(view, offset, dtype_len)
        dtype = np.dtype(bytes(view[offset : offset + dtype_len]).decode("ascii"))
        offset += dtype_len
        _need(view, offset, _U8.size)
        (ndim,) = _U8.unpack_from(view, offset)
        offset += _U8.size
        shape = []
        for _ in range(ndim):
            _need(view, offset, _U64.size)
            (dim,) = _U64.unpack_from(view, offset)
            offset += _U64.size
            shape.append(dim)
        nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
        _need(view, offset, nbytes)
        # .copy() detaches from the receive buffer and yields a normal
        # writable C-contiguous array, exactly what a local build
        # would have produced.
        array = (
            np.frombuffer(view[offset : offset + nbytes], dtype=dtype)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
        return array, offset
    if tag == _TAG_PICKLE:
        _need(view, offset, _U64.size)
        (length,) = _U64.unpack_from(view, offset)
        offset += _U64.size
        _need(view, offset, length)
        value = pickle.loads(view[offset : offset + length])
        offset += length
        return value, offset
    raise FramingError(f"unknown payload tag {tag!r}")


def decode_payload(data: Union[bytes, memoryview]):
    """Decode one tagged payload; the buffer must hold exactly one value."""
    view = memoryview(data)
    value, offset = _decode_value(view, 0)
    if offset != len(view):
        raise FramingError(
            f"payload has {len(view) - offset} trailing bytes after value"
        )
    return value


# ----------------------------------------------------------------------
# Frame layer
# ----------------------------------------------------------------------
def encode_frame(value) -> bytes:
    """One complete wire frame (header + payload) for ``value``."""
    payload = encode_payload(value)
    if len(payload) > MAX_FRAME_BYTES:  # pragma: no cover - 16 GiB payload
        raise FramingError(f"payload of {len(payload)} bytes exceeds frame cap")
    return _HEADER.pack(MAGIC, len(payload)) + payload


def decode_frame(data: Union[bytes, memoryview]):
    """Decode one complete frame held in ``data``."""
    view = memoryview(data)
    if len(view) < HEADER_SIZE:
        raise FramingError(f"frame shorter than its {HEADER_SIZE}-byte header")
    magic, length = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise FramingError(f"bad frame magic {bytes(magic)!r}")
    if length > MAX_FRAME_BYTES:
        raise FramingError(f"frame length {length} exceeds cap")
    if len(view) - HEADER_SIZE != length:
        raise FramingError(
            f"frame header promises {length} payload bytes, "
            f"buffer holds {len(view) - HEADER_SIZE}"
        )
    return decode_payload(view[HEADER_SIZE:])


def _read_exact(read: Callable[[int], bytes], count: int, *, eof_ok: bool) -> bytes:
    """Gather exactly ``count`` bytes from a short-read-prone ``read``.

    ``read(n)`` may return any number of bytes from 1 to ``n`` (sockets
    do); an empty return means EOF.  EOF before the first byte raises
    :class:`EOFError` when ``eof_ok`` (an orderly close between frames),
    :class:`FramingError` otherwise (the stream died mid-frame).
    """
    parts: List[bytes] = []
    remaining = count
    while remaining:
        chunk = read(remaining)
        if not chunk:
            if not parts and eof_ok:
                raise EOFError("stream closed between frames")
            raise FramingError(
                f"stream truncated: {count - remaining} of {count} bytes "
                f"before EOF"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def read_frame(read: Callable[[int], bytes]):
    """Read one frame through ``read(n)`` (e.g. ``sock.recv``).

    Raises :class:`EOFError` on a clean close before any header byte and
    :class:`FramingError` on corruption or a mid-frame disconnect.
    """
    header = _read_exact(read, HEADER_SIZE, eof_ok=True)
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FramingError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise FramingError(f"frame length {length} exceeds cap")
    payload = _read_exact(read, length, eof_ok=False) if length else b""
    return decode_payload(payload)


def send_frame(sock: socket.socket, value) -> None:
    """Encode ``value`` and write the complete frame to ``sock``."""
    sock.sendall(encode_frame(value))


def recv_frame(sock: socket.socket):
    """Read one frame from ``sock`` (see :func:`read_frame`)."""
    return read_frame(sock.recv)


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
#: ``("tcp", host, port)`` or ``("unix", path)``.
Address = Union[Tuple[str, str, int], Tuple[str, str]]


def parse_address(spec: Union[str, Tuple]) -> Address:
    """Normalize ``"host:port"`` / ``"unix:/path"`` into an address tuple."""
    if isinstance(spec, tuple):
        return spec
    text = str(spec).strip()
    if text.startswith("unix:"):
        path = text[len("unix:") :]
        if not path:
            raise ValueError(f"unix address {spec!r} has no socket path")
        return ("unix", path)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"bad shard host {spec!r}; expected 'host:port' or 'unix:/path'"
        )
    try:
        return ("tcp", host, int(port))
    except ValueError:
        raise ValueError(f"bad port in shard host {spec!r}") from None


def format_address(address: Address) -> str:
    """The spec-string form of an address tuple (for names/messages)."""
    if address[0] == "unix":
        return f"unix:{address[1]}"
    return f"{address[1]}:{address[2]}"


def create_listener(address: Union[str, Address], backlog: int = 16) -> socket.socket:
    """A bound, listening server socket for ``address``.

    TCP port 0 binds an ephemeral port (read it back through
    :func:`bound_address`); a stale Unix socket path is unlinked first —
    the ``repro-shard-*`` name is namespaced per pid, so a leftover can
    only be a dead predecessor's.
    """
    address = parse_address(address)
    if address[0] == "unix":
        path = address[1]
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((address[1], address[2]))
    sock.listen(backlog)
    return sock


def bound_address(sock: socket.socket) -> Address:
    """The address a listener actually bound (resolves TCP port 0)."""
    if sock.family == socket.AF_UNIX:
        return ("unix", sock.getsockname())
    host, port = sock.getsockname()[:2]
    return ("tcp", host, port)


#: Backoff geometry of the connect/handshake retry loops: start small
#: so an already-up server costs nothing, double towards a cap so a
#: slow-starting one is not hammered with connection attempts.
INITIAL_BACKOFF_S = 0.02
MAX_BACKOFF_S = 0.5


def _backoff_sleep(backoff: float, deadline: Optional[float]) -> float:
    """Sleep one backoff step (never past ``deadline``); next step."""
    pause = backoff
    if deadline is not None:
        pause = min(pause, max(0.0, deadline - time.monotonic()))
    if pause > 0:
        time.sleep(pause)
    return min(backoff * 2.0, MAX_BACKOFF_S)


def connect_address(
    address: Union[str, Address], timeout: Optional[float] = None
) -> socket.socket:
    """Connect to a shard server, retrying while ``timeout`` allows.

    The bounded retry-with-backoff loop absorbs the startup race
    against a server still coming up (connection refused / socket file
    not there yet), backing off exponentially from
    :data:`INITIAL_BACKOFF_S` to :data:`MAX_BACKOFF_S` between
    attempts; any error still present at the deadline propagates.
    """
    address = parse_address(address)
    deadline = None if timeout is None else time.monotonic() + timeout
    backoff = INITIAL_BACKOFF_S
    while True:
        try:
            if address[0] == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.connect(address[1])
                except BaseException:
                    sock.close()
                    raise
                return sock
            return socket.create_connection((address[1], address[2]))
        except (ConnectionRefusedError, FileNotFoundError, OSError):
            if deadline is None or time.monotonic() >= deadline:
                raise
            backoff = _backoff_sleep(backoff, deadline)


# ----------------------------------------------------------------------
# Client transport
# ----------------------------------------------------------------------
class SocketTransport(ShardTransport):
    """One shard served by a remote :mod:`repro.shard_server` connection.

    The connection opens with an ``("init", lo, hi, dmat, options)``
    handshake that makes the server-side worker state, then carries the
    standard protocol — the same strictly-ordered request/reply stream
    as a pipe, so :class:`~repro.core.shard_workers.ShardWorkerPool`
    cannot tell the difference (which is the point of the seam).
    """

    def __init__(
        self,
        address: Union[str, Address],
        lo: int,
        hi: int,
        dmat: np.ndarray,
        backend: str = "auto",
        dynamic: bool = True,
        *,
        connect_timeout: float = 10.0,
    ) -> None:
        # Defaults first: close() must be a no-op if the connect or
        # handshake below never succeeds.
        self._sock: Optional[socket.socket] = None
        self._closed = False
        self._dead = False
        self._address = parse_address(address)
        self._name = f"repro-shard-{lo}-{hi}@{format_address(self._address)}"
        init_message = (
            "init",
            int(lo),
            int(hi),
            np.ascontiguousarray(dmat, dtype=np.float64),
            {"backend": backend, "dynamic": bool(dynamic)},
        )
        # Bounded retry-with-backoff across connect *and* handshake: a
        # server still starting up may refuse the connection or accept
        # and drop it before serving — both retry until the deadline.
        # An explicit ("error", ...) reply is a real init failure and
        # never retried (the server is up; the request is wrong).
        deadline = (
            None
            if connect_timeout is None
            else time.monotonic() + connect_timeout
        )
        backoff = INITIAL_BACKOFF_S
        while True:
            sock: Optional[socket.socket] = None
            try:
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                sock = connect_address(self._address, timeout=remaining)
                send_frame(sock, init_message)
                reply = recv_frame(sock)
            except (EOFError, FramingError, OSError) as error:
                if sock is not None:
                    sock.close()
                if deadline is None or time.monotonic() >= deadline:
                    self._closed = True
                    raise ShardWorkerError(
                        f"shard worker {self._name} never came up "
                        f"({type(error).__name__}: {error})"
                    ) from error
                backoff = _backoff_sleep(backoff, deadline)
                continue
            except BaseException:
                if sock is not None:
                    sock.close()
                self._closed = True
                raise
            kind, payload = reply
            if kind == "error":
                sock.close()
                self._closed = True
                raise ShardWorkerError(
                    f"shard worker {self._name} failed:\n{payload}"
                )
            self._sock = sock
            break

    @property
    def name(self) -> str:
        return self._name

    def _peer_hung_up(self) -> bool:
        """Whether the server already closed its end (without blocking).

        The protocol is strict request/reply, so outside an exchange the
        inbound stream must be silent: a non-blocking peek that returns
        EOF (or a reset) means the far side is gone *before* this
        request — the recoverable, between-requests death.
        """
        try:
            chunk = self._sock.recv(
                1, socket.MSG_PEEK | socket.MSG_DONTWAIT
            )
        except (BlockingIOError, InterruptedError):
            return False  # nothing pending: the connection is healthy
        except OSError:
            return True  # reset / torn down under us
        return chunk == b""

    def send(self, message: Tuple) -> None:
        if self._closed:
            raise ShardWorkerError(
                f"shard worker {self._name} transport is closed"
            )
        if self._dead or self._peer_hung_up():
            self._dead = True
            raise ShardWorkerError(
                f"shard worker {self._name} died between requests "
                f"(connection closed by server)"
            )
        try:
            send_frame(self._sock, message)
        except OSError as error:
            self._dead = True
            raise ShardWorkerError(
                f"shard worker {self._name} died mid-request "
                f"({type(error).__name__})"
            ) from error

    def recv(self):
        try:
            reply = recv_frame(self._sock)
        except (EOFError, FramingError, OSError) as error:
            self._dead = True
            raise ShardWorkerError(
                f"shard worker {self._name} died mid-request "
                f"({type(error).__name__}: {error})"
            ) from error
        kind, payload = reply
        if kind == "error":
            raise ShardWorkerError(
                f"shard worker {self._name} failed:\n{payload}"
            )
        return payload

    def request(self, message: Tuple):
        self.send(message)
        return self.recv()

    @property
    def alive(self) -> bool:
        return not (self._closed or self._dead)

    def kill(self) -> None:
        """Tear the stream down abruptly (chaos drills): no ``stop``.

        The server sees an unexpected EOF on a live connection — the
        same signature as a client host dying — and discards that
        connection's worker state; the transport reports *between
        requests* on its next send.
        """
        if self._closed or self._dead:
            return
        self._dead = True
        if self._sock is not None:
            self._sock.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._sock is None:  # failed init: nothing to release
            return
        if not self._dead:
            try:
                send_frame(self._sock, ("stop",))
                self._sock.settimeout(5.0)
                recv_frame(self._sock)
            except (EOFError, FramingError, OSError):
                pass  # already gone; the socket close below suffices
        self._sock.close()


# ----------------------------------------------------------------------
# Launcher / placement
# ----------------------------------------------------------------------
class SocketTransportFactory:
    """Place shard workers on socket servers (auto-spawning by default).

    Drop-in for the ``transport_factory`` seam of
    :class:`~repro.core.shard_workers.ShardWorkerPool`: called once per
    shard with ``(lo, hi, dmat, backend, dynamic)``, returns a connected
    :class:`SocketTransport`.  With explicit ``hosts`` the shards
    round-robin across them (several shards per server are fine — each
    connection gets its own worker state).  Without hosts the factory
    spawns one private same-host server over a Unix-domain socket and
    points every shard at it; the server exits by itself once its last
    connection closes (``--auto-exit``), and :meth:`close` reaps the
    process and unlinks the socket as a backstop.
    """

    def __init__(
        self,
        hosts: Optional[Sequence[str]] = None,
        *,
        connect_timeout: float = 20.0,
    ) -> None:
        hosts = [h for h in (hosts or []) if str(h).strip()]
        self._addresses: List[Address] = [parse_address(h) for h in hosts]
        self._connect_timeout = connect_timeout
        self._server: Optional[subprocess.Popen] = None
        self._socket_path: Optional[str] = None
        self._next = 0
        #: How many times a dead auto-spawned server was replaced; the
        #: chaos harness asserts restart/reconnect actually happened.
        self.server_restarts = 0

    def _reap_dead_server(self) -> bool:
        """Clear out an auto-spawned server that has exited; True if so.

        Restart/reconnect handling for the spawned placement: when the
        private server died (crash, kill, OOM), the next placement or
        respawn must not connect to its stale socket and time out — the
        factory reaps the corpse, unlinks the socket path, and lets
        :meth:`_ensure_addresses` spawn a fresh server.
        """
        if self._server is None or self._server.poll() is None:
            return False
        self._server.wait()
        self._server = None
        path, self._socket_path = self._socket_path, None
        if path is not None:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._addresses = []
        self.server_restarts += 1
        return True

    def kill_server(self) -> None:
        """SIGKILL the auto-spawned server (chaos drills); no-op otherwise.

        The next transport request observes the dead connection, and the
        next placement through the factory spawns a replacement server.
        """
        if self._server is not None and self._server.poll() is None:
            self._server.kill()
            self._server.wait()

    def _ensure_addresses(self) -> None:
        self._reap_dead_server()
        if self._addresses:
            return
        path = os.path.join(
            tempfile.gettempdir(),
            f"repro-shard-{os.getpid()}-{uuid.uuid4().hex[:8]}.sock",
        )
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        self._server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.shard_server",
                "--listen",
                f"unix:{path}",
                "--auto-exit",
                "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        self._socket_path = path
        self._addresses = [("unix", path)]

    def __call__(
        self,
        lo: int,
        hi: int,
        dmat: np.ndarray,
        backend: str = "auto",
        dynamic: bool = True,
    ) -> SocketTransport:
        self._ensure_addresses()
        address = self._addresses[self._next % len(self._addresses)]
        self._next += 1
        try:
            return SocketTransport(
                address,
                lo,
                hi,
                dmat,
                backend,
                dynamic,
                connect_timeout=self._connect_timeout,
            )
        except (OSError, ShardWorkerError) as error:
            detail = format_address(address)
            if self._server is not None and self._server.poll() is not None:
                detail += (
                    f" (auto-spawned server exited with "
                    f"code {self._server.returncode})"
                )
            raise ShardWorkerError(
                f"could not place shard [{lo}, {hi}) on {detail}: {error}"
            ) from error

    def close(self) -> None:
        """Reap the auto-spawned server (if any); idempotent."""
        server, self._server = self._server, None
        if server is not None:
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
                server.terminate()
                try:
                    server.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait()
        path, self._socket_path = self._socket_path, None
        if path is not None:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
