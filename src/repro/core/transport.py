"""The shard wire: framing codec, worker loop, client transport, placement.

:class:`~repro.core.shard_workers.ShardWorkerPool` talks to its shards
through the narrow :class:`~repro.core.shard_workers.ShardTransport`
request/reply protocol, and every shard, on this host or another,
speaks it over one byte stream with one codec:

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
* :func:`serve_connection` is the one worker loop.  An ``("init", lo,
  hi, dmat, options)`` handshake builds the shard's worker state, then
  the stream serves the ``reset`` / ``rebind`` / ``rows`` / ``sums`` /
  ``solve`` / ``stats`` / ``ping`` / ``stop`` protocol until ``stop`` or
  EOF.  A :mod:`repro.shard_server` runs it on one thread per accepted
  connection; a same-host shard runs it in its own forked child.
* :class:`SocketTransport` is the coordinator's end of the stream.
  :meth:`SocketTransport.forked` places a shard on this host: one child
  process per shard, named ``repro-shard-<lo>-<hi>``, serving one end of
  a ``socket.socketpair()``.  :class:`SocketTransportFactory`
  round-robins shards across running shard servers (``shard_hosts``)
  instead.  The two differ only in how the socket was obtained: fork or
  connect.

Wire format (all integers big-endian)::

    frame   := "RSF1" | u64 payload-length | payload
    payload := tagged value
    tagged  := "N"                                   (None)
             | "T" u32 count tagged*                 (tuple)
             | "A" u8 dtype-len dtype-str u8 ndim
                   u64*ndim shape raw-bytes          (ndarray, C order)
             | "P" u64 length pickle-bytes           (small control values)

A corrupt magic, an oversized length, a stream that ends mid-frame or
a payload the decoder cannot read raises :class:`FramingError`; a clean
EOF *between* frames raises :class:`EOFError` (the far side closed in an
orderly way).
"""

from __future__ import annotations

import itertools
import os
import pickle
import socket
import struct
import time
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.shard_workers import (
    ShardTransport,
    ShardWorkerError,
    _WorkerState,
    serve_request,
)

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
    "serve_connection",
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
    """Decode one tagged payload; the buffer must hold exactly one value.

    Every malformed payload raises :class:`FramingError`: whatever the
    value decoder raises on hostile bytes (runaway nesting, an unknown
    or object dtype, an impossible shape, a truncated pickle) is
    re-raised as one, chained to the original, so a connection handler
    that catches :class:`FramingError` drops the connection instead of
    dying on an unhandled exception.
    """
    view = memoryview(data)
    try:
        value, offset = _decode_value(view, 0)
    except FramingError:
        raise
    except Exception as error:
        raise FramingError(f"malformed payload: {error!r}") from error
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
    :func:`bound_address`); a stale Unix socket path (a dead
    predecessor's) is unlinked first.
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
# Worker loop
# ----------------------------------------------------------------------
#: Worker options the ``init`` handshake may set (anything else is a
#: client/server version skew and is rejected before state is built).
_INIT_OPTIONS = frozenset({"backend", "dynamic"})


def _quiet(_message: str) -> None:
    pass


def serve_connection(
    conn: socket.socket, log: Callable[[str], None] = _quiet
) -> None:
    """Serve one shard over ``conn`` until ``stop`` or EOF, then close it.

    The first frame must be a well-formed ``("init", lo, hi, dmat,
    options)`` handshake; anything else is refused with an ``("error",
    ...)`` frame before any state is built.  Shard-server threads and
    forked same-host shards both run this loop, so every placement
    shares one handshake, one set of refusals and one request loop.
    """
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
        log(f"shard [{lo}, {hi}) connected")
        while True:
            message = read_frame(conn.recv)
            reply, stop = serve_request(state, message)
            send_frame(conn, reply)
            if stop:
                return
    except EOFError:
        pass  # the client went away without a stop; that's fine
    except (FramingError, OSError) as error:
        log(f"connection dropped: {error}")
    finally:
        conn.close()
        if state is not None:
            log(f"shard [{state.lo}, {state.hi}) disconnected")


def _forked_shard_main(
    conn: socket.socket, inherited: Optional[socket.socket]
) -> None:
    """Entry point of a same-host shard's child process."""
    if inherited is not None:
        # A forked child holds a copy of the coordinator's end too;
        # keeping it would hide the coordinator's hang-up from this loop.
        inherited.close()
    serve_connection(conn)


def _start_shard_child(name: str):
    """Start a child running :func:`serve_connection` on a socketpair.

    Returns ``(sock, process)``: the coordinator's end and the child.
    The ``fork`` start method is used where the platform has it, so no
    interpreter starts; elsewhere multiprocessing passes the socket end
    to a spawned child.
    """
    import multiprocessing

    forking = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if forking else None)
    ours, theirs = socket.socketpair()
    with theirs:  # the child holds its own copy once started
        process = context.Process(
            target=_forked_shard_main,
            args=(theirs, ours if forking else None),
            daemon=True,
            name=name,
        )
        try:
            process.start()
        except BaseException:
            ours.close()
            raise
    return ours, process


def _reap(process) -> None:
    """Join a shard's child (terminating it if stuck); free its handle."""
    process.join(timeout=5)
    if process.is_alive():  # pragma: no cover - stuck child
        process.terminate()
        process.join(timeout=5)
    try:
        # Release the sentinel fd now instead of at GC time: the chaos
        # drills count leaked fds.
        process.close()
    except ValueError:  # pragma: no cover - still alive after terminate
        pass


# ----------------------------------------------------------------------
# Client transport
# ----------------------------------------------------------------------
class SocketTransport(ShardTransport):
    """The coordinator's end of one shard's stream.

    ``endpoint`` says where the shard runs: the address of a
    :mod:`repro.shard_server` (connected with bounded retry-with-backoff,
    see ``connect_timeout``) or an already-connected socket (one
    handshake attempt, no retry).  The stream opens with an ``("init",
    lo, hi, dmat, options)`` handshake that builds the shard's worker
    state, then carries the strictly-ordered request/reply protocol.
    """

    def __init__(
        self,
        endpoint: Union[str, Address, socket.socket],
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
        #: The child serving a same-host shard (set by :meth:`forked`).
        self._process = None
        self._closed = False
        self._dead = False
        connected = isinstance(endpoint, socket.socket)
        self._name = f"repro-shard-{lo}-{hi}"
        if not connected:
            address = parse_address(endpoint)
            self._name += f"@{format_address(address)}"
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
            sock = endpoint if connected else None
            try:
                if sock is None:
                    remaining = (
                        None
                        if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    sock = connect_address(address, timeout=remaining)
                send_frame(sock, init_message)
                kind, payload = recv_frame(sock)
            except (EOFError, FramingError, OSError) as error:
                if sock is not None:
                    sock.close()
                if (
                    connected
                    or deadline is None
                    or time.monotonic() >= deadline
                ):
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
            if kind == "error":
                sock.close()
                self._closed = True
                raise ShardWorkerError(
                    f"shard worker {self._name} failed:\n{payload}"
                )
            self._sock = sock
            return

    @classmethod
    def forked(
        cls,
        lo: int,
        hi: int,
        dmat: np.ndarray,
        backend: str = "auto",
        dynamic: bool = True,
    ) -> "SocketTransport":
        """Place one shard on this host: a child process on a socketpair.

        The child runs :func:`serve_connection` on one end of a
        ``socket.socketpair()``; the returned transport holds the other
        end and owns the child (:meth:`kill` SIGKILLs it, :meth:`close`
        reaps it).
        """
        sock, process = _start_shard_child(f"repro-shard-{lo}-{hi}")
        try:
            transport = cls(sock, lo, hi, dmat, backend, dynamic)
        except BaseException:
            _reap(process)
            raise
        transport._process = process
        return transport

    @property
    def name(self) -> str:
        return self._name

    def _peer_hung_up(self) -> bool:
        """Whether the shard already closed its end (without blocking).

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
                f"(connection closed by the shard)"
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

    @property
    def alive(self) -> bool:
        return not (self._closed or self._dead)

    def kill(self) -> None:
        """Kill the shard abruptly (chaos drills): no ``stop``.

        A same-host shard's child is SIGKILLed and reaped while the
        socket stays open, so an in-flight :meth:`recv` sees the EOF
        (*died mid-request*) and the next :meth:`send` reports *died
        between requests*.  A remote shard's stream is torn down
        instead: its server sees the EOF of a vanished client and drops
        that connection's worker state.
        """
        if self._closed or self._dead:
            return
        self._dead = True
        if self._process is not None:
            self._process.kill()
            self._process.join(timeout=5)
        else:
            self._sock.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._sock is not None:
            if not self._dead:
                try:
                    send_frame(self._sock, ("stop",))
                    # Bounded: close() also runs from the pool's GC
                    # finalizer, and a stuck shard must not hang
                    # whatever triggered collection.
                    self._sock.settimeout(5.0)
                    recv_frame(self._sock)
                except (EOFError, FramingError, OSError):
                    pass  # already gone; the socket close below suffices
            self._sock.close()
        if self._process is not None:
            _reap(self._process)


# ----------------------------------------------------------------------
# Placement on running shard servers
# ----------------------------------------------------------------------
class SocketTransportFactory:
    """Round-robin shards across running shard servers (``shard_hosts``).

    Drop-in for the ``transport_factory`` seam of
    :class:`~repro.core.shard_workers.ShardWorkerPool`: called once per
    shard with ``(lo, hi, dmat, backend, dynamic)``, returns a
    :class:`SocketTransport` connected to the next listed server.
    Several shards may share one server; each connection gets its own
    worker state.
    """

    def __init__(
        self, hosts: Sequence[str], *, connect_timeout: float = 20.0
    ) -> None:
        self._addresses: List[Address] = [
            parse_address(host) for host in hosts if str(host).strip()
        ]
        if not self._addresses:
            raise ValueError("SocketTransportFactory needs at least one host")
        self._connect_timeout = connect_timeout
        self._turns = itertools.count()

    def __call__(
        self,
        lo: int,
        hi: int,
        dmat: np.ndarray,
        backend: str = "auto",
        dynamic: bool = True,
    ) -> SocketTransport:
        address = self._addresses[next(self._turns) % len(self._addresses)]
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
        except ShardWorkerError as error:
            raise ShardWorkerError(
                f"could not place shard [{lo}, {hi}) on "
                f"{format_address(address)}: {error}"
            ) from error
