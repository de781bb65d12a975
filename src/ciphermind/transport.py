"""Bit-exact wire protocol, session handshake, and the byte stream under them.

Wire layout (little-endian):

    "CMND" | version u8 | type u8 | length u32 | body | crc32 u32

crc32 is the reflected-0xEDB88320 checksum (zlib's) over header+body. The
frame body carries no layer index: both ends derive the tap layer from the
chained scheduler state, which is the point of the scheme.

Legal message order per session: HELLO -> HELLO_ACK -> FRAME* -> FIN. A
failed handshake, recv_message or wait_fin closes the session, answered as:

    a malformed, corrupt, wrong-version or unexpected    ERROR(ERR_PROTOCOL)
    message, seq out of order, a wrong nonce echo
    this side's twin check failed                        ERROR(ERR_TWIN_MISMATCH, field)
    the decode failed (then the message's rest is read)  ERROR(ERR_DECODE, "token t: ...")
    the peer's ERROR, a closed link or a timeout         no answer

A failed session takes no further step, and its close() sends no FIN.

Both link kinds, a TCP connection (tcp_connect, tcp_listen_once) and an
in-process pair (loopback_pair, a kernel socket pair), carry the bytes in
one SocketStream. Its one timeout rule: recv_exact(n, timeout) raises
TransportTimeout once timeout seconds have passed over the whole read, and
a send raises TransportTimeout once the last read's timeout has passed with
the peer not taking the bytes. The kernel bounds what a pair buffers.
"""

from __future__ import annotations

import contextlib
import secrets
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import codec
from . import model as M
from . import provisioning as P

MAGIC = b"CMND"
VERSION = 1
HEADER_LEN = 10
MAX_BODY = 1 << 20

TYPE_HELLO = 1
TYPE_HELLO_ACK = 2
TYPE_FRAME = 3
TYPE_FIN = 4
TYPE_ERROR = 5
_NAMES = {TYPE_HELLO: "HELLO", TYPE_HELLO_ACK: "HELLO_ACK", TYPE_FRAME: "FRAME",
          TYPE_FIN: "FIN", TYPE_ERROR: "ERROR"}

ERR_TWIN_MISMATCH = 1
ERR_PROTOCOL = 2
ERR_DECODE = 3

DEFAULT_TIMEOUT = 10.0


class TransportError(Exception):
    pass


class MalformedMessage(TransportError):
    pass


class BadCrc(TransportError):
    pass


class UnsupportedVersion(TransportError):
    pass


class ProtocolViolation(TransportError):
    pass


class TwinMismatch(TransportError):
    def __init__(self, field: str, by_peer: bool = False):
        super().__init__(f"twin verification failed on field '{field}'")
        self.field = field
        self.by_peer = by_peer  # the peer's ERROR named it


class TransportTimeout(TransportError):
    pass


class PeerError(TransportError):
    """The remote side sent an ERROR message."""

    def __init__(self, code: int, reason: str):
        super().__init__(f"peer error {code}: {reason}")
        self.code = code
        self.reason = reason


@dataclass
class WireMessage:
    type: int
    body: bytes = b""


def serialize(msg: WireMessage) -> bytes:
    if msg.type not in _NAMES:
        raise MalformedMessage(f"unknown message type {msg.type}")
    if len(msg.body) > MAX_BODY:
        raise MalformedMessage("body exceeds 1 MiB cap")
    head = MAGIC + bytes([VERSION, msg.type]) + struct.pack("<I", len(msg.body))
    crc = zlib.crc32(head + msg.body) & 0xFFFFFFFF
    return head + msg.body + struct.pack("<I", crc)


def _parse_header(head: bytes):
    """Checks the magic, version, type and length cap of a 10-byte header;
    returns (type, body length)."""
    if head[:4] != MAGIC:
        raise MalformedMessage("bad magic")
    if head[4] != VERSION:
        raise UnsupportedVersion(f"version {head[4]}")
    mtype = head[5]
    if mtype not in _NAMES:
        raise MalformedMessage(f"unknown message type {mtype}")
    (length,) = struct.unpack_from("<I", head, 6)
    if length > MAX_BODY:
        raise MalformedMessage("length exceeds 1 MiB cap")
    return mtype, length


def parse(data: bytes) -> WireMessage:
    if len(data) < HEADER_LEN + 4:
        raise MalformedMessage("short message")
    mtype, length = _parse_header(data[:HEADER_LEN])
    if len(data) != HEADER_LEN + length + 4:
        raise MalformedMessage("length field does not match buffer")
    body = data[HEADER_LEN:HEADER_LEN + length]
    (crc,) = struct.unpack_from("<I", data, HEADER_LEN + length)
    if zlib.crc32(data[:HEADER_LEN + length]) & 0xFFFFFFFF != crc:
        raise BadCrc("crc mismatch")
    return WireMessage(type=mtype, body=bytes(body))


# ------------------------------------------------------------------- bodies

def pack_hello(nonce: int, profile: P.TwinProfile) -> bytes:
    """The HELLO and HELLO_ACK body: nonce u64, then the packed twin
    profile, whose config summary carries d_model and the template version."""
    return struct.pack("<Q", nonce & (2**64 - 1)) + profile.pack()


def unpack_hello(body: bytes):
    if len(body) != 8 + P.TwinProfile.packed_size():
        raise MalformedMessage("bad hello body length")
    (nonce,) = struct.unpack_from("<Q", body, 0)
    try:
        profile = P.TwinProfile.unpack(body[8:])
    except P.ProvisioningError as e:
        raise MalformedMessage(f"bad hello profile: {e}") from None
    return nonce, profile


def pack_frame(message_seq: int, frame: codec.TokenFrame) -> bytes:
    flags = 1 if frame.is_final else 0
    return (struct.pack("<Q", message_seq) + struct.pack("<I", frame.seq)
            + bytes([flags]) + M.f32_bytes(frame.payload))


def unpack_frame(body: bytes, d_model: int):
    want = 8 + 4 + 1 + 4 * d_model
    if len(body) != want:
        raise MalformedMessage("bad frame body length")
    (message_seq,) = struct.unpack_from("<Q", body, 0)
    (token_seq,) = struct.unpack_from("<I", body, 8)
    flags = body[12]
    if flags not in (0, 1):
        raise MalformedMessage(f"bad frame flags {flags:#04x}")
    payload = np.frombuffer(body[13:], dtype="<f4").astype(np.float32)
    if not np.all(np.isfinite(payload)):
        raise MalformedMessage("non-finite frame payload")
    return message_seq, codec.TokenFrame(seq=token_seq, payload=payload,
                                         is_final=flags == 1)


def pack_error(code: int, reason: str) -> bytes:
    return bytes([code]) + reason.encode("utf-8")


def unpack_error(body: bytes):
    if not body:
        raise MalformedMessage("empty error body")
    return body[0], body[1:].decode("utf-8", errors="replace")


# --------------------------------------------------------------- transports

class SocketStream:
    """One end of a duplex byte stream over a kernel socket: a TCP
    connection or one end of an in-process socket pair."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._timeout = DEFAULT_TIMEOUT  # a send's limit: the last read's timeout

    def send_bytes(self, data: bytes) -> None:
        """Writes all of data, or raises TransportTimeout once the timeout of
        the last read (DEFAULT_TIMEOUT before any read) has passed."""
        try:
            self.sock.settimeout(self._timeout)
            self.sock.sendall(data)
        except socket.timeout as e:
            raise TransportTimeout(f"send of {len(data)} bytes timed out") from e
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def recv_exact(self, n: int, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        """Reads exactly n bytes, or raises TransportTimeout once timeout
        seconds have passed over the whole read, however the bytes trickle
        in."""
        self._timeout = timeout
        deadline = time.monotonic() + timeout
        buf = bytearray()
        try:
            while len(buf) < n:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TransportTimeout(f"timed out waiting for {n} bytes")
                self.sock.settimeout(left)
                chunk = self.sock.recv(n - len(buf))
                if not chunk:
                    raise TransportError("connection closed")
                buf.extend(chunk)
        except socket.timeout as e:
            raise TransportTimeout(f"timed out waiting for {n} bytes") from e
        except OSError as e:
            raise TransportError(f"recv failed: {e}") from e
        return bytes(buf)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def loopback_pair() -> tuple[SocketStream, SocketStream]:
    """The two ends of an in-process socket pair."""
    a, b = socket.socketpair()
    return SocketStream(a), SocketStream(b)


def tcp_connect(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> SocketStream:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        raise TransportError(f"connect to {host}:{port} failed: {e}") from e
    return _tcp_stream(sock)


def tcp_listen_once(host: str, port: int, timeout: float = DEFAULT_TIMEOUT,
                    ready_event: threading.Event | None = None,
                    bound_port: list | None = None) -> SocketStream:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        srv.bind((host, port))
        srv.listen(1)
        if bound_port is not None:
            bound_port.append(srv.getsockname()[1])
        if ready_event is not None:
            ready_event.set()
        srv.settimeout(timeout)
        conn, _ = srv.accept()
    except socket.timeout as e:
        srv.close()
        raise TransportTimeout("no connection") from e
    except OSError as e:
        srv.close()
        raise TransportError(f"listen on {host}:{port} failed: {e}") from e
    srv.close()
    return _tcp_stream(conn)


def _tcp_stream(sock: socket.socket) -> SocketStream:
    """A TCP end with Nagle's algorithm off: a frame is written the moment it
    is encoded, and with Nagle on a 33-frame message over 127.0.0.1 took up
    to 43 ms waiting for delayed ACKs, against 1.5 ms without."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketStream(sock)


class TranscriptWriter:
    """Length-prefixed capture of every wire message, with direction tags."""

    DIR_SENT = 0
    DIR_RECEIVED = 1

    def __init__(self, path):
        self._f = open(path, "wb")
        self._lock = threading.Lock()

    def record(self, direction: int, data: bytes) -> None:
        with self._lock:
            self._f.write(bytes([direction]) + struct.pack("<I", len(data)) + data)
            self._f.flush()

    def close(self) -> None:
        self._f.close()


def read_transcript(path):
    """Returns the (direction, WireMessage) records of a transcript file,
    read one record at a time.

    A record cut short, in its 5-byte header or in its message, or whose
    length exceeds the largest wire message raises MalformedMessage, the
    last before its message is read; a file that cannot be read raises
    TransportError.
    """
    out, pos = [], 0
    try:
        with open(path, "rb") as f:
            while head := f.read(5):
                if len(head) < 5:
                    raise MalformedMessage(f"transcript record at byte {pos}: truncated header")
                direction = head[0]
                if direction not in (TranscriptWriter.DIR_SENT, TranscriptWriter.DIR_RECEIVED):
                    raise MalformedMessage(
                        f"transcript record at byte {pos}: bad direction {direction}")
                (length,) = struct.unpack_from("<I", head, 1)
                if length > HEADER_LEN + MAX_BODY + 4:
                    raise MalformedMessage(
                        f"transcript record at byte {pos}: {length}-byte message exceeds the cap")
                data = f.read(length)
                if len(data) < length:
                    raise MalformedMessage(f"transcript record at byte {pos}: truncated message")
                out.append((direction, parse(data)))
                pos += 5 + length
    except OSError as e:
        raise TransportError(f"transcript file {path} cannot be read: {e.strerror}") from None
    return out


# ------------------------------------------------------------------ session

def read_message(stream, timeout: float = DEFAULT_TIMEOUT,
                 transcript: TranscriptWriter | None = None) -> WireMessage:
    head = stream.recv_exact(HEADER_LEN, timeout)
    _, length = _parse_header(head)
    rest = stream.recv_exact(length + 4, timeout)
    data = head + rest
    if transcript is not None:
        transcript.record(TranscriptWriter.DIR_RECEIVED, data)
    return parse(data)


class Session:
    """One ordered duplex conversation between provisioned twins.

    A config the codec cannot frame with raises CodecError, and parameters
    of another config or a profile whose config summary is not the config's
    raise ValueError, before any byte is sent."""

    def __init__(self, stream, *, params: M.ParameterSet, config: M.ModelConfig,
                 profile: P.TwinProfile, key: P.SessionKey,
                 codec_params: codec.CodecParams | None = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 transcript: TranscriptWriter | None = None):
        codec.check_config(config)
        if config != params.config:
            raise ValueError("the parameters are of another config than the session's")
        if profile.config_summary != P.config_summary(config):
            raise ValueError("the profile's config summary is not the session config's")
        self.stream = stream
        self.params = params
        self.config = config
        self.profile = profile
        self.key = key
        self.codec_params = codec_params or codec.CodecParams()
        self.timeout = timeout
        self.transcript = transcript
        self.nonce: int | None = None
        self.send_seq = 0
        self.recv_seq = 0
        self.established = False
        self.closed = False  # by FIN or a failure; close() still closes the stream

    def _require(self, established: bool) -> None:
        """Refuses a step out of order or on a closed session; the stream is untouched."""
        if self.closed or self.established != established:
            raise ProtocolViolation("session closed" if self.closed else "handshake out of order")

    def _send(self, msg: WireMessage) -> None:
        data = serialize(msg)
        if self.transcript is not None:
            self.transcript.record(TranscriptWriter.DIR_SENT, data)
        self.stream.send_bytes(data)

    def _fail(self, code: int, reason: str) -> None:
        try:
            self._send(WireMessage(TYPE_ERROR, pack_error(code, reason)))
        except TransportError:
            pass

    def _drain_message(self, seq: int) -> None:
        """Reads and drops the rest of message seq, up to its final frame,
        after its decode failed. The peer writes a message's frames without
        reading: this way its send completes and its next read finds the
        ERROR, where a stream closed at once fails its send or not by
        thread timing. A read error, another message or MAX_MESSAGE_LEN + 1
        frames end the drain."""
        with contextlib.suppress(TransportError):
            for _ in range(codec.MAX_MESSAGE_LEN + 1):
                mseq, frame = unpack_frame(self._expect(TYPE_FRAME).body,
                                           self.config.d_model)
                if mseq != seq or frame.is_final:
                    return

    def _expect(self, mtype: int) -> WireMessage:
        """The next message, which must have type mtype; the peer's ERROR raises
        TwinMismatch if it names a profile field, else PeerError."""
        msg = read_message(self.stream, self.timeout, self.transcript)
        if msg.type == TYPE_ERROR:
            code, reason = unpack_error(msg.body)
            if code == ERR_TWIN_MISMATCH and reason in P.PROFILE_FIELDS:
                raise TwinMismatch(reason, by_peer=True)
            raise PeerError(code, reason)
        if msg.type != mtype:
            raise ProtocolViolation(f"expected {_NAMES[mtype]}, got {_NAMES[msg.type]}")
        return msg

    @contextlib.contextmanager
    def _exit(self):
        """The one way out of a failed step: closes the session and answers as
        the module docstring says; the decode path answered its own failure."""
        try:
            yield
        except (TransportError, codec.CodecError) as e:
            self.closed = True
            if isinstance(e, TwinMismatch) and not e.by_peer:
                self._fail(ERR_TWIN_MISMATCH, e.field)
            elif isinstance(e, (MalformedMessage, BadCrc, UnsupportedVersion,
                                ProtocolViolation)):
                self._fail(ERR_PROTOCOL, str(e))
            raise

    # -- handshake ---------------------------------------------------------

    def _check_hello(self, body: bytes) -> int:
        nonce, remote_profile = unpack_hello(body)
        ok, field = P.verify_twin(self.profile, remote_profile)
        if not ok:
            raise TwinMismatch(field)
        return nonce

    def handshake(self, role: str, nonce: int | None = None) -> None:
        """initiator sends HELLO with a fresh nonce; responder verifies and
        acks. Both ends derive chain IVs from (key, nonce, message seq)."""
        if role not in ("initiator", "responder"):
            raise ValueError("role must be initiator or responder")
        if nonce is not None and not (isinstance(nonce, int) and 0 <= nonce < 2**64):
            raise ValueError(f"nonce must be an integer in [0, 2**64), got {nonce!r}")
        self._require(established=False)
        with self._exit():
            if role == "initiator":
                self.nonce = int.from_bytes(secrets.token_bytes(8), "little") if nonce is None else nonce
                self._send(WireMessage(TYPE_HELLO, pack_hello(self.nonce, self.profile)))
                if self._check_hello(self._expect(TYPE_HELLO_ACK).body) != self.nonce:
                    raise ProtocolViolation("nonce echo mismatch")
            else:
                self.nonce = self._check_hello(self._expect(TYPE_HELLO).body)
                self._send(WireMessage(TYPE_HELLO_ACK, pack_hello(self.nonce, self.profile)))
        self.established = True

    # -- messages ----------------------------------------------------------

    def send_message(self, plaintext: bytes) -> None:
        self._require(established=True)
        seq = self.send_seq
        frames = codec.encode_message_incremental(
            self.params, self.config, self.key.value, self.nonce, seq, plaintext)
        for frame in frames:
            self._send(WireMessage(TYPE_FRAME, pack_frame(seq, frame)))
        self.send_seq += 1

    def recv_message(self) -> bytes:
        self._require(established=True)
        seq = self.recv_seq
        decoder = codec.IncrementalDecoder(
            self.params, self.config, self.key.value, self.nonce, seq,
            self.codec_params)
        with self._exit():
            while True:
                mseq, frame = unpack_frame(self._expect(TYPE_FRAME).body,
                                           self.config.d_model)
                if mseq != seq:
                    raise ProtocolViolation("message seq out of order")
                try:
                    decoder.feed(frame)
                except codec.CodecError as e:
                    self._fail(ERR_DECODE, f"token {frame.seq}: {e}")
                    if not frame.is_final:
                        self._drain_message(seq)
                    raise
                if frame.is_final:
                    self.recv_seq += 1
                    return decoder.plaintext

    def close(self) -> None:
        """Sends FIN on a live session, then closes the stream."""
        try:
            if self.established and not self.closed:
                self._send(WireMessage(TYPE_FIN))
        finally:
            self.closed = True
            self.stream.close()

    def wait_fin(self) -> None:
        self._require(established=True)
        with self._exit():
            self._expect(TYPE_FIN)
        self.closed = True
        self.stream.close()
