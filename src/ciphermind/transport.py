"""Bit-exact wire protocol, session handshake, and byte-stream transports.

Wire layout (little-endian):

    "CMND" | version u8 | type u8 | length u32 | body | crc32 u32

crc32 is the reflected-0xEDB88320 checksum (zlib's) over header+body. The
frame body carries no layer index: both ends derive the tap layer from the
chained scheduler state, which is the point of the scheme.

Legal message order per session: HELLO -> HELLO_ACK -> FRAME* -> FIN, with
ERROR terminal anywhere.
"""

from __future__ import annotations

import secrets
import socket
import struct
import threading
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
_TYPES = {TYPE_HELLO, TYPE_HELLO_ACK, TYPE_FRAME, TYPE_FIN, TYPE_ERROR}

MODE_INCREMENTAL = 1  # the HELLO's mode byte; no other value is accepted

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
    def __init__(self, field: str):
        super().__init__(f"twin verification failed on field '{field}'")
        self.field = field


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
    if msg.type not in _TYPES:
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
    if mtype not in _TYPES:
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

def pack_hello(nonce: int, profile: P.TwinProfile, d_model: int) -> bytes:
    return (struct.pack("<Q", nonce & (2**64 - 1)) + profile.pack()
            + bytes([MODE_INCREMENTAL]) + struct.pack("<I", d_model))


def unpack_hello(body: bytes):
    want = 8 + P.TwinProfile.packed_size() + 1 + 4
    if len(body) != want:
        raise MalformedMessage("bad hello body length")
    (nonce,) = struct.unpack_from("<Q", body, 0)
    try:
        profile = P.TwinProfile.unpack(body[8:8 + P.TwinProfile.packed_size()])
    except P.ProvisioningError as e:
        raise MalformedMessage(f"bad hello profile: {e}") from None
    mode_byte = body[8 + P.TwinProfile.packed_size()]
    if mode_byte != MODE_INCREMENTAL:
        raise MalformedMessage(f"unknown mode byte {mode_byte}")
    (d_model,) = struct.unpack_from("<I", body, len(body) - 4)
    return nonce, profile, d_model


def pack_frame(message_seq: int, frame: codec.TokenFrame) -> bytes:
    payload = np.ascontiguousarray(frame.payload, dtype="<f4").tobytes()
    flags = 1 if frame.is_final else 0
    return (struct.pack("<Q", message_seq) + struct.pack("<I", frame.seq)
            + bytes([flags]) + payload)


def unpack_frame(body: bytes, d_model: int):
    want = 8 + 4 + 1 + 4 * d_model
    if len(body) != want:
        raise MalformedMessage("bad frame body length")
    (message_seq,) = struct.unpack_from("<Q", body, 0)
    (token_seq,) = struct.unpack_from("<I", body, 8)
    flags = body[12]
    payload = np.frombuffer(body[13:], dtype="<f4").astype(np.float32)
    if not np.all(np.isfinite(payload)):
        raise MalformedMessage("non-finite frame payload")
    return message_seq, codec.TokenFrame(seq=token_seq, payload=payload,
                                         is_final=bool(flags & 1))


def pack_error(code: int, reason: str) -> bytes:
    return bytes([code]) + reason.encode("utf-8")


def unpack_error(body: bytes):
    if not body:
        raise MalformedMessage("empty error body")
    return body[0], body[1:].decode("utf-8", errors="replace")


# --------------------------------------------------------------- transports

class LoopbackEndpoint:
    """In-process duplex byte stream (one half of a pair)."""

    def __init__(self):
        self._buf = bytearray()
        self._cond = threading.Condition()
        self._closed = False
        self.peer: "LoopbackEndpoint" = None

    def send_bytes(self, data: bytes) -> None:
        with self.peer._cond:
            if self.peer._closed:
                raise TransportError("peer closed")
            self.peer._buf.extend(data)
            self.peer._cond.notify_all()

    def recv_exact(self, n: int, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        with self._cond:
            ok = self._cond.wait_for(lambda: len(self._buf) >= n or self._closed,
                                     timeout=timeout)
            if not ok:
                raise TransportTimeout(f"timed out waiting for {n} bytes")
            if len(self._buf) < n:
                raise TransportError("stream closed")
            out = bytes(self._buf[:n])
            del self._buf[:n]
            return out

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self.peer is not None:
            with self.peer._cond:
                self.peer._closed = True
                self.peer._cond.notify_all()


def loopback_pair():
    a, b = LoopbackEndpoint(), LoopbackEndpoint()
    a.peer, b.peer = b, a
    return a, b


class TcpStream:
    def __init__(self, sock: socket.socket):
        self.sock = sock

    def send_bytes(self, data: bytes) -> None:
        try:
            self.sock.sendall(data)
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def recv_exact(self, n: int, timeout: float = DEFAULT_TIMEOUT) -> bytes:
        self.sock.settimeout(timeout)
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self.sock.recv(n - len(buf))
            except socket.timeout as e:
                raise TransportTimeout(str(e)) from e
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not chunk:
                raise TransportError("connection closed")
            buf.extend(chunk)
        return bytes(buf)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def tcp_connect(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> TcpStream:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        raise TransportError(f"connect to {host}:{port} failed: {e}") from e
    return TcpStream(sock)


def tcp_listen_once(host: str, port: int, timeout: float = DEFAULT_TIMEOUT,
                    ready_event: threading.Event | None = None,
                    bound_port: list | None = None) -> TcpStream:
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
    return TcpStream(conn)


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
    """Returns the (direction, WireMessage) records of a transcript file.

    A record cut short, in its 5-byte header or in its message, raises
    MalformedMessage.
    """
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0
    out = []
    while pos < len(blob):
        if pos + 5 > len(blob):
            raise MalformedMessage(f"transcript record at byte {pos}: truncated header")
        direction = blob[pos]
        (length,) = struct.unpack_from("<I", blob, pos + 1)
        end = pos + 5 + length
        if end > len(blob):
            raise MalformedMessage(f"transcript record at byte {pos}: truncated message")
        out.append((direction, parse(blob[pos + 5:end])))
        pos = end
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


@dataclass
class SessionStats:
    frames: int = 0
    wire_bytes: int = 0


class Session:
    """One ordered duplex conversation between provisioned twins."""

    def __init__(self, stream, *, params: M.ParameterSet, config: M.ModelConfig,
                 profile: P.TwinProfile, key: P.SessionKey,
                 codec_params: codec.CodecParams | None = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 transcript: TranscriptWriter | None = None):
        if config.n_blocks < 2:
            raise ValueError("sessions need at least 2 blocks to schedule taps")
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
        self.closed = False

    # -- handshake ---------------------------------------------------------

    def _send(self, msg: WireMessage) -> int:
        data = serialize(msg)
        if self.transcript is not None:
            self.transcript.record(TranscriptWriter.DIR_SENT, data)
        self.stream.send_bytes(data)
        return len(data)

    def _recv(self) -> WireMessage:
        return read_message(self.stream, self.timeout, self.transcript)

    def _fail(self, code: int, reason: str) -> None:
        try:
            self._send(WireMessage(TYPE_ERROR, pack_error(code, reason)))
        except TransportError:
            pass

    def _hello_body(self) -> bytes:
        return pack_hello(self.nonce, self.profile, self.config.d_model)

    def _check_hello(self, body: bytes):
        try:
            nonce, remote_profile, d_model = unpack_hello(body)
        except MalformedMessage as e:
            self._fail(ERR_PROTOCOL, str(e))
            raise
        if d_model != self.config.d_model:
            self._fail(ERR_PROTOCOL, "d_model echo mismatch")
            raise ProtocolViolation("d_model echo mismatch")
        ok, field = P.verify_twin(self.profile, remote_profile)
        if not ok:
            self._fail(ERR_TWIN_MISMATCH, field)
            raise TwinMismatch(field)
        return nonce

    def handshake(self, role: str, nonce: int | None = None) -> None:
        """initiator sends HELLO with a fresh nonce; responder verifies and
        acks. Both ends derive chain IVs from (key, nonce, message seq)."""
        if self.established:
            raise ProtocolViolation("handshake already done")
        if role == "initiator":
            self.nonce = int.from_bytes(secrets.token_bytes(8), "little") if nonce is None else nonce
            self._send(WireMessage(TYPE_HELLO, self._hello_body()))
            reply = self._recv()
            if reply.type == TYPE_ERROR:
                code, reason = unpack_error(reply.body)
                if code == ERR_TWIN_MISMATCH:
                    raise TwinMismatch(reason)
                raise PeerError(code, reason)
            if reply.type != TYPE_HELLO_ACK:
                raise ProtocolViolation(f"expected HELLO_ACK, got type {reply.type}")
            echoed = self._check_hello(reply.body)
            if echoed != self.nonce:
                raise ProtocolViolation("nonce echo mismatch")
        elif role == "responder":
            msg = self._recv()
            if msg.type != TYPE_HELLO:
                self._fail(ERR_PROTOCOL, "expected HELLO first")
                raise ProtocolViolation(f"expected HELLO, got type {msg.type}")
            self.nonce = self._check_hello(msg.body)
            self._send(WireMessage(TYPE_HELLO_ACK, self._hello_body()))
        else:
            raise ValueError("role must be initiator or responder")
        self.established = True

    # -- messages ----------------------------------------------------------

    def send_message(self, plaintext: bytes) -> SessionStats:
        if not self.established or self.closed:
            raise ProtocolViolation("session not established")
        seq = self.send_seq
        frames = codec.encode_message_incremental(
            self.params, self.config, self.key.value, self.nonce, seq, plaintext)
        stats = SessionStats()
        for frame in frames:
            stats.wire_bytes += self._send(
                WireMessage(TYPE_FRAME, pack_frame(seq, frame)))
            stats.frames += 1
        self.send_seq += 1
        return stats

    def recv_message(self) -> bytes:
        if not self.established or self.closed:
            raise ProtocolViolation("session not established")
        seq = self.recv_seq
        decoder = codec.IncrementalDecoder(
            self.params, self.config, self.key.value, self.nonce, seq,
            self.codec_params)
        while True:
            try:
                msg = self._recv()
            except (MalformedMessage, BadCrc, UnsupportedVersion) as e:
                self._fail(ERR_PROTOCOL, str(e))
                raise
            if msg.type == TYPE_ERROR:
                code, reason = unpack_error(msg.body)
                raise PeerError(code, reason)
            if msg.type == TYPE_FIN:
                self._fail(ERR_PROTOCOL, "FIN in the middle of a message")
                raise ProtocolViolation("FIN in the middle of a message")
            if msg.type != TYPE_FRAME:
                self._fail(ERR_PROTOCOL, "expected FRAME")
                raise ProtocolViolation(f"expected FRAME, got type {msg.type}")
            try:
                mseq, frame = unpack_frame(msg.body, self.config.d_model)
            except MalformedMessage as e:
                self._fail(ERR_PROTOCOL, str(e))
                raise
            if mseq != seq:
                self._fail(ERR_PROTOCOL, "message seq out of order")
                raise ProtocolViolation("message seq out of order")
            try:
                decoder.feed(frame)
            except codec.CodecError as e:
                self._fail(ERR_DECODE, f"token {frame.seq}: {e}")
                raise
            if frame.is_final:
                self.recv_seq += 1
                return decoder.plaintext

    def close(self) -> None:
        if self.closed:
            return
        try:
            if self.established:
                self._send(WireMessage(TYPE_FIN))
        finally:
            self.closed = True
            self.stream.close()

    def wait_fin(self) -> None:
        msg = self._recv()
        if msg.type != TYPE_FIN:
            raise ProtocolViolation(f"expected FIN, got type {msg.type}")
        self.closed = True
        self.stream.close()
