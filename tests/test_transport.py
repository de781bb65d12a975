import json
import socket
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciphermind import codec
from ciphermind import model as M
from ciphermind import provisioning as P
from ciphermind import transport as W

GOLDEN = json.loads((Path(__file__).parent / "golden" / "wire_vectors.json").read_text())

CFG = M.ModelConfig(n_blocks=4, d_model=32, n_heads=2, d_ff=64,
                    vocab_size=260, max_seq=256)
KEY = P.SessionKey(bytes(range(1, 17)))

# untrained fixture model: see test_codec for why delta is pinned small here
CP = codec.CodecParams(delta=1e-6)


def _crc32_oracle(data: bytes) -> int:
    """Independent table-driven CRC-32 (reflected 0xEDB88320)."""
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        table.append(c)
    crc = 0xFFFFFFFF
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


@pytest.fixture(scope="module")
def params():
    return M.init_parameters(CFG, seed=55)


@pytest.fixture(scope="module")
def profile():
    return P.TwinProfile(bytes([1]) * 32, bytes([2]) * 32, bytes([3]) * 32,
                         bytes([4]) * 32, P.config_summary(CFG))


def _session(stream, params, profile, **kw):
    kw.setdefault("codec_params", CP)
    return W.Session(stream, params=params, config=CFG, profile=profile,
                     key=KEY, **kw)


# ------------------------------------------------------------------- wire

def test_crc_oracle_check_value():
    assert _crc32_oracle(b"123456789") == 0xCBF43926
    import zlib
    assert zlib.crc32(b"123456789") & 0xFFFFFFFF == 0xCBF43926


def test_fin_is_exactly_14_bytes_with_oracle_crc():
    data = W.serialize(W.WireMessage(W.TYPE_FIN))
    assert len(data) == 14
    assert data[:4] == b"CMND"
    assert data[4] == 1 and data[5] == W.TYPE_FIN
    assert data[6:10] == b"\x00\x00\x00\x00"
    crc = int.from_bytes(data[10:], "little")
    assert crc == _crc32_oracle(data[:10])


def test_golden_vectors_parse_and_reserialize():
    for name, hexstr in GOLDEN.items():
        data = bytes.fromhex(hexstr)
        msg = W.parse(data)
        assert W.serialize(msg) == data, name


def test_golden_frame_fields():
    msg = W.parse(bytes.fromhex(GOLDEN["frame"]))
    mseq, frame = W.unpack_frame(msg.body, 128)
    assert mseq == 3 and frame.seq == 7 and frame.is_final
    assert frame.payload[8] == np.float32(1.0)


def test_parse_serialize_roundtrip_random():
    rng = np.random.default_rng(2)
    for _ in range(500):
        mtype = int(rng.choice([1, 2, 3, 4, 5]))
        body = rng.integers(0, 256, size=int(rng.integers(0, 200))).astype(np.uint8).tobytes()
        msg = W.WireMessage(mtype, body)
        assert W.parse(W.serialize(msg)) == msg


def test_single_bit_flip_detected():
    rng = np.random.default_rng(3)
    frame = codec.TokenFrame(seq=0, payload=rng.standard_normal(32).astype(np.float32))
    data = bytearray(W.serialize(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, frame))))
    for _ in range(100):
        i = int(rng.integers(0, len(data)))
        bit = 1 << int(rng.integers(0, 8))
        data[i] ^= bit
        with pytest.raises(W.TransportError):
            W.parse(bytes(data))
        data[i] ^= bit


def test_parse_rejects_bad_magic_version_length():
    good = W.serialize(W.WireMessage(W.TYPE_FIN))
    with pytest.raises(W.MalformedMessage):
        W.parse(b"XXXX" + good[4:])
    with pytest.raises(W.UnsupportedVersion):
        W.parse(good[:4] + b"\x09" + good[5:])
    huge = good[:6] + (2 << 20).to_bytes(4, "little") + good[10:]
    with pytest.raises(W.MalformedMessage):
        W.parse(huge)


def test_unpack_frame_rejects_non_finite_payload():
    one_inf = np.ones(32, dtype=np.float32)
    one_inf[5] = np.inf
    for payload in (np.full(32, np.nan, dtype=np.float32), one_inf):
        body = W.pack_frame(0, codec.TokenFrame(seq=0, payload=payload))
        with pytest.raises(W.MalformedMessage, match="non-finite"):
            W.unpack_frame(body, 32)


def test_parser_never_crashes_on_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(300):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 80))).astype(np.uint8).tobytes()
        try:
            W.parse(blob)
        except W.TransportError:
            pass


# --------------------------------------------------------------- handshake

def test_handshake_established_with_equal_nonces(params, profile):
    a, b = W.loopback_pair()
    s1 = _session(a, params, profile)
    s2 = _session(b, params, profile)
    t = threading.Thread(target=s2.handshake, args=("responder",))
    t.start()
    s1.handshake("initiator", nonce=42)
    t.join()
    assert s1.established and s2.established
    assert s1.nonce == s2.nonce == 42


def test_handshake_twin_mismatch_names_field(params, profile):
    other = P.TwinProfile(profile.base_fingerprint, bytes([9]) * 32,
                          profile.registry_digest, profile.key_commitment,
                          profile.config_summary)
    a, b = W.loopback_pair()
    s1 = _session(a, params, profile)
    s2 = _session(b, params, other)
    errs = []

    def responder():
        try:
            s2.handshake("responder")
        except W.TransportError as e:
            errs.append(e)

    t = threading.Thread(target=responder)
    t.start()
    with pytest.raises(W.TwinMismatch) as ei:
        s1.handshake("initiator", nonce=1)
    t.join()
    assert ei.value.field == "adapter"
    assert isinstance(errs[0], W.TwinMismatch)


def test_frame_before_hello_is_protocol_violation(params, profile):
    a, b = W.loopback_pair()
    s2 = _session(b, params, profile)
    frame = codec.TokenFrame(seq=0, payload=np.ones(32, dtype=np.float32))
    a.send_bytes(W.serialize(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, frame))))
    with pytest.raises(W.ProtocolViolation):
        s2.handshake("responder")


@pytest.mark.parametrize("fault", ["profile magic", "zero fingerprint", "body length",
                                   "mode byte"])
def test_malformed_hello_gets_error_reply(params, profile, fault):
    body = bytearray(W.pack_hello(8, profile, CFG.d_model))
    if fault == "profile magic":
        body[8:12] = b"XXXX"
    elif fault == "zero fingerprint":
        body[12:44] = bytes(32)  # the base fingerprint
    elif fault == "mode byte":
        body[8 + P.TwinProfile.packed_size()] = 2  # a retired one-shot peer
    else:
        body += b"\x00"
    a, b = W.loopback_pair()
    s2 = _session(b, params, profile)
    a.send_bytes(W.serialize(W.WireMessage(W.TYPE_HELLO, bytes(body))))
    with pytest.raises(W.MalformedMessage):
        s2.handshake("responder")
    reply = W.read_message(a, timeout=1)
    assert reply.type == W.TYPE_ERROR
    assert W.unpack_error(reply.body)[0] == W.ERR_PROTOCOL


# ---------------------------------------------------------------- sessions

def _run_exchange(params, profile, messages):
    a, b = W.loopback_pair()
    s1 = _session(a, params, profile)
    s2 = _session(b, params, profile)
    received = []
    errors = []

    def responder():
        try:
            s2.handshake("responder")
            for _ in messages:
                received.append(s2.recv_message())
            s2.wait_fin()
        except Exception as e:  # surfaced by the main thread
            errors.append(e)

    t = threading.Thread(target=responder)
    t.start()
    s1.handshake("initiator", nonce=777)
    for m in messages:
        s1.send_message(m)
    s1.close()
    t.join()
    if errors:
        raise errors[0]
    return received


def test_loopback_roundtrip(params, profile):
    msgs = [b"test1234", b"", b"\x00\xff salts"]
    assert _run_exchange(params, profile, msgs) == msgs


def test_two_messages_use_distinct_schedules(params, profile):
    # decoded through one session: message seq 0 and 1 get different IVs
    a, b = W.loopback_pair()
    s1 = _session(a, params, profile)
    s2 = _session(b, params, profile)
    layer_logs = []

    def responder():
        s2.handshake("responder")
        for _ in range(2):
            seq = s2.recv_seq
            dec = codec.IncrementalDecoder(params, CFG, KEY.value, s2.nonce, seq, CP)
            while True:
                msg = W.read_message(s2.stream, s2.timeout)
                _, frame = W.unpack_frame(msg.body, CFG.d_model)
                dec.feed(frame)
                if frame.is_final:
                    break
            layer_logs.append(dec.layers_used)
            s2.recv_seq += 1

    t = threading.Thread(target=responder)
    t.start()
    s1.handshake("initiator", nonce=5)
    s1.send_message(b"abcdef")
    s1.send_message(b"abcdef")
    t.join()
    assert layer_logs[0] != layer_logs[1]


def test_tcp_matches_loopback(params, profile):
    msgs = [b"alpha", b"beta gamma", bytes(range(32))]
    loop = _run_exchange(params, profile, msgs)

    ready = threading.Event()
    port_box = []
    received = []
    errors = []

    def server():
        try:
            stream = W.tcp_listen_once("127.0.0.1", 0, ready_event=ready,
                                       bound_port=port_box)
            s2 = _session(stream, params, profile)
            s2.handshake("responder")
            for _ in msgs:
                received.append(s2.recv_message())
            s2.wait_fin()
        except Exception as e:
            errors.append(e)
            ready.set()

    t = threading.Thread(target=server)
    t.start()
    ready.wait(5)
    stream = W.tcp_connect("127.0.0.1", port_box[0])
    s1 = _session(stream, params, profile)
    s1.handshake("initiator", nonce=777)
    for m in msgs:
        s1.send_message(m)
    s1.close()
    t.join()
    if errors:
        raise errors[0]
    assert received == msgs == loop


def test_transcript_capture_and_replay(tmp_path, params, profile):
    a, b = W.loopback_pair()
    tw = W.TranscriptWriter(tmp_path / "cap.bin")
    s1 = _session(a, params, profile, transcript=tw)
    s2 = _session(b, params, profile)

    def responder():
        s2.handshake("responder")
        s2.recv_message()
        s2.wait_fin()

    t = threading.Thread(target=responder)
    t.start()
    s1.handshake("initiator", nonce=99)
    s1.send_message(b"captured!")
    s1.close()
    t.join()
    tw.close()

    records = W.read_transcript(tmp_path / "cap.bin")
    sent_types = [m.type for d, m in records if d == W.TranscriptWriter.DIR_SENT]
    assert sent_types[0] == W.TYPE_HELLO
    assert sent_types[-1] == W.TYPE_FIN
    frames = [m for d, m in records if m.type == W.TYPE_FRAME]
    assert len(frames) == len(b"captured!") + 1
    # frame bodies have no layer field: seq + token seq + flags + payload only
    assert all(len(m.body) == 8 + 4 + 1 + 4 * CFG.d_model for m in frames)


def test_transcript_truncated_anywhere_in_last_record(tmp_path):
    frame = codec.TokenFrame(seq=0, payload=np.ones(32, dtype=np.float32))
    tw = W.TranscriptWriter(tmp_path / "cap.bin")
    tw.record(W.TranscriptWriter.DIR_SENT, W.serialize(W.WireMessage(W.TYPE_FIN)))
    tw.record(W.TranscriptWriter.DIR_RECEIVED,
              W.serialize(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, frame))))
    tw.close()
    blob = (tmp_path / "cap.bin").read_bytes()
    last = 5 + 14  # the first record: header plus a 14-byte FIN
    assert len(W.read_transcript(tmp_path / "cap.bin")) == 2
    cut_path = tmp_path / "cut.bin"
    cut_path.write_bytes(blob[:last])
    assert [m.type for _, m in W.read_transcript(cut_path)] == [W.TYPE_FIN]
    for cut in range(last + 1, len(blob)):
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(W.MalformedMessage, match="truncated"):
            W.read_transcript(cut_path)


def test_non_finite_frame_gets_error_reply(params, profile):
    one_inf = np.ones(CFG.d_model, dtype=np.float32)
    one_inf[0] = np.inf
    for payload in (np.full(CFG.d_model, np.nan, dtype=np.float32), one_inf):
        a, b = W.loopback_pair()
        s1 = _session(a, params, profile)
        s2 = _session(b, params, profile)
        t = threading.Thread(target=s2.handshake, args=("responder",))
        t.start()
        s1.handshake("initiator", nonce=3)
        t.join()
        frame = codec.TokenFrame(seq=0, payload=payload, is_final=True)
        s1._send(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, frame)))
        with pytest.raises(W.MalformedMessage, match="non-finite"):
            s2.recv_message()
        reply = W.read_message(a, timeout=5)
        assert reply.type == W.TYPE_ERROR
        assert W.unpack_error(reply.body)[0] == W.ERR_PROTOCOL
        assert s2.recv_seq == 0


def test_bad_crc_frame_gets_error_reply(params, profile):
    a, b = W.loopback_pair()
    s1 = _session(a, params, profile)
    s2 = _session(b, params, profile)
    t = threading.Thread(target=s2.handshake, args=("responder",))
    t.start()
    s1.handshake("initiator", nonce=4)
    t.join(timeout=30)
    assert not t.is_alive()
    frame = codec.TokenFrame(seq=0, payload=np.ones(CFG.d_model, dtype=np.float32),
                             is_final=True)
    data = bytearray(W.serialize(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, frame))))
    data[-1] ^= 0x01  # one bit of the CRC
    a.send_bytes(bytes(data))
    with pytest.raises(W.BadCrc):
        s2.recv_message()
    with pytest.raises(W.PeerError) as err:
        s1.recv_message()
    assert err.value.code == W.ERR_PROTOCOL
    assert s2.recv_seq == 0


def _handshaken(a, b, params, profile, **kw):
    """Sessions on the two streams, initiator on a, after the handshake."""
    s1 = _session(a, params, profile, **kw)
    s2 = _session(b, params, profile, **kw)
    t = threading.Thread(target=s2.handshake, args=("responder",))
    t.start()
    s1.handshake("initiator", nonce=6)
    t.join(timeout=30)
    assert not t.is_alive() and s2.established
    return s1, s2


def test_over_cap_message_gets_decode_error(params, profile, monkeypatch):
    a, b = W.loopback_pair()
    # the untrained fixture leaves some of 64 bytes a margin near 1e-6; the
    # exact hypothesis still scores 1.0, and this test is about the cap
    s1, s2 = _handshaken(a, b, params, profile,
                         codec_params=codec.CodecParams(delta=0.0))
    monkeypatch.setattr(codec, "MAX_MESSAGE_LEN", 80)
    s1.send_message(bytes(range(40, 120)))
    monkeypatch.undo()
    with pytest.raises(codec.DecodeFailure, match="frame 64: message is 65 bytes"):
        s2.recv_message()
    reply = W.read_message(a, timeout=5)
    assert reply.type == W.TYPE_ERROR
    code, reason = W.unpack_error(reply.body)
    assert code == W.ERR_DECODE and reason.startswith("token 64:")
    assert s2.recv_seq == 0


class _CloseSpy:
    """A stream that records whether its owner closed it."""

    def __init__(self, inner):
        self.inner = inner
        self.closed = False

    def send_bytes(self, data):
        self.inner.send_bytes(data)

    def recv_exact(self, n, timeout=W.DEFAULT_TIMEOUT):
        return self.inner.recv_exact(n, timeout)

    def close(self):
        self.closed = True
        self.inner.close()


def test_wait_fin_closes_the_stream(params, profile):
    a, b = W.loopback_pair()
    spy = _CloseSpy(b)
    s1, s2 = _handshaken(a, spy, params, profile)
    s1.close()
    s2.wait_fin()
    assert s2.closed and spy.closed


def test_send_before_handshake_rejected(params, profile):
    a, _ = W.loopback_pair()
    s1 = _session(a, params, profile)
    with pytest.raises(W.ProtocolViolation):
        s1.send_message(b"x")


# ------------------------------------------------------------ adversarial peer

# where pack_frame puts each field a mutation rewrites
_FRAME_FIELDS = {"renumber message": slice(0, 8), "renumber": slice(8, 12),
                 "flip final": slice(12, 13), "payload": slice(13, None)}
_MUTATIONS = ("drop", "duplicate", "reorder", "inject", "flip byte", *_FRAME_FIELDS)
_BAD_VALUES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "zeros": 0.0}


def _bad_payload(data) -> bytes:
    kind = data.draw(st.sampled_from([*_BAD_VALUES, "random"]))
    if kind == "random":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        payload = rng.standard_normal(CFG.d_model)
    else:
        payload = np.full(CFG.d_model, _BAD_VALUES[kind])
    return payload.astype("<f4").tobytes()


def _mutate(data, wire, mutation):
    """Applies one mutation to the list of serialized messages, in place."""
    if mutation == "inject":
        mtype = data.draw(st.sampled_from([W.TYPE_HELLO, W.TYPE_HELLO_ACK,
                                           W.TYPE_FIN, W.TYPE_ERROR]))
        body = W.pack_error(W.ERR_DECODE, "injected") if mtype == W.TYPE_ERROR else b""
        wire.insert(data.draw(st.integers(0, len(wire))),
                    W.serialize(W.WireMessage(mtype, body)))
        return
    if not wire:
        return
    i = data.draw(st.integers(0, len(wire) - 1))
    if mutation == "drop":
        del wire[i]
    elif mutation == "duplicate":
        wire.insert(i, wire[i])
    elif mutation == "reorder":
        j = data.draw(st.integers(0, len(wire) - 1))
        wire[i], wire[j] = wire[j], wire[i]
    elif mutation == "flip byte":
        msg = bytearray(wire[i])
        msg[data.draw(st.integers(0, len(msg) - 1))] ^= data.draw(st.integers(1, 255))
        wire[i] = bytes(msg)
    else:
        try:
            msg = W.parse(wire[i])
        except W.TransportError:  # already corrupted by a flipped byte
            return
        if msg.type != W.TYPE_FRAME:
            return
        body = bytearray(msg.body)
        field = _FRAME_FIELDS[mutation]
        if mutation == "flip final":
            body[field] = bytes([body[12] ^ 1])
        elif mutation == "payload":
            body[field] = _bad_payload(data)
        else:
            n = len(body[field])
            body[field] = data.draw(st.binary(min_size=n, max_size=n))
        wire[i] = W.serialize(W.WireMessage(W.TYPE_FRAME, bytes(body)))


@settings(max_examples=25, deadline=None)
@given(plaintext=st.binary(max_size=3),
       mutations=st.lists(st.sampled_from(_MUTATIONS), max_size=2),
       data=st.data())
def test_adversarial_peer_gets_only_typed_errors(params, profile, plaintext,
                                                 mutations, data):
    # a socket pair half-closes: the receiver sees the end of the stream and
    # can still answer the sender
    sa, sb = socket.socketpair()
    a, b = W.TcpStream(sa), W.TcpStream(sb)
    try:
        s1, s2 = _handshaken(a, b, params, profile, timeout=5.0)
        frames = codec.encode_message_incremental(params, CFG, KEY.value, s1.nonce,
                                                  0, plaintext)
        wire = [W.serialize(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, f)))
                for f in frames]
        for mutation in mutations:
            _mutate(data, wire, mutation)
        a.send_bytes(b"".join(wire))
        sa.shutdown(socket.SHUT_WR)
        try:
            got = s2.recv_message()
        except (codec.CodecError, W.TransportError) as e:
            assert s2.recv_seq == 0
            # a closed stream or a timeout leaves nothing to answer, and the
            # peer's own ERROR needs no answer
            if type(e) is not W.TransportError and not isinstance(
                    e, (W.TransportTimeout, W.PeerError)):
                reply = W.read_message(a, timeout=5)
                assert reply.type == W.TYPE_ERROR, e
        else:
            assert s2.recv_seq == 1
            assert got == plaintext
    finally:
        a.close()
        b.close()
