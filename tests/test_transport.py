import dataclasses
import json
import os
import socket
import struct
import threading
import time
import tracemalloc
import types
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


def _tcp_pair():
    """Both ends of a TCP connection on 127.0.0.1: (connecting, accepting)."""
    ready, port, accepted = threading.Event(), [], []
    t = threading.Thread(target=lambda: accepted.append(W.tcp_listen_once(
        "127.0.0.1", 0, ready_event=ready, bound_port=port)))
    t.start()
    assert ready.wait(5)
    a = W.tcp_connect("127.0.0.1", port[0])
    t.join(timeout=5)
    assert not t.is_alive()
    return a, accepted[0]


_LINKS = {"loopback": W.loopback_pair, "tcp": _tcp_pair}


@pytest.fixture
def open_pair():
    """Opens stream pairs, a loopback_pair() by default, and closes both
    ends of each at teardown."""
    ends = []

    def open_(kind="loopback"):
        pair = _LINKS[kind]()
        ends.extend(pair)
        return pair

    yield open_
    for end in ends:
        end.close()


@pytest.fixture(params=sorted(_LINKS))
def link(request, open_pair):
    """Both ends of each link kind."""
    return open_pair(request.param)


def test_tcp_connect_to_a_closed_port_fails_typed():
    with socket.socket() as s:  # a port that was free a moment ago, and is closed now
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    with pytest.raises(W.TransportError, match="connect to 127.0.0.1"):
        W.tcp_connect("127.0.0.1", port, timeout=2)


def test_tcp_listen_once_with_no_client_times_out():
    port = []
    t0 = time.monotonic()
    with pytest.raises(W.TransportTimeout, match="no connection"):
        W.tcp_listen_once("127.0.0.1", 0, timeout=0.2, bound_port=port)
    assert port and time.monotonic() - t0 < 5


def test_tcp_listen_once_on_a_port_in_use_fails_typed():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        s.listen(1)
        with pytest.raises(W.TransportError, match="listen on 127.0.0.1"):
            W.tcp_listen_once("127.0.0.1", s.getsockname()[1], timeout=0.2)


def test_both_tcp_ends_turn_nagle_off(open_pair):
    for end in open_pair("tcp"):
        assert end.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


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


def test_golden_hello_fields():
    # nonce u64, then the twin profile: four 32-byte digests and the config
    # summary, the packed ModelConfig and the template version byte
    data = bytes.fromhex(GOLDEN["hello"])
    assert len(data) == W.HEADER_LEN + 8 + P.TwinProfile.packed_size() + 4
    assert int.from_bytes(data[-4:], "little") == _crc32_oracle(data[:-4])
    nonce, prof = W.unpack_hello(W.parse(data).body)
    assert nonce == 0x0123456789ABCDEF
    assert (prof.base_fingerprint, prof.adapter_fingerprint, prof.registry_digest,
            prof.key_commitment) == tuple(bytes([b]) * 32 for b in (0x11, 0x22, 0x33, 0x44))
    assert M.ModelConfig.unpack(prof.config_summary[:-1]) == M.ModelConfig()
    assert prof.config_summary[-1] == 1


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


@pytest.mark.parametrize("flags", [0x02, 0x81, 0x82, 0xFF])
def test_unpack_frame_rejects_flags_other_than_0_or_1(flags):
    body = W.pack_frame(0, codec.TokenFrame(seq=0, payload=np.ones(32, dtype=np.float32)))
    with pytest.raises(W.MalformedMessage, match="flags"):
        W.unpack_frame(body[:12] + bytes([flags]) + body[13:], 32)


def test_unpack_frame_rejects_a_body_of_another_length():
    body = W.pack_frame(0, codec.TokenFrame(seq=0, payload=np.ones(32, dtype=np.float32)))
    for bad in (body[:-1], body + b"\x00", body[:13], b""):
        with pytest.raises(W.MalformedMessage, match="bad frame body length"):
            W.unpack_frame(bad, 32)


def test_unpack_error_rejects_an_empty_body():
    with pytest.raises(W.MalformedMessage, match="empty error body"):
        W.unpack_error(b"")


@pytest.mark.parametrize("msg", [W.WireMessage(0), W.WireMessage(6),
                                 W.WireMessage(W.TYPE_ERROR, bytes(W.MAX_BODY + 1))],
                         ids=["type 0", "type 6", "body over the cap"])
def test_serialize_refuses_what_parse_refuses(msg):
    with pytest.raises(W.MalformedMessage):
        W.serialize(msg)


def test_serialize_takes_a_body_at_the_cap():
    msg = W.WireMessage(W.TYPE_ERROR, bytes(W.MAX_BODY))
    assert W.parse(W.serialize(msg)) == msg


def test_parser_never_crashes_on_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(300):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 80))).astype(np.uint8).tobytes()
        try:
            W.parse(blob)
        except W.TransportError:
            pass


# ---------------------------------------------------------- stream contract
# Every test runs on both link kinds, a loopback_pair() and a TCP connection.

def _fill_until_timeout(stream):
    """Writes 256 KiB chunks into a stream whose peer never reads until a
    send times out; returns how long that last send waited."""
    chunk = bytes(256 * 1024)
    for _ in range(256):  # 64 MiB: well past any pair's or connection's buffers
        start = time.monotonic()
        try:
            stream.send_bytes(chunk)
        except W.TransportTimeout:
            return time.monotonic() - start
    pytest.fail("64 MiB went into a stream nobody reads")


def test_a_trickling_peer_meets_the_read_deadline(link):
    a, b = link
    stop = threading.Event()

    def trickle():
        for _ in range(30):
            if stop.wait(0.1):
                return
            b.send_bytes(b"x")

    t = threading.Thread(target=trickle)
    t.start()
    start = time.monotonic()
    try:
        with pytest.raises(W.TransportTimeout):
            a.recv_exact(30, timeout=0.3)
        elapsed = time.monotonic() - start
    finally:
        stop.set()
        t.join(timeout=5)
    assert not t.is_alive()
    # 30 bytes trickle in over 3 s; one timeout per recv() would wait them out
    assert 0.3 <= elapsed < 2.0


def test_a_deadline_that_passes_between_two_chunks_times_out(open_pair, monkeypatch):
    # the clock passes the deadline after the first chunk, so the read
    # raises before it would set a negative socket timeout
    a, b = open_pair()
    b.send_bytes(b"ab")
    clock = iter([0.0, 0.0])
    monkeypatch.setattr(W, "time", types.SimpleNamespace(monotonic=lambda: next(clock, 1.0)))
    with pytest.raises(W.TransportTimeout, match="waiting for 4 bytes"):
        a.recv_exact(4, timeout=0.5)


def test_close_ignores_a_socket_that_fails_to_close():
    closed = []

    class FailingSocket:
        def close(self):
            closed.append(True)
            raise OSError("bad file descriptor")

    W.SocketStream(FailingSocket()).close()
    assert closed == [True]

def test_a_writer_nobody_reads_times_out(link):
    a, _ = link
    with pytest.raises(W.TransportTimeout):
        a.recv_exact(1, timeout=0.2)  # the sends below wait up to 0.2 s
    assert _fill_until_timeout(a) >= 0.15


def test_bytes_sent_before_a_close_are_read_then_the_stream_ends(link):
    a, b = link
    b.send_bytes(b"last words")
    b.close()
    assert a.recv_exact(4, timeout=5) + a.recv_exact(6, timeout=5) == b"last words"
    with pytest.raises(W.TransportError) as err:
        a.recv_exact(1, timeout=5)
    assert not isinstance(err.value, W.TransportTimeout)


def test_a_send_after_the_peer_closed_fails(link):
    a, b = link
    b.close()
    # a TCP peer answers the first send with a reset; the next one fails
    with pytest.raises(W.TransportError) as err:
        for _ in range(100):
            a.send_bytes(b"x")
            time.sleep(0.01)
    assert not isinstance(err.value, W.TransportTimeout)


def test_a_send_after_a_read_keeps_the_whole_read_timeout(link):
    a, b = link

    def two_parts():
        b.send_bytes(b"!")
        time.sleep(0.05)
        b.send_bytes(b"?")

    timer = threading.Timer(0.4, two_parts)
    timer.start()
    # the read's second recv() has about 0.2 s of the deadline left
    assert a.recv_exact(2, timeout=0.6) == b"!?"
    timer.join(timeout=5)
    assert not timer.is_alive()
    # the sends wait out the read's whole 0.6 s, not what was left of it
    assert _fill_until_timeout(a) >= 0.5


# --------------------------------------------------------------- handshake

def test_handshake_established_with_equal_nonces(open_pair, params, profile):
    a, b = open_pair()
    s1 = _session(a, params, profile)
    s2 = _session(b, params, profile)
    t = threading.Thread(target=s2.handshake, args=("responder",))
    t.start()
    s1.handshake("initiator", nonce=42)
    t.join()
    assert s1.established and s2.established
    assert s1.nonce == s2.nonce == 42


def test_handshake_rejects_an_unknown_role(open_pair, params, profile):
    a, b = open_pair()
    s = _session(b, params, profile)
    with pytest.raises(ValueError, match="role"):
        s.handshake("observer")
    assert not (s.established or s.closed)
    with pytest.raises(W.TransportTimeout):  # the peer reads nothing
        a.recv_exact(1, timeout=0.3)


@pytest.mark.parametrize("nonce", [-1, 2**64, 1.0])
def test_handshake_rejects_a_nonce_outside_64_bits(open_pair, params, profile, nonce):
    a, b = open_pair()
    s = _session(b, params, profile)
    with pytest.raises(ValueError, match="nonce"):
        s.handshake("initiator", nonce=nonce)
    assert not (s.established or s.closed)
    with pytest.raises(W.TransportTimeout):  # the peer reads nothing
        a.recv_exact(1, timeout=0.3)


def _mismatched_handshake(open_pair, params, initiator_profile, responder_profile):
    """Handshake two sessions whose profiles differ; returns the field the
    initiator's TwinMismatch names and what the responder raised."""
    a, b = open_pair()
    s1 = _session(a, params, initiator_profile)
    s2 = _session(b, params, responder_profile)
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
    t.join(timeout=30)
    assert not t.is_alive()
    return ei.value.field, errs


def test_handshake_twin_mismatch_names_field(open_pair, params, profile):
    other = P.TwinProfile(profile.base_fingerprint, bytes([9]) * 32,
                          profile.registry_digest, profile.key_commitment,
                          profile.config_summary)
    field, errs = _mismatched_handshake(open_pair, params, profile, other)
    assert field == "adapter"
    assert isinstance(errs[0], W.TwinMismatch)


@pytest.mark.parametrize("v1_side", ["initiator", "responder"])
def test_handshake_rejects_a_template_v1_peer(open_pair, params, profile, v1_side):
    # the v1 peer is a raw stream end, since a Session refuses a profile
    # whose config summary is not its config's
    assert codec.TEMPLATE_VERSION == 2 and profile.config_summary[-1] == 2
    v1 = dataclasses.replace(profile, config_summary=CFG.pack() + bytes([1]))
    a, b = open_pair()
    s = _session(b, params, profile)
    role, wire = ("responder", _hello(v1)) if v1_side == "initiator" else ("initiator", _ack(v1))
    a.send_bytes(wire)
    with pytest.raises(W.TwinMismatch) as err:
        s.handshake(role, nonce=8 if role == "initiator" else None)
    assert err.value.field == "config" and not err.value.by_peer
    if v1_side == "responder":
        assert W.read_message(a, timeout=1).type == W.TYPE_HELLO
    reply = W.read_message(a, timeout=1)
    assert reply.type == W.TYPE_ERROR
    assert W.unpack_error(reply.body) == (W.ERR_TWIN_MISMATCH, "config")


@pytest.mark.parametrize("wrong", ["parameters", "profile"])
def test_a_session_refuses_parameters_or_a_profile_of_another_config(open_pair, params, profile,
                                                                    wrong):
    # before any byte is sent: two sessions of one profile whose configs
    # differ in d_model would pass the handshake and fail at the first FRAME
    wide = dataclasses.replace(CFG, d_model=64)
    wide_params = M.init_parameters(wide, seed=55)
    a, b = open_pair()
    with pytest.raises(ValueError, match=wrong):
        W.Session(b, params=wide_params, config=CFG if wrong == "parameters" else wide,
                  profile=profile, key=KEY)
    with pytest.raises(W.TransportTimeout):  # the peer reads nothing
        a.recv_exact(1, timeout=0.3)


@pytest.mark.parametrize("other_side", ["initiator", "responder"])
def test_a_twin_of_another_d_model_fails_on_a_named_field(open_pair, params, profile,
                                                        other_side):
    # the HELLO carries d_model once, in the profile's config summary: a twin
    # of another d_model differs in its base fingerprint, the first field
    # verify_twin compares, and in that summary
    cfg = dataclasses.replace(CFG, d_model=64)
    other_params = M.init_parameters(cfg, 55)
    other = dataclasses.replace(profile, base_fingerprint=M.fingerprint(other_params),
                                config_summary=P.config_summary(cfg))
    same_base = dataclasses.replace(other, base_fingerprint=profile.base_fingerprint)
    assert P.verify_twin(profile, same_base) == (False, "config")
    a, b = open_pair()
    ends = [_session(a, params, profile),
            W.Session(b, params=other_params, config=cfg, profile=other, key=KEY)]
    initiator, responder = ends if other_side == "responder" else ends[::-1]
    errs = []
    t = threading.Thread(target=lambda: errs.append(
        pytest.raises(W.TwinMismatch, responder.handshake, "responder").value))
    t.start()
    with pytest.raises(W.TwinMismatch) as ei:
        initiator.handshake("initiator", nonce=1)
    t.join(timeout=30)
    assert not t.is_alive()
    assert ei.value.field == errs[0].field == "base"
    assert ei.value.by_peer and not errs[0].by_peer


def test_frame_before_hello_is_protocol_violation(open_pair, params, profile):
    a, b = open_pair()
    s2 = _session(b, params, profile)
    frame = codec.TokenFrame(seq=0, payload=np.ones(32, dtype=np.float32))
    a.send_bytes(W.serialize(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, frame))))
    with pytest.raises(W.ProtocolViolation):
        s2.handshake("responder")


def _old_layout_hello(profile, nonce=8):
    """A HELLO body in the layout before the profile magic, the mode byte and
    the d_model echo went: 9 bytes longer than pack_hello's."""
    return (struct.pack("<Q", nonce) + b"CMTP" + profile.pack() + bytes([1])
            + struct.pack("<I", CFG.d_model))


@pytest.mark.parametrize("fault", ["zero fingerprint", "body length", "old layout"])
def test_malformed_hello_gets_error_reply(open_pair, params, profile, fault):
    body = bytearray(W.pack_hello(8, profile))
    if fault == "zero fingerprint":
        body[8:40] = bytes(32)  # the base fingerprint
    elif fault == "old layout":
        body = _old_layout_hello(profile)
    else:
        body += b"\x00"
    a, b = open_pair()
    s2 = _session(b, params, profile)
    a.send_bytes(W.serialize(W.WireMessage(W.TYPE_HELLO, bytes(body))))
    with pytest.raises(W.MalformedMessage):
        s2.handshake("responder")
    reply = W.read_message(a, timeout=1)
    assert reply.type == W.TYPE_ERROR
    assert W.unpack_error(reply.body)[0] == W.ERR_PROTOCOL


def test_a_malformed_hello_from_a_peer_that_left_fails_typed(open_pair, params, profile):
    # the ERROR reply cannot be sent, and the responder still raises the
    # typed error of the HELLO
    a, b = open_pair()
    s = _session(b, params, profile)
    a.send_bytes(W.serialize(W.WireMessage(W.TYPE_HELLO, _old_layout_hello(profile))))
    a.close()
    with pytest.raises(W.MalformedMessage, match="bad hello body length"):
        s.handshake("responder")
    assert s.closed


# ---------------------------------------------------------------- sessions

def _run_exchange(open_pair, params, profile, messages, kind="loopback"):
    a, b = open_pair(kind)
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


def test_loopback_roundtrip(open_pair, params, profile):
    msgs = [b"test1234", b"", b"\x00\xff salts"]
    assert _run_exchange(open_pair, params, profile, msgs) == msgs


def test_two_messages_use_distinct_schedules(open_pair, params, profile):
    # decoded through one session: message seq 0 and 1 get different IVs
    a, b = open_pair()
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


def test_tcp_matches_loopback(open_pair, params, profile):
    msgs = [b"alpha", b"beta gamma", bytes(range(32))]
    loop = _run_exchange(open_pair, params, profile, msgs)
    assert _run_exchange(open_pair, params, profile, msgs, kind="tcp") == msgs == loop


def test_transcript_capture_and_replay(tmp_path, open_pair, params, profile):
    a, b = open_pair()
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


def test_transcript_record_with_an_unknown_direction(tmp_path):
    fin = W.serialize(W.WireMessage(W.TYPE_FIN))
    path = tmp_path / "cap.bin"
    path.write_bytes(bytes([2]) + struct.pack("<I", len(fin)) + fin)
    with pytest.raises(W.MalformedMessage, match="direction"):
        W.read_transcript(path)


@pytest.mark.parametrize("head", ["zeros", "a record the size of the file"])
def test_a_64_mib_transcript_fails_typed_without_being_buffered(tmp_path, head):
    # zeros: a first record of an empty message, which no wire message is;
    # then a record whose length covers the rest of the file but exceeds
    # the largest wire message, refused before its message is read
    path = tmp_path / "cap.bin"
    size = 64 << 20
    path.write_bytes(b"" if head == "zeros" else bytes([0]) + struct.pack("<I", size - 5))
    os.truncate(path, size)
    tracemalloc.start()
    try:
        with pytest.raises(W.MalformedMessage):
            W.read_transcript(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unreadable_transcript_fails_typed_naming_it(tmp_path):
    path = tmp_path / "cap.bin"
    with pytest.raises(W.TransportError, match="cap.bin"):
        W.read_transcript(path)  # missing
    path.mkdir()
    with pytest.raises(W.TransportError, match="cap.bin"):
        W.read_transcript(path)  # a directory


def test_session_rejects_a_one_block_config(open_pair, profile):
    # the same typed error the codec raises for this config
    one = dataclasses.replace(CFG, n_blocks=1)
    a, _ = open_pair()
    with pytest.raises(codec.CodecError, match="at least 2 blocks"):
        W.Session(a, params=M.init_parameters(one, seed=3), config=one,
                  profile=profile, key=KEY)


@pytest.mark.parametrize("field, value", [("vocab_size", 100), ("max_seq", 8)])
def test_session_rejects_a_config_the_frames_do_not_fit(open_pair, profile, field, value):
    bad = dataclasses.replace(CFG, **{field: value})
    a, _ = open_pair()
    with pytest.raises(codec.CodecError, match=f"{field} >= "):
        W.Session(a, params=M.init_parameters(bad, seed=3), config=bad,
                  profile=profile, key=KEY)


def test_non_finite_frame_gets_error_reply(open_pair, params, profile):
    one_inf = np.ones(CFG.d_model, dtype=np.float32)
    one_inf[0] = np.inf
    for payload in (np.full(CFG.d_model, np.nan, dtype=np.float32), one_inf):
        a, b = open_pair()
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


def test_bad_crc_frame_gets_error_reply(open_pair, params, profile):
    a, b = open_pair()
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


def test_over_cap_message_gets_decode_error(open_pair, params, profile, monkeypatch):
    a, b = open_pair()
    # the untrained fixture leaves some of 64 bytes a margin near 1e-6; the
    # exact hypothesis still scores 1.0, and this test is about the cap
    s1, s2 = _handshaken(a, b, params, profile,
                         codec_params=codec.CodecParams(delta=0.0))
    monkeypatch.setattr(codec, "MAX_MESSAGE_LEN", 80)
    frames = codec.encode_message_incremental(params, CFG, KEY.value, s1.nonce, 0,
                                              bytes(range(40, 120)))
    monkeypatch.undo()

    def write():
        for frame in frames:
            s1._send(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, frame)))

    # 81 frames outgrow what an unread pair holds: write them while s2 reads
    writer = threading.Thread(target=write)
    writer.start()
    with pytest.raises(codec.DecodeFailure, match="frame 64: message is 65 bytes"):
        s2.recv_message()
    writer.join(timeout=30)
    assert not writer.is_alive()
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


def test_wait_fin_closes_the_stream(open_pair, params, profile):
    a, b = open_pair()
    spy = _CloseSpy(b)
    s1, s2 = _handshaken(a, spy, params, profile)
    s1.close()
    s2.wait_fin()
    assert s2.closed and spy.closed


def test_send_before_handshake_rejected(open_pair, params, profile):
    a, _ = open_pair()
    s1 = _session(a, params, profile)
    with pytest.raises(W.ProtocolViolation):
        s1.send_message(b"x")


def test_decode_failure_drains_the_rest_of_the_message(open_pair, params, profile):
    # a delta no margin reaches fails the first frame; the receiver reads on
    # to that message's final frame, so the peer's send never meets a closed
    # stream, and leaves the next message unread
    a, b = open_pair()
    s1, s2 = _handshaken(a, b, params, profile, codec_params=codec.CodecParams(delta=0.5))
    s1.send_message(b"abcd")
    s1.send_message(b"e")
    with pytest.raises(codec.AmbiguousDecode):
        s2.recv_message()
    reply = W.read_message(a, timeout=5)
    assert reply.type == W.TYPE_ERROR
    assert W.unpack_error(reply.body)[0] == W.ERR_DECODE
    mseq, frame = W.unpack_frame(W.read_message(b, timeout=5).body, CFG.d_model)
    assert (mseq, frame.seq) == (1, 0)


# ------------------------------------------------------------- exit policy

def _wire(mtype, body=b""):
    return W.serialize(W.WireMessage(mtype, body))


def _hello(profile, mtype=W.TYPE_HELLO, nonce=8):
    return _wire(mtype, W.pack_hello(nonce, profile))


def _ack(profile, **kw):
    return _hello(profile, W.TYPE_HELLO_ACK, **kw)


def _other_twin(profile):
    return dataclasses.replace(profile, adapter_fingerprint=bytes([9]) * 32)


def _frame_wire(mseq=0, value=1.0, final=True):
    payload = np.full(CFG.d_model, value, dtype=np.float32)
    return _wire(W.TYPE_FRAME, W.pack_frame(mseq, codec.TokenFrame(0, payload, final)))


def _short_frame_wire():
    payload = np.ones(CFG.d_model - 1, dtype=np.float32)  # a body 4 bytes short
    return _wire(W.TYPE_FRAME, W.pack_frame(0, codec.TokenFrame(0, payload, True)))


def _flip_crc(data):
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _error(code, reason):
    return _wire(W.TYPE_ERROR, W.pack_error(code, reason))


_PROTO, _TWIN, _DECODE = W.ERR_PROTOCOL, W.ERR_TWIN_MISMATCH, W.ERR_DECODE
# (step, what the peer sends as a function of the profile, or None for the end
# of its stream, the error the step raises, the ERROR code the peer reads)
_EXITS = {
    "initiator: ack with a flipped crc bit":
        ("initiator", lambda p: _flip_crc(_ack(p)), W.BadCrc, _PROTO),
    "initiator: frame for the ack":
        ("initiator", lambda p: _frame_wire(), W.ProtocolViolation, _PROTO),
    "initiator: ack echoing another nonce":
        ("initiator", lambda p: _ack(p, nonce=9), W.ProtocolViolation, _PROTO),
    "initiator: ack in the old layout":
        ("initiator", lambda p: _wire(W.TYPE_HELLO_ACK, _old_layout_hello(p)),
         W.MalformedMessage, _PROTO),
    "initiator: ack from another twin":
        ("initiator", lambda p: _ack(_other_twin(p)), W.TwinMismatch, _TWIN),
    "initiator: twin mismatch named by the peer":
        ("initiator", lambda p: _error(_TWIN, "adapter"), W.TwinMismatch, None),
    "initiator: twin mismatch naming garbage":
        ("initiator", lambda p: _error(_TWIN, "garbage"), W.PeerError, None),
    "initiator: silence":
        ("initiator", lambda p: b"", W.TransportTimeout, None),
    "responder: hello with a flipped crc bit":
        ("responder", lambda p: _flip_crc(_hello(p)), W.BadCrc, _PROTO),
    "responder: hello of version 2":
        ("responder", lambda p: _hello(p)[:4] + b"\x02" + _hello(p)[5:],
         W.UnsupportedVersion, _PROTO),
    "responder: frame for the hello":
        ("responder", lambda p: _frame_wire(), W.ProtocolViolation, _PROTO),
    "responder: hello in the old layout":
        ("responder", lambda p: _wire(W.TYPE_HELLO, _old_layout_hello(p)),
         W.MalformedMessage, _PROTO),
    "responder: hello from another twin":
        ("responder", lambda p: _hello(_other_twin(p)), W.TwinMismatch, _TWIN),
    "responder: peer error":
        ("responder", lambda p: _error(_PROTO, "no"), W.PeerError, None),
    "recv: frame with a flipped crc bit":
        ("recv", lambda p: _flip_crc(_frame_wire()), W.BadCrc, _PROTO),
    "recv: non-finite frame":
        ("recv", lambda p: _frame_wire(value=np.inf), W.MalformedMessage, _PROTO),
    "recv: frame with a short body":
        ("recv", lambda p: _short_frame_wire(), W.MalformedMessage, _PROTO),
    "recv: error with an empty body":
        ("recv", lambda p: _wire(W.TYPE_ERROR), W.MalformedMessage, _PROTO),
    "recv: frame of the next message":
        ("recv", lambda p: _frame_wire(mseq=1), W.ProtocolViolation, _PROTO),
    "recv: fin for a frame":
        ("recv", lambda p: _wire(W.TYPE_FIN), W.ProtocolViolation, _PROTO),
    "recv: hello for a frame":
        ("recv", lambda p: _hello(p), W.ProtocolViolation, _PROTO),
    "recv: frame that does not decode, then the final one":
        ("recv", lambda p: _frame_wire(value=0.0, final=False) + _frame_wire(),
         codec.DecodeFailure, _DECODE),
    "recv: peer error":
        ("recv", lambda p: _error(_DECODE, "no"), W.PeerError, None),
    "recv: twin mismatch named by the peer":
        ("recv", lambda p: _error(_TWIN, "adapter"), W.TwinMismatch, None),
    "recv: twin mismatch naming garbage":
        ("recv", lambda p: _error(_TWIN, "garbage"), W.PeerError, None),
    "recv: silence":
        ("recv", lambda p: b"", W.TransportTimeout, None),
    "recv: end of the stream":
        ("recv", lambda p: None, W.TransportError, None),
    "wait_fin: frame for the fin":
        ("wait_fin", lambda p: _frame_wire(), W.ProtocolViolation, _PROTO),
    "wait_fin: peer error":
        ("wait_fin", lambda p: _error(_PROTO, "no"), W.PeerError, None),
}


def _answer(peer):
    """The code of the ERROR the peer reads before its stream ends, or None
    when the stream ends first."""
    try:
        msg = W.read_message(peer, timeout=1)
    except W.TransportError:
        return None
    assert msg.type == W.TYPE_ERROR
    with pytest.raises(W.TransportError):  # and nothing after it
        W.read_message(peer, timeout=1)
    return W.unpack_error(msg.body)[0]


@pytest.mark.parametrize("step, wire, raised, answer", _EXITS.values(), ids=_EXITS)
def test_every_failure_closes_the_session_with_its_one_answer(
        open_pair, params, profile, step, wire, raised, answer):
    a, b = open_pair()
    kw = {"timeout": 0.5} if raised is W.TransportTimeout else {}
    if step in ("initiator", "responder"):
        s = _session(b, params, profile, **kw)
    else:
        _, s = _handshaken(a, b, params, profile, **kw)
    steps = {"initiator": lambda: s.handshake("initiator", nonce=8),
             "responder": lambda: s.handshake("responder"),
             "recv": s.recv_message, "wait_fin": s.wait_fin}
    data = wire(profile)
    if data is None:
        a.sock.shutdown(socket.SHUT_WR)
    else:
        a.send_bytes(data)
    with pytest.raises(raised) as err:
        steps[step]()
    assert type(err.value) is raised
    if raised is W.TwinMismatch:
        assert err.value.field == "adapter"
    assert s.closed
    s.close()
    if step == "initiator":
        assert W.read_message(a, timeout=1).type == W.TYPE_HELLO
    assert _answer(a) == answer


def test_a_failed_session_takes_no_further_step(open_pair, params, profile):
    # after a decode failure nothing is read or sent, the next message stays
    # unread, and close() ends the stream with no FIN
    a, b = open_pair()
    s1, s2 = _handshaken(a, b, params, profile, codec_params=codec.CodecParams(delta=0.5))
    s1.send_message(b"abcd")
    s1.send_message(b"e")
    with pytest.raises(codec.AmbiguousDecode):
        s2.recv_message()
    for step in (s2.recv_message, s2.wait_fin, lambda: s2.send_message(b"x"),
                 lambda: s2.handshake("responder")):
        with pytest.raises(W.ProtocolViolation, match="session closed"):
            step()
    mseq, frame = W.unpack_frame(W.read_message(b, timeout=5).body, CFG.d_model)
    assert (mseq, frame.seq) == (1, 0)
    s2.close()
    assert _answer(a) == W.ERR_DECODE


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
    a, b = W.loopback_pair()
    try:
        s1, s2 = _handshaken(a, b, params, profile, timeout=5.0)
        frames = codec.encode_message_incremental(params, CFG, KEY.value, s1.nonce,
                                                  0, plaintext)
        wire = [W.serialize(W.WireMessage(W.TYPE_FRAME, W.pack_frame(0, f)))
                for f in frames]
        for mutation in mutations:
            _mutate(data, wire, mutation)
        a.send_bytes(b"".join(wire))
        a.sock.shutdown(socket.SHUT_WR)
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
