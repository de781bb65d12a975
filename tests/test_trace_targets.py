"""The benchmark's tracer wraps functions by (owner, attribute name); a
refactor that moves or drops one of them should fail here, not only in a
traced benchmark run."""

import ast
import importlib
import inspect
import threading
from pathlib import Path

import numpy as np

import perfbench
from ciphermind import codec, detmath, model, provisioning, scheduler, trainer, transport
from perfbench import tracing

MODULES = {"model": model, "detmath": detmath, "codec": codec, "trainer": trainer,
           "provisioning": provisioning, "scheduler": scheduler,
           "transport": transport}


def test_every_traced_name_is_defined_on_its_owner():
    missing = [name for owner, attr, name, _ in tracing.targets(MODULES)
               if attr not in vars(owner)]
    assert not missing


def _workload_uses():
    """(module, attribute, call or None) for every ``X.attr`` in
    perfbench/workloads.py where X is a ciphermind module it imports, and
    (module, name, None) for every name it imports from one."""
    tree = ast.parse((Path(perfbench.__file__).parent / "workloads.py").read_text())
    aliases, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ciphermind":
            for a in node.names:
                aliases[a.asname or a.name] = importlib.import_module(f"ciphermind.{a.name}")
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("ciphermind."):
            uses += [(importlib.import_module(node.module), a.name, None) for a in node.names]
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((aliases[node.value.id], node.attr, calls.get(id(node))))
    return uses


def test_every_ciphermind_name_the_workloads_use_resolves():
    # tier-1 also runs perfbench/tests, which drive whole conversations, but
    # only at a tiny config with a zero-step fine-tune: the workloads call
    # init_parameters, generate_registry, provision, Session, the stream
    # constructors and the scheduler directly, and a refactor that renames
    # one or changes its parameters should fail here, by name, at every call
    # site, whichever ones those tiny runs reach
    uses = _workload_uses()
    assert {"init_parameters", "provision", "Session", "layer_of"} <= {a for _, a, _ in uses}
    broken = []
    for module, attr, call in uses:
        if not hasattr(module, attr):
            broken.append(f"{module.__name__}.{attr} is missing")
        elif call is not None and all(kw.arg for kw in call.keywords):
            try:
                signature = inspect.signature(getattr(module, attr))
            except ValueError:  # exception classes carry no signature
                continue
            try:
                signature.bind(*call.args, **{kw.arg: None for kw in call.keywords})
            except TypeError as e:
                broken.append(f"{module.__name__}.{attr}: {e}")
    assert not broken


TRACE_CFG = model.ModelConfig(n_blocks=4, d_model=32, n_heads=2, d_ff=64,
                              vocab_size=260, max_seq=256)


def _traced_decode(params, frames, key, nonce):
    """Decodes frames under the benchmark's tracer. Returns the decoder,
    the spans and the typed error that stopped the decode, or None."""
    targets = tracing.targets(MODULES)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install(targets)
    error = None
    try:
        dec = codec.IncrementalDecoder(params, TRACE_CFG, key, nonce, 0,
                                       codec.CodecParams(delta=1e-6))
        for frame in frames:
            dec.feed(frame)
    except codec.CodecError as e:
        error = e
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    return dec, tracer.spans, error


def _check_frame_spans(spans, layers):
    """Each score_frame has one exact hypothesis_taps child, the verify of
    2..257 candidates. The draft calls nothing the tracer wraps, so the
    catch-up that runs before it shows as the only exp spans directly under
    score_frame, one per block call. Returns each frame's verify size."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    scores = [s for s in spans if s.name == "codec.score_frame"]
    assert len(scores) == len(layers)
    shallowest = TRACE_CFG.n_blocks - 1  # the template's depth
    catch_up_calls, verified = 0, []
    for t, (span, layer) in enumerate(zip(scores, layers)):
        kids = children.get(span.id, [])
        [note] = [k.note for k in kids if k.name == "model.hypothesis_taps"]
        assert 2 <= note[1] <= len(codec.CANDIDATES), t
        verified.append(note[1])
        prefix = len(codec.template_tokens()) + t
        assert note == (prefix, note[1], 2, layer, TRACE_CFG.n_heads), t
        calls = sum(k.name == "detmath.exp" for k in kids)
        assert calls == max(0, layer - shallowest), t
        catch_up_calls += calls
        shallowest = layer - 1  # the byte this frame commits
    return verified, catch_up_calls


def test_tracer_sees_each_frames_exact_calls_with_the_catch_up_beside_them():
    # the per-layer metrics read each score_frame's hypothesis_taps children
    # and their notes
    params = model.init_parameters(TRACE_CFG, 77)
    key, nonce, plaintext = bytes(range(16)), 0xC0FFEE, b"traced message"
    frames = codec.encode_message_incremental(params, TRACE_CFG, key, nonce, 0, plaintext)
    dec, spans, error = _traced_decode(params, frames, key, nonce)
    assert error is None and dec.plaintext == plaintext
    verified, catch_up_calls = _check_frame_spans(spans, dec.layers_used)
    assert catch_up_calls > 0

    by_id = {s.id: s for s in spans}

    def ancestors(s):
        names = []
        while s.parent is not None:
            s = by_id[s.parent]
            names.append(s.name)
        return names

    # push runs no block: every engine call of a feed is inside its scoring
    fed = [ancestors(s) for s in spans
           if s.name.startswith("detmath.") and "codec.feed" in ancestors(s)]
    assert fed and all("codec.score_frame" in names for names in fed)

    # the same message with the lowest mantissa bit of one element of every
    # payload flipped: the first frame fails after the one exact call, over
    # the candidates the draft offered the clean payload
    rng = np.random.default_rng(len(plaintext))
    for frame, i in zip(frames, rng.integers(0, TRACE_CFG.d_model, size=len(frames))):
        frame.payload = frame.payload.copy()
        frame.payload.view(np.uint32)[i] ^= 1
    flipped, spans, error = _traced_decode(params, frames, key, nonce)
    assert isinstance(error, codec.DecodeFailure) and flipped.scorer.prefix == b""
    assert _check_frame_spans(spans, flipped.layers_used)[0] == verified[:1]


class _RecordingStream:
    """A session's byte stream that keeps each write, and each read's size
    with the read_message call, counted per thread, that made it."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls
        self.sent, self.reads = [], []

    def send_bytes(self, data):
        self.sent.append(data)
        self.inner.send_bytes(data)

    def recv_exact(self, n, timeout=transport.DEFAULT_TIMEOUT):
        self.reads.append((getattr(self.calls, "open", None), n))
        return self.inner.recv_exact(n, timeout)

    def close(self):
        self.inner.close()


def test_a_session_reads_each_message_as_header_then_body_in_one_read_message(monkeypatch):
    # perfbench's TimedStream takes a frame's decode time from the gap between
    # one message's body read and the next message's header read, and the
    # tracer times transport.read_message: the session must read every message
    # with exactly those two recv_exact calls, inside one call of the module's
    # read_message
    cfg = model.ModelConfig(n_blocks=4, d_model=32, n_heads=2, d_ff=64,
                            vocab_size=260, max_seq=256)
    params = model.init_parameters(cfg, 77)
    profile = provisioning.TwinProfile(bytes([1]) * 32, bytes([2]) * 32, bytes([3]) * 32,
                                       bytes([4]) * 32, provisioning.config_summary(cfg))
    calls = threading.local()
    read_message = transport.read_message

    def counted(*args, **kwargs):
        calls.n = getattr(calls, "n", 0) + 1
        calls.open = calls.n
        try:
            return read_message(*args, **kwargs)
        finally:
            calls.open = None

    monkeypatch.setattr(transport, "read_message", counted)
    a, b = transport.loopback_pair()
    sender, receiver = _RecordingStream(a, calls), _RecordingStream(b, calls)
    sessions = [transport.Session(
        stream, params=params, config=cfg, profile=profile,
        key=provisioning.SessionKey(bytes(range(1, 17))),
        codec_params=codec.CodecParams(delta=1e-6)) for stream in (sender, receiver)]
    got = []

    def receive():
        sessions[1].handshake("responder")
        got.append(sessions[1].recv_message())
        sessions[1].wait_fin()

    t = threading.Thread(target=receive)
    t.start()
    try:
        sessions[0].handshake("initiator", nonce=3)
        sessions[0].send_message(b"hi")
        sessions[0].close()
    finally:
        t.join(timeout=60)
        a.close()
        b.close()
    assert not t.is_alive() and got == [b"hi"]
    assert [data[5] for data in sender.sent] == [transport.TYPE_HELLO, *[transport.TYPE_FRAME] * 3,
                                                 transport.TYPE_FIN]
    assert receiver.reads == [(k, n) for k, data in enumerate(sender.sent, 1)
                              for n in (transport.HEADER_LEN, len(data) - transport.HEADER_LEN)]
