"""The benchmark's tracer wraps functions by (owner, attribute name); a
refactor that moves or drops one of them should fail here, not only in a
traced benchmark run."""

import ast
import importlib
import inspect
import threading
from pathlib import Path

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


def test_tracer_sees_one_batch_per_frame_with_the_catch_up_beside_it():
    # the per-layer metrics read each score_frame's one hypothesis_taps child,
    # the verify of at most VERIFY_CAP candidates, and its note; the draft
    # calls nothing the tracer wraps, so the catch-up that runs before it
    # shows as the only exp spans directly under score_frame, one per block
    # call
    cfg = model.ModelConfig(n_blocks=4, d_model=32, n_heads=2, d_ff=64,
                            vocab_size=260, max_seq=256)
    params = model.init_parameters(cfg, 77)
    key, nonce, plaintext = bytes(range(16)), 0xC0FFEE, b"traced message"
    frames = codec.encode_message_incremental(params, cfg, key, nonce, 0, plaintext)
    targets = tracing.targets(MODULES)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        dec = codec.IncrementalDecoder(params, cfg, key, nonce, 0, codec.CodecParams(delta=1e-6))
        for frame in frames:
            dec.feed(frame)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert dec.plaintext == plaintext

    by_id = {s.id: s for s in tracer.spans}
    children = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    scores = [s for s in tracer.spans if s.name == "codec.score_frame"]
    assert len(scores) == len(frames) == len(dec.layers_used)
    shallowest = cfg.n_blocks - 1  # the template's depth
    catch_up_calls = 0
    for t, (span, layer) in enumerate(zip(scores, dec.layers_used)):
        kids = children.get(span.id, [])
        taps = [k for k in kids if k.name == "model.hypothesis_taps"]
        assert len(taps) == 1, t
        verified = taps[0].note[1]
        assert 2 <= verified <= codec.VERIFY_CAP, t
        assert taps[0].note == (len(codec.template_tokens()) + t, verified, 2, layer, cfg.n_heads)
        calls = sum(k.name == "detmath.exp" for k in kids)
        assert calls == max(0, layer - shallowest), t
        catch_up_calls += calls
        shallowest = layer - 1  # the byte this frame commits
    assert catch_up_calls > 0

    def ancestors(s):
        names = []
        while s.parent is not None:
            s = by_id[s.parent]
            names.append(s.name)
        return names

    # push runs no block: every engine call of a feed is inside its scoring
    fed = [ancestors(s) for s in tracer.spans
           if s.name.startswith("detmath.") and "codec.feed" in ancestors(s)]
    assert fed and all("codec.score_frame" in names for names in fed)


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
