"""The two benchmark workloads: whole ``transport.Session`` conversations
between twins that ``provisioning.provision`` derives from a seeded key.

Every input comes from the workload seed: the key, the base weights, the
shard registry, the handshake nonces and the plaintexts. Each party runs on
its own thread (one single-worker executor per party); the calling thread
only hands out the next step and collects the results, so the loop is
closed: a message is sent only after the previous one was received.

Timings are taken outside the program. ``TimedStream`` wraps the byte
stream a ``Session`` reads and writes, so the frame writes and the frame
reads of a message are timestamped without touching the program's code.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ciphermind import codec as C
from ciphermind import model as M
from ciphermind import provisioning as P
from ciphermind import scheduler as S
from ciphermind import trainer as T
from ciphermind import transport as W
from ciphermind.scheduler import Stream, mix64

CFG = M.ModelConfig()
TRAIN = T.TrainConfig()
# The unit tests pin delta=1e-6 for near-untrained twins: margins measured on
# the provisioned default twins are 3e-6 to 1.5e-3, so the shipped
# DEFAULT_DELTA=0.01 would reject every frame.
CODEC = C.CodecParams(delta=1e-6)
HOST = "127.0.0.1"
CONNECT_TIMEOUT = 120.0
SESSION_TIMEOUT = 60.0
STEP_TIMEOUT = 170.0

TYPED_ERRORS = (C.CodecError, W.TransportError)
# A run decodes at least this many frames, so that a tail percentile with ten
# frames above it exists (see metrics.tail_percentile).
MIN_FRAMES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str          # "tcp" on 127.0.0.1 or the in-process "loopback"
    two_way: bool           # ping-pong (A -> B, B -> A, ...) or A -> B only
    min_len: int
    max_len: int
    # Decode work is counted in tapped blocks (the sum of the scheduled tap
    # layers of every frame), which the key schedule fixes. A run sends
    # messages until it has done seconds * blocks_per_s of them, so a seed
    # always gets the same messages and the same digest. The rates are the
    # parent's on a 2-core Xeon, where the run then lasts about --seconds.
    blocks_per_s: float


WORKLOADS = {
    "chat": Workload("chat", "tcp", True, 1, 16, 5.5),
    "long": Workload("long", "loopback", False, 32, 32, 3.9),
}


class Plan:
    """All inputs of one run, drawn from the workload seed."""

    def __init__(self, seed: int, workload: Workload):
        self.workload = workload
        st = Stream(mix64(seed ^ 0x70657266626E6368))  # "perfbnch"
        key = st.next_u64().to_bytes(8, "little") + st.next_u64().to_bytes(8, "little")
        self.key = P.SessionKey(key)
        self.base_seed = st.next_u64()
        self.registry_seed = st.next_u64()
        self._nonce_seed = st.next_u64()
        self._text_seed = st.next_u64()

    def nonces(self):
        st = Stream(self._nonce_seed)
        while True:
            yield st.next_u64()

    def messages(self):
        st = Stream(self._text_seed)
        lo, hi = self.workload.min_len, self.workload.max_len
        while True:
            n = lo + st.next_below(hi - lo + 1)
            yield bytes(st.next_below(256) for _ in range(n))


def schedule(key: bytes, nonce: int, seq: int, plaintext: bytes) -> list:
    """Tap layer of every frame of one message, as both ends derive it."""
    state = S.init_chain(key, nonce, seq)
    layers = []
    for byte in plaintext:
        layers.append(S.layer_of(state, CFG.n_blocks))
        state = S.advance(state, byte, CFG.vocab_size)
    layers.append(S.layer_of(state, CFG.n_blocks))
    return layers


class TimedStream:
    """Session byte stream that timestamps reads and FRAME writes."""

    def __init__(self, inner):
        self.inner = inner
        self.reads: list = []    # (call time, return time) per recv_exact
        self.frames: list = []   # (time before the write, wire bytes)

    def send_bytes(self, data: bytes) -> None:
        if data[5] == W.TYPE_FRAME:
            self.frames.append((time.perf_counter(), data))
        self.inner.send_bytes(data)

    def recv_exact(self, n: int, timeout: float = W.DEFAULT_TIMEOUT) -> bytes:
        start = time.perf_counter()
        out = self.inner.recv_exact(n, timeout)
        self.reads.append((start, time.perf_counter()))
        return out

    def close(self) -> None:
        self.inner.close()


class TcpLink:
    """B listens on an ephemeral loopback port, A connects."""

    def __init__(self):
        self.ready = threading.Event()
        self.port: list = []

    def stream(self, role: str):
        if role == "responder":
            return W.tcp_listen_once(HOST, 0, timeout=CONNECT_TIMEOUT,
                                     ready_event=self.ready, bound_port=self.port)
        if not self.ready.wait(CONNECT_TIMEOUT):
            raise W.TransportTimeout("peer never listened")
        return W.tcp_connect(HOST, self.port[0])


class LoopbackLink:
    def __init__(self):
        self.ends = dict(zip(("initiator", "responder"), W.loopback_pair()))

    def stream(self, role: str):
        return self.ends[role]


def new_link(workload: Workload):
    return TcpLink() if workload.transport == "tcp" else LoopbackLink()


class Party:
    """One end of the conversation, running on its own thread."""

    def __init__(self, name: str, role: str, plan: Plan, tracer=None):
        self.name = name
        self.role = role
        self.plan = plan
        self.tracer = tracer
        self.executor = ThreadPoolExecutor(1, thread_name_prefix=f"party-{name}")
        self.twin = None
        self.profile = None
        self.session = None

    def submit(self, request, fn, *args):
        def call():
            if self.tracer is not None:
                self.tracer.set_request(request)
            return fn(*args)
        return self.executor.submit(call)

    def setup(self, link, nonce: int) -> float:
        """Key to live session: provision the twin, connect, handshake."""
        start = time.perf_counter()
        base = M.init_parameters(CFG, self.plan.base_seed)
        registry = P.generate_registry(self.plan.registry_seed)
        self.twin, self.profile, _ = P.provision(base, self.plan.key, registry, TRAIN)
        self.open(link, nonce)
        return time.perf_counter() - start

    def open(self, link, nonce: int) -> None:
        stream = TimedStream(link.stream(self.role))
        self.session = W.Session(stream, params=self.twin, config=CFG,
                                 profile=self.profile, key=self.plan.key,
                                 codec_params=CODEC, timeout=SESSION_TIMEOUT)
        self.session.handshake(self.role, nonce=nonce if self.role == "initiator" else None)

    def send(self, plaintext: bytes) -> dict:
        stream = self.session.stream
        stream.frames.clear()
        start = time.perf_counter()
        try:
            self.session.send_message(plaintext)
        except TYPED_ERRORS as e:
            stream.close()  # unblock the receiver
            return {"error": type(e).__name__}
        return {"start": start, "end": time.perf_counter(),
                "first_frame": stream.frames[0][0],
                "frames": [data for _, data in stream.frames]}

    def recv(self) -> dict:
        stream = self.session.stream
        stream.reads.clear()
        try:
            plaintext = self.session.recv_message()
        except TYPED_ERRORS as e:
            stream.close()
            return {"error": type(e).__name__}
        end = time.perf_counter()
        # read_message reads a header, then the body; the receiver decodes a
        # frame between the end of its body read and the next header read
        body_ends = [r[1] for r in stream.reads[1::2]]
        next_starts = [r[0] for r in stream.reads[2::2]] + [end]
        return {"end": end, "plaintext": plaintext,
                "decode_s": [b - a for a, b in zip(body_ends, next_starts)]}

    def finish(self) -> None:
        if self.role == "initiator":
            self.session.close()
        else:
            try:
                self.session.wait_fin()
            finally:
                self.session.stream.close()

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True)


@dataclass
class MessageResult:
    direction: str
    epoch: int
    seq: int
    length: int
    layers: list
    ok: bool
    error: str | None = None
    latency_s: float = 0.0
    encode_s_per_frame: float = 0.0
    decode_s: list = field(default_factory=list)


@dataclass
class PhaseResult:
    wall_s: float
    messages: list
    digest: str
    mismatches: int
    reconnects: int

    @property
    def attempted(self) -> int:
        return len(self.messages)

    @property
    def failed(self) -> int:
        return sum(not m.ok for m in self.messages)


def _both(fa, fb):
    """Results of two futures; each is read, so no exception is lost."""
    return fa.result(timeout=STEP_TIMEOUT), fb.result(timeout=STEP_TIMEOUT)


class Conversation:
    """Two parties, their sessions and the message phases between them."""

    def __init__(self, workload: Workload, plan: Plan, tracer=None):
        self.workload = workload
        self.plan = plan
        self.a = Party("A", "initiator", plan, tracer)
        self.b = Party("B", "responder", plan, tracer)
        self.epoch = 0
        self._nonces = plan.nonces()
        self.nonce = None

    def setup(self) -> list:
        """Both parties set up at once, as two machines would; one sample each."""
        self.nonce = next(self._nonces)
        link = new_link(self.workload)
        fa = self.a.submit(("setup", "A"), self.a.setup, link, self.nonce)
        fb = self.b.submit(("setup", "B"), self.b.setup, link, self.nonce)
        return list(_both(fa, fb))

    def reopen(self, nonce: int) -> None:
        self.epoch += 1
        self.nonce = nonce
        link = new_link(self.workload)
        fa = self.a.submit(("open", "A"), self.a.open, link, nonce)
        fb = self.b.submit(("open", "B"), self.b.open, link, nonce)
        _both(fa, fb)

    def restart(self) -> None:
        """Replay from the first nonce: the next phase repeats the last one."""
        self._nonces = self.plan.nonces()
        self.reopen(next(self._nonces))

    def run_phase(self, budget_blocks: float) -> PhaseResult:
        messages = self.plan.messages()
        digest = hashlib.sha256()
        results = []
        mismatches = reconnects = 0
        blocks = frames = 0
        turn = 0
        start = time.perf_counter()
        while blocks < budget_blocks or frames < MIN_FRAMES:
            forward = turn % 2 == 0 or not self.workload.two_way
            sender, receiver = (self.a, self.b) if forward else (self.b, self.a)
            direction = f"{sender.name}->{receiver.name}"
            turn += 1
            seq = sender.session.send_seq
            plaintext, layers = self._mean_load_message(messages, seq)
            blocks += sum(layers)
            frames += len(layers)
            request = ("msg", direction, self.epoch, seq)
            fr = receiver.submit(request, receiver.recv)
            fs = sender.submit(request, sender.send, plaintext)
            sent, got = _both(fs, fr)
            res = MessageResult(direction, self.epoch, seq, len(plaintext), layers, ok=False)
            results.append(res)
            if "error" in sent or "error" in got:
                res.error = sent.get("error") or got.get("error")
            elif got["plaintext"] != plaintext:
                res.error = "PlaintextMismatch"
                mismatches += 1
            else:
                res.ok = True
                res.latency_s = got["end"] - sent["start"]
                res.encode_s_per_frame = (sent["first_frame"] - sent["start"]) / len(layers)
                res.decode_s = got["decode_s"]
            if "frames" in sent:
                for data in sent["frames"]:
                    digest.update(data[W.HEADER_LEN:-4])
            if "plaintext" in got:
                digest.update(got["plaintext"])
            if not res.ok:
                # ERROR is terminal: a new session, inside the timed phase
                reconnects += 1
                self._close_streams()
                self.reopen(next(self._nonces))
        wall = time.perf_counter() - start
        return PhaseResult(wall, results, digest.hexdigest(), mismatches, reconnects)

    def _mean_load_message(self, messages, seq: int):
        """Next plaintext whose frames tap n_blocks / 2 blocks on average.

        A frame's decode cost is nearly proportional to its tap layer, and
        one run holds only a few messages, so an unconstrained draw would
        make a run's cost depend on the seed's layer mix. Candidates are
        drawn from the seed until the schedule's sum is the mean load; tap
        layers are uniform over 1..n_blocks-1, so that mean is n_blocks / 2.
        """
        for plaintext in messages:
            layers = schedule(self.plan.key.value, self.nonce, seq, plaintext)
            if 2 * sum(layers) == CFG.n_blocks * len(layers):
                return plaintext, layers

    def _close_streams(self) -> None:
        for party in (self.a, self.b):
            party.session.stream.close()

    def finish(self) -> None:
        """FIN from A, read by B; both streams end closed."""
        _both(self.a.submit(("close", "A"), self.a.finish),
              self.b.submit(("close", "B"), self.b.finish))

    def shutdown(self) -> None:
        for party in (self.a, self.b):
            if party.session is not None:
                party.session.stream.close()
            party.shutdown()
