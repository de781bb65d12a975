"""Outside-in span tracing of the ciphermind modules.

The tracer replaces public functions of the program's modules with thin
wrappers that record one span per call: name, start, end, the span that was
open on the same thread when the call began (its parent), the request the
calling thread was serving, and a small note taken from the arguments or the
result (element counts, the tapped layer, message sizes). Nothing under
``src/`` is edited. ``restore()`` puts every original function back.

The wrappers work because the modules call each other through module
attributes (``M.hypothesis_taps``, ``detmath.exp``, ``scheduler.layer_of``)
or through module globals (``serialize``, ``read_message``,
``loss_and_grads``), both of which are looked up at call time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    request: Any
    note: Any = None

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children.

    Children of one span run on the span's own thread, nested inside it and
    one after another, so their durations add up without overlap.
    """
    out = {s.id: s.dur_ns for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.dur_ns
    return out


# --------------------------------------------------------------- notes

def _note_exp(args, kwargs, result):
    return int(result.size)


def _note_taps(args, kwargs, result):
    # hypothesis_taps(params, config, cache, suffixes, layer)
    config, cache, suffixes, layer = args[1], args[2], args[3], args[4]
    b, s = suffixes.shape
    return (cache.length, b, s, layer, config.n_heads)


def _note_layer(args, kwargs, result):
    return int(result)


def _note_serialize(args, kwargs, result):
    return (args[0].type, len(result))


def targets(modules) -> list:
    """(owner, attribute, span name, note) for every traced function.

    ``modules`` maps the short module name to the imported module.
    """
    M, D, C = modules["model"], modules["detmath"], modules["codec"]
    T, P, S, W = (modules["trainer"], modules["provisioning"],
                  modules["scheduler"], modules["transport"])
    return [
        (M, "hypothesis_taps", "model.hypothesis_taps", _note_taps),
        (M, "extend_cache", "model.extend_cache", None),
        (M, "forward_full", "model.forward_full", None),
        (M, "fingerprint", "model.fingerprint", None),
        (D, "exp", "detmath.exp", _note_exp),
        (D, "tanh", "detmath.tanh", None),
        (D, "gelu", "detmath.gelu", None),
        (C.HypothesisScorer, "score_frame", "codec.score_frame", None),
        (C.IncrementalDecoder, "feed", "codec.feed", None),
        (C, "encode_message_incremental", "codec.encode_message_incremental", None),
        (T, "loss_and_grads", "trainer.loss_and_grads", None),
        (T, "finetune", "trainer.finetune", None),
        (T, "merge", "trainer.merge", None),
        (P, "provision", "provisioning.provision", None),
        (S, "layer_of", "scheduler.layer_of", _note_layer),
        (W, "serialize", "transport.serialize", _note_serialize),
        (W, "parse", "transport.parse", None),
        (W, "read_message", "transport.read_message", None),
    ]


class Tracer:
    """Collects spans in memory from every thread that calls a wrapper."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []

    # -- request context -----------------------------------------------

    def set_request(self, request) -> None:
        """Tag the spans the calling thread records from now on."""
        self._local.request = request

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = note(args, kwargs, result) if note and result is not None else None
                span = Span(sid, parent, name, start, end,
                            getattr(self._local, "request", None), extra)
                with self._lock:
                    self.spans.append(span)
        return traced

    def install(self, target_list) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, note in target_list:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note))

    def restore(self) -> None:
        """Put every original function back, in reverse install order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def to_records(self) -> list:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "request": s.request, "note": s.note} for s in self.spans]
