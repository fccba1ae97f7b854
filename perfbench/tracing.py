"""Outside-in span tracing for the benchmark's traced runs.

The tracer replaces public functions and methods of the ``trackdistill``
package with wrappers that record one span per call, and puts the originals
back afterwards. Nothing in ``src/`` is edited, and untraced runs install
nothing, so they pay nothing.

A span is ``(span_id, name, start_ns, end_ns, parent_id, thread_id,
request)``. Spans nest per thread; a span's request is one episode in
``train`` and one video in ``track`` and ``capture``, and its children
inherit it. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import collections
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

# Every timed function, by metric prefix, in report order. The prefix names
# the module; model.save_params and training.validate count as the training
# layer.
FUNCTIONS = (
    "mdp.make_state",
    "mdp.episode_step",
    "model.forward",
    "model.forward_window",
    "model.backward_window",
    "training.run_episode",
    "training.window_loss",
    "training.update",
    "training.snapshot",
    "training.validate",
    "model.save_params",
    "trackers.tras",
    "trackers.trast",
    "trackers.trasfust",
    "teachers.session_open",
    "teachers.predict",
    "teachers.close",
    "teachers.save_trace",
    "video.load_dataset",
    "video.read_ppm",
    "transferset.build_transfer_set",
    "transferset.write_chunk_index",
    "transferset.load_chunk_index",
    "metrics.run_metrics",
    "metrics.report",
)

PROTOCOLS = ("tras", "trast", "trasfust")

# The session's construction time is carried to ``init`` on the session object.
_OPEN_NS = "_perfbench_open_ns"


def tail_percentile(samples: Sequence[float]):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or ("max", max) when there are fewer than twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"), (0.5, "p50")):
        if n * (1.0 - q) >= 10:
            return label, percentile(ordered, q)
    return "max", ordered[-1]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    idx = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[idx]


class Tracer:
    """Records spans and counters from wrapped calls, on any thread."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = collections.Counter()
        self._ids = itertools.count(1)
        self._counts_lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[tuple] = []

    def add(self, counter: str, n: int) -> None:
        with self._counts_lock:  # worker threads update counters concurrently
            self.counts[counter] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, request=None, start_ns=None, cpu=False):
        """Run ``fn`` inside a span. ``request`` maps (parent request, args) to
        this span's request; without it the parent's request is inherited."""
        stack = self._stack()
        parent_id, parent_req = stack[-1] if stack else (None, None)
        req = request(parent_req, args) if request is not None else parent_req
        sid = next(self._ids)
        stack.append((sid, req))
        cpu0 = time.thread_time_ns() if cpu else 0
        t0 = time.perf_counter_ns() if start_ns is None else start_ns
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            if cpu:
                self.add(name + ".cpu_ns", time.thread_time_ns() - cpu0)
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent_id, threading.get_ident(), req))

    def wrap(self, name: str, fn: Callable, request=None, cpu=False, count=None) -> Callable:
        """A traced stand-in for ``fn``; ``count(args, result)`` adds to the
        counter ``name + ".items"``."""
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, request, cpu=cpu)
            if count is not None:
                tracer.add(name + ".items", count(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, **wrap_kw) -> None:
        """Wrap a module-level function at every binding inside the package, so
        callers that imported it by name are traced too."""
        original = getattr(module, attr)
        self._replace(original, self.wrap(name, original, **wrap_kw))

    def _replace(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "trackdistill" or mod_name.startswith("trackdistill.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def patch_method(self, cls, attr: str, name: str, **wrap_kw) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **wrap_kw))

    def install(self) -> None:
        """Wrap every function in FUNCTIONS except ``training.validate``, which
        is the benchmark's own validator and is wrapped where it is made."""
        from trackdistill import (
            metrics, mdp, model, teachers, trackers, training, transferset, video,
        )

        def by_video(parent, args):
            return parent or args[0].video_id

        episodes = itertools.count(1)

        def new_episode(parent, args):
            return "episode-%d" % next(episodes)

        self.patch_function(mdp, "make_state", "mdp.make_state")
        self.patch_method(mdp.TrackingEpisode, "step", "mdp.episode_step")
        self.patch_method(model.StudentModel, "forward", "model.forward")
        self.patch_method(
            model.StudentModel, "forward_window", "model.forward_window",
            count=lambda args, result: len(args[2]),
        )
        self.patch_method(model.StudentModel, "backward_window", "model.backward_window")
        self.patch_function(
            training, "run_episode", "training.run_episode", request=new_episode, cpu=True
        )
        window_loss_fn = training.window_loss_fn

        def traced_window_loss_fn(*args, **kwargs):
            return self.wrap("training.window_loss", window_loss_fn(*args, **kwargs))

        self._replace(window_loss_fn, traced_window_loss_fn)
        self.patch_method(training.SharedWeights, "update", "training.update")
        self.patch_method(training.SharedWeights, "snapshot", "training.snapshot")
        self.patch_function(model, "save_params", "model.save_params")
        for proto in PROTOCOLS:
            self.patch_function(
                trackers, proto, "trackers." + proto,
                request=lambda parent, args, proto=proto: "%s/%s" % (proto, args[0].video_id),
                count=lambda args, run: len(run.boxes),
            )

        for factory_cls in teachers.TeacherFactory.__subclasses__():
            if "session" in factory_cls.__dict__:
                self._set(factory_cls, "session", _opening(factory_cls.__dict__["session"]))
        init = teachers.TeacherSession.init

        def traced_init(session, *args, **kwargs):
            start = session.__dict__.pop(_OPEN_NS, None)
            return self.call(
                "teachers.session_open", init, (session,) + args, kwargs,
                request=lambda parent, a: parent or session.video_id, start_ns=start,
            )

        self._set(teachers.TeacherSession, "init", traced_init)
        self.patch_method(teachers.TeacherSession, "predict", "teachers.predict", request=by_video)
        for session_cls in (teachers.TeacherSession, teachers.ExternalSession):
            self.patch_method(session_cls, "close", "teachers.close", request=by_video)
        self.patch_function(
            teachers, "save_trace", "teachers.save_trace",
            request=lambda parent, args: parent or args[1].video_id,
        )
        self.patch_function(video, "load_dataset", "video.load_dataset")
        self.patch_function(video, "read_ppm", "video.read_ppm")
        for fn in ("build_transfer_set", "write_chunk_index", "load_chunk_index"):
            self.patch_function(transferset, fn, "transferset." + fn)
        self.patch_function(
            metrics, "run_metrics", "metrics.run_metrics", request=lambda parent, args: parent
            or "%s/%s" % (args[0].tracker, args[1].video_id),
        )
        self.patch_function(metrics, "report", "metrics.report")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def function_stats(self) -> Dict[str, dict]:
        """Per span name: calls, self seconds, inclusive durations in us."""
        child_ns: Dict[int, int] = collections.Counter()
        for sid, name, t0, t1, parent, tid, req in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        stats: Dict[str, dict] = {}
        for sid, name, t0, t1, parent, tid, req in self.spans:
            s = stats.setdefault(name, {"calls": 0, "self_ns": 0, "durations_us": []})
            s["calls"] += 1
            s["self_ns"] += (t1 - t0) - child_ns[sid]
            s["durations_us"].append((t1 - t0) / 1e3)
        return stats

    def count_spans(self, name: str, request_prefix: str) -> int:
        return sum(
            1 for span in self.spans
            if span[1] == name and span[6] is not None and span[6].startswith(request_prefix)
        )

    def write_spans(self, path: str) -> None:
        keys = ("span", "name", "start_ns", "end_ns", "parent", "thread", "request")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _opening(session_factory: Callable) -> Callable:
    def session(factory, *args, **kwargs):
        start = time.perf_counter_ns()
        opened = session_factory(factory, *args, **kwargs)
        opened.__dict__[_OPEN_NS] = start
        return opened

    session.__wrapped__ = session_factory
    return session


def layer_metrics(tracer: Tracer) -> Dict[str, tuple]:
    """``F.calls``, ``F.self_s``, ``F.p50_us`` and ``F.tail_us`` for every
    function in FUNCTIONS, as name -> (value, unit); zero where not called."""
    stats = tracer.function_stats()
    out: Dict[str, tuple] = {}
    for fn in FUNCTIONS:
        s = stats.get(fn)
        if s is None:
            calls, self_s, p50, tail = 0, 0.0, 0.0, 0.0
        else:
            ordered = sorted(s["durations_us"])
            calls = s["calls"]
            self_s = s["self_ns"] / 1e9
            p50 = percentile(ordered, 0.5)
            tail = tail_percentile(ordered)[1]
        out[fn + ".calls"] = (calls, "count")
        out[fn + ".self_s"] = (self_s, "s")
        out[fn + ".p50_us"] = (p50, "us")
        out[fn + ".tail_us"] = (tail, "us")
    return out
