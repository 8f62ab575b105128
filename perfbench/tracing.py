"""Spans recorded around calls into the package's layers, from outside it.

A traced process installs wrappers on the layer entry points before it builds
the service or runs the CLI. Each wrapped call records one span: id, parent
span id, request id, name, start and end (``perf_counter_ns``) and a small
note (a decision reason, a route, a count). Spans stay in memory and are
written out once, when the process ends. A wrap target that no longer exists
is recorded as absent rather than failing, so the benchmark survives
refactors that merge or rename functions.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Records every span of one request in ``sample_every``, and only the
    root span of the others, under a negative request id. Calls made outside
    any request (such as opening the stores) are always recorded."""

    def __init__(self, sample_every: int = 1):
        self.sample_every = sample_every
        self.spans: list[tuple] = []
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, *, root: bool = False,
             note=None, slow_note: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``root`` spans start a new request id. ``note(args, result)`` returns
        the value stored with the span; without one, the value is whether the
        call raised. A ``slow_note`` is timed as a ``trace.note`` span of its
        own, so that its cost is not counted as the parent's self time.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent, request = stack[-1] if stack else (0, 0)
            if root and not stack:
                request = next(tracer._requests)
                if request % tracer.sample_every:
                    request = -request
            elif request < 0:       # inside a request that is not sampled
                return original(*args, **kwargs)
            span = next(tracer._ids)
            stack.append((span, request))
            result = None
            failed = True
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                value = failed
                if note is not None:
                    try:
                        value = note(args, result)
                    except (IndexError, KeyError, TypeError, AttributeError):
                        value = None    # called in a shape the note does not know
                if slow_note:
                    tracer.spans.append((next(tracer._ids), parent, request,
                                         "trace.note", end, perf_counter_ns(), None))
                tracer.spans.append((span, parent, request, name, start, end, value))

        setattr(owner, attr, traced)
        self.installed.add(name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "installed": sorted(self.installed),
                       "absent": self.absent}, fh)


# ---------------------------------------------------------------------------
# Entry points of each layer


def _route(args, result) -> list:
    """The request's route and the status of its response."""
    method, url = args[1].lower(), args[2].split("?", 1)[0].rstrip("/")
    if url.count("/") <= 1:
        route = {"get": "list", "post": "create"}.get(method, "other")
    else:
        route = {"get": "read", "put": "update", "delete": "delete"}.get(method, "other")
    return [route, getattr(result, "status", None)]


def _reason(args, result):
    reason = getattr(result, "reason", None)
    return getattr(reason, "value", None)


def _store_kind(args, result) -> str:
    return type(args[0]).__name__


def _replayed(args, result) -> list:
    store = args[0]
    records = getattr(store, "journal_position", None)
    return [type(store).__name__, records if records is not None else len(store)]


def _count(args, result) -> int:
    return len(result) if result is not None else 0


def _files_written(args, result) -> int:
    out_dir = args[1] if len(args) > 1 else None
    if out_dir is None:
        return 0
    return sum(len(files) for _, _, files in os.walk(out_dir))


def install_service(tracer: Tracer) -> None:
    """Wrap the run-time layers: service, tokens, rules, engine, store."""
    from bola_guard import engine, service, store

    tracer.wrap(service.ReferenceService, "handle_request", "service.handle",
                root=True, note=_route)
    tracer.wrap(service, "verify_token", "tokens.verify")
    for name in ("effective_permission", "matching_rule"):
        tracer.wrap(engine, name, "rules.resolve")
    for name in ("authorize_access", "authorize_create"):
        tracer.wrap(engine.AuthzEngine, name, "engine.authorize", note=_reason)
    tracer.wrap(engine.AuthzEngine, "record_creation", "engine.record")
    tracer.wrap(engine.AuthzEngine, "grant", "engine.grant")
    for cls in (store.AclStore, store.ObjectStore):
        tracer.wrap(cls, "__init__", "store.open", note=_replayed)
        tracer.wrap(cls, "put", "store.append", note=_store_kind)
        tracer.wrap(cls, "delete", "store.append", note=_store_kind)
        tracer.wrap(cls, "get", "store.get", note=_store_kind)
        tracer.wrap(cls, "entries", "store.entries", note=_store_kind)
    tracer.wrap(os, "fsync", "os.fsync")
    tracer.wrap(os, "fdatasync", "os.fsync")


def install_spec(tracer: Tracer) -> None:
    """Wrap the design-time layers: cli, model, validator, generator."""
    from bola_guard import cli, generator, model

    tracer.wrap(cli, "main", "cli.main", root=True)
    tracer.wrap(cli, "parse_document", "model.parse")
    for module in (model, generator):
        tracer.wrap(module, "build_document", "model.build")
    for module in (cli, generator):
        tracer.wrap(module, "validate", "validator.validate", note=_count)
        tracer.wrap(module, "spec_to_stub", "generator.spec_to_stub", note=_files_written,
                    slow_note=True)
        tracer.wrap(module, "stub_to_spec", "generator.stub_to_spec")


# ---------------------------------------------------------------------------
# Reading a trace back


class Trace:
    """Per-span durations and self times of one dumped trace."""

    def __init__(self, data: dict):
        self.installed = set(data["installed"])
        self.absent = data["absent"]
        spans = data["spans"]
        covered = defaultdict(int)
        for _, parent, _, _, start, end, _ in spans:
            if parent:
                covered[parent] += end - start
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.name_of = {}
        for span, parent, request, name, start, end, value in spans:
            duration = end - start
            self.by_name[name].append(
                (span, parent, request, duration, duration - covered[span], value))
            self.name_of[span] = name

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def spans(self, name: str, value=None) -> list[tuple]:
        found = self.by_name.get(name, [])
        if value is None:
            return found
        return [s for s in found if s[5] == value]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def mean_us(self, name: str) -> float | None:
        spans = self.spans(name)
        return sum(s[3] for s in spans) / len(spans) / 1e3 if spans else None

    def mean_self_us(self, name: str) -> float | None:
        spans = self.spans(name)
        return sum(s[4] for s in spans) / len(spans) / 1e3 if spans else None

    def with_parent(self, name: str, parent_name: str) -> list[tuple]:
        return [s for s in self.spans(name) if self.name_of.get(s[1]) == parent_name]
