"""Reference petstore-shaped HTTP service enforcing object-level authorization.

Request pipeline: verify the ``api_key`` header token, route the request,
take the one engine decision (a deny is 403), then run a handler that
decides nothing:

* ``POST /<dir>``: create the object, record its ACL entry;
* ``GET/PUT/DELETE /<dir>/{id}``: act on the object; an update or delete
  checks that the object exists and writes under the one write lock that
  creations take, so no object outlives its ACL entry;
* ``GET /<dir>``: listing filtered to objects the caller may read: the
  path's bucket on ``group_grant``, the ids in the ACL store's reader index
  on ``ownership_grant``. Either way the cost is O(visible objects);
* ``GET /admin/acl``: ACL inspection, ``admin`` group required.

Routes are exactly the rule table's paths, with ids in canonical ASCII
decimal (``/pet/1``, never ``/pet/+1`` or ``/pet/01``); anything else is 404
``unknown_route``, and a verb a route does not take 405. Every object in a
reply carries the server's id.

Status codes: 401 token failures, 403 denied decisions (body
``{"code", "reason"}`` echoing the decision reason), 404 authorized but
object missing, 201/200/204 for create/read-update/delete, 400 a malformed
body or ``Content-Length``, 500 any failure (its body and log line name the
request ``seq``). Rule lookups use the directory template (``/pet``), never
the concrete URL.

The HTTP adapter speaks HTTP/1.1 and keeps a connection open for the next
request; it sends each reply, status line to body, in one write. It closes
a connection that stays silent for :data:`IDLE_TIMEOUT_S` while it waits for
a request line or headers, between kept-alive requests too. It answers a
``Content-Length`` above :data:`MAX_BODY_BYTES` with 413 without reading the
body, a body that stalls for :data:`IDLE_TIMEOUT_S` with 408, any
``Transfer-Encoding`` with 501, and a malformed ``Content-Length``, or
duplicate ones that differ, with 400 (RFC 9112 §6.3), as it does a header
line that is not ``name: value``. The body of such a request may still be in
the socket, so each of these replies carries ``Connection: close`` and
closes the connection, as does the reply to an HTTP/1.0 request or to one
that sends ``Connection: close``. A request that sends
``Expect: 100-continue`` gets such a reply in place of ``100 Continue``.

The core is transport-neutral (:meth:`ReferenceService.handle_request`); a
thin stdlib HTTP adapter serves it. Handlers never touch business state
before an allowed decision; an observer hook exposes the event order so
tests can assert it.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable
from urllib.parse import urlsplit

import yaml

from .actions import VERB_TO_ACTION, Action
from .engine import AuthzEngine, DecisionReason
from .errors import DocumentSyntaxError, StorageError, StructureError, TokenError
from .model import _load_yaml
from .rules import GroupRuleSet, default_rule_set, load_rules
from .store import AclStore, ObjectStore
from .tokens import verify_token

logger = logging.getLogger(__name__)

TOKEN_HEADER = "api_key"
ADMIN_PATH = "/admin/acl"
MAX_BODY_BYTES = 1 << 20
IDLE_TIMEOUT_S = 2.0


@dataclass
class Response:
    status: int
    body: Any = None

    def payload(self) -> bytes:
        if self.body is None:
            return b""
        return json.dumps(self.body).encode("utf-8")


def _error(status: int, reason: str, **extra) -> Response:
    return Response(status, {"code": status, "reason": reason, **extra})


@dataclass
class ServiceConfig:
    port: int = 8080
    host: str = "127.0.0.1"
    key_path: str = ""
    rules_path: str | None = None
    journal_path: str = "acl.ndjson"
    objects_path: str | None = None

    @classmethod
    def load(cls, path: str | Path) -> "ServiceConfig":
        """Read a YAML config file; a missing or null key takes its default."""
        try:
            data = _load_yaml(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise DocumentSyntaxError(f"malformed config file {path}: {exc}") from exc
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise StructureError(f"config file {path} must contain a mapping")
        try:
            port = int(data.get("port", 8080))
        except (TypeError, ValueError):
            port = -1
        if not 0 <= port <= 65535:
            raise StructureError(f"config file {path}: port must be an "
                                 f"integer from 0 to 65535")
        strings = {key: data[key] for key in ("host", "key_path", "rules_path",
                                              "journal_path", "objects_path")
                   if data.get(key) is not None}
        for key, value in strings.items():
            if not isinstance(value, str):
                raise StructureError(f"config file {path}: {key} must be a string")
        return cls(port=port, **strings)


class ReferenceService:
    """Framework-neutral request handler around the authorization engine."""

    def __init__(self, rules: GroupRuleSet, key: bytes, acl_store: AclStore,
                 object_store: ObjectStore,
                 clock: Callable[[], float] | None = None,
                 observer: Callable[[str, dict], None] | None = None):
        self.engine = AuthzEngine(rules, acl_store)
        self.objects = object_store
        self.key = key
        self.clock = clock if clock is not None else _wall_clock
        self.observer = observer
        self.templates = frozenset(rules.paths())
        self._write_lock = threading.Lock()
        self._seq = 0
        self._seq_lock = threading.Lock()

    @classmethod
    def from_config(cls, config: ServiceConfig, **kwargs) -> "ReferenceService":
        key = Path(config.key_path).read_bytes().strip()
        rules = (load_rules(config.rules_path) if config.rules_path
                 else default_rule_set())
        acl_store = AclStore.open(config.journal_path)
        objects_path = config.objects_path or f"{config.journal_path}.objects"
        try:
            object_store = ObjectStore.open(objects_path)
        except BaseException:
            acl_store.close()
            raise
        return cls(rules, key, acl_store, object_store, **kwargs)

    def close(self) -> None:
        self.engine.store.close()
        self.objects.close()

    # ------------------------------------------------------------------

    def _emit(self, seq: int, event: str, **payload) -> None:
        if self.observer is not None:
            self.observer(event, {"seq": seq, **payload})

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def handle_request(self, method: str, url: str, headers: dict[str, str],
                       body: bytes | None = None) -> Response:
        seq = self._next_seq()
        try:
            return self._dispatch(seq, method.lower(), url, headers, body)
        except StorageError:
            logger.exception("request %d: storage failure", seq)
            return _error(500, "storage_failure", seq=seq)
        except Exception:
            logger.exception("request %d failed", seq)
            return _error(500, "internal_error", seq=seq)

    def _dispatch(self, seq: int, method: str, url: str,
                  headers: dict[str, str], body: bytes | None) -> Response:
        path = urlsplit(url).path.rstrip("/") or "/"
        lowered = {k.lower(): v for k, v in headers.items()}

        raw_token = lowered.get(TOKEN_HEADER)
        if raw_token is None:
            return _error(401, DecisionReason.TOKEN_INVALID.value)
        try:
            token = verify_token(raw_token, self.key, now=self.clock())
        except TokenError:
            return _error(401, DecisionReason.TOKEN_INVALID.value)

        route = self._route(path, method)
        if isinstance(route, Response):
            return route
        template, action, object_id = route

        # The one decision point. A decision taken here, before _write_lock,
        # cannot go stale: while serving, an ACL entry changes only on create
        # and delete, ids never repeat within a process (_max_ids only
        # grows), and grant and compact run offline.
        if template == ADMIN_PATH:
            decision = self.engine.authorize_admin(token)
        else:
            decision = self.engine.authorize_access(token, template, action,
                                                    object_id)
        self._emit(seq, "decision", path=template, action=action.value,
                   allowed=decision.allowed, reason=decision.reason.value,
                   id=object_id)
        if not decision.allowed:
            return _error(403, decision.reason.value)

        if template == ADMIN_PATH:
            return Response(200, [ace.to_record()
                                  for ace in self.engine.store.entries()])
        if action is Action.CREATE:
            return self._create(seq, token, template, body)
        if object_id is None:
            return self._list(token, template, decision.reason)
        if action is Action.READ:
            return self._read(template, object_id)
        return self._write(seq, template, object_id, action, body)

    def _route(self, path: str, method: str
               ) -> tuple[str, Action, int | None] | Response:
        """The request's (template, action, object id), or the 404 of a path
        that names no route or the 405 of a verb its route does not take."""
        if path == ADMIN_PATH:
            template, object_id, verbs = path, None, ("get",)
        elif path in self.templates:
            template, object_id, verbs = path, None, ("post", "get")
        else:
            template, _, tail = path.rpartition("/")
            object_id = _decimal(tail)
            if template not in self.templates or object_id is None \
                    or str(object_id) != tail:
                return _error(404, "unknown_route")
            verbs = ("get", "put", "delete")
        if method not in verbs:
            return _error(405, "method_not_allowed")
        return template, VERB_TO_ACTION[method], object_id

    def _create(self, seq: int, token, template: str,
                body: bytes | None) -> Response:
        document = _parse_body(body)
        if document is None:
            return _error(400, "invalid_body")
        with self._write_lock:
            # Ids come from next_id under this lock, so no entry holds one yet.
            object_id = self.engine.store.next_id(template)
            ace = self.engine.record_creation(token, template, object_id)
            self._emit(seq, "ace_created", path=template, id=object_id,
                       owner=ace.owner)
            stored = {"id": object_id, "path": template, "body": document}
            self.objects.put(stored)
            self._emit(seq, "object_created", path=template, id=object_id)
        return Response(201, _view(object_id, document))

    def _read(self, template: str, object_id: int) -> Response:
        stored = self.objects.get(template, object_id)
        if stored is None:
            return _error(404, "no_such_object")
        return Response(200, _view(object_id, stored["body"]))

    def _write(self, seq: int, template: str, object_id: int, action: Action,
               body: bytes | None) -> Response:
        document = _parse_body(body) if action is Action.UPDATE else None
        with self._write_lock:
            if self.objects.get(template, object_id) is None:
                return _error(404, "no_such_object")
            if action is Action.UPDATE:
                if document is None:
                    return _error(400, "invalid_body")
                self.objects.put({"id": object_id, "path": template,
                                  "body": document})
                self._emit(seq, "object_updated", path=template, id=object_id)
                return Response(200, _view(object_id, document))
            self.objects.delete(template, object_id)
            if self.engine.store.get(template, object_id) is not None:
                self.engine.store.delete(template, object_id)
            self._emit(seq, "object_deleted", path=template, id=object_id)
        return Response(204)

    def _list(self, token, template: str, reason: DecisionReason) -> Response:
        if reason is DecisionReason.GROUP_GRANT:
            visible = self.objects.in_path(template)
        else:
            # Ownership grant: the objects whose ACL entry names the caller.
            # An ACL entry without an object stays hidden, as does an object
            # without an ACL entry.
            ids = self.engine.store.readable_ids(template, token.user_id)
            visible = [stored for stored in
                       (self.objects.get(template, i) for i in ids)
                       if stored is not None]
        return Response(200, [_view(stored["id"], stored["body"])
                              for stored in visible])


def _wall_clock() -> float:
    return time.time()


def _view(object_id: int, body: dict) -> dict:
    """The reply shape of an object: the server's id first, over any ``id``
    the client put in the body."""
    view = {"id": object_id, **body}
    view["id"] = object_id
    return view


def _decimal(text: str) -> int | None:
    """``text`` as a non-negative ASCII decimal, else None; ``int()`` alone
    also takes signs, underscores, spaces and non-ASCII digits."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:      # more digits than int() converts
            pass
    return None


def _parse_body(body: bytes | None) -> dict | None:
    if body is None or not body.strip():
        return {}
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return parsed if isinstance(parsed, dict) else None


# ---------------------------------------------------------------------------
# Stdlib HTTP adapter

# A header line as RFC 9112 §5 has it: a token, a colon, then a value with
# no CR. The stdlib reads other lines in ways a front end may not: it ends
# the header block at ``Content-Length : 5``, joins a line that starts with
# a space to the one before it, and splits a line at a bare CR.
_FIELD_LINE = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+:[^\r\n]*\r?\n")


class _Handler(BaseHTTPRequestHandler):
    service: ReferenceService  # set per server
    protocol_version = "HTTP/1.1"
    # A reply longer than one segment must not wait on the ACK of its first.
    disable_nagle_algorithm = True
    # A request line without a version is answered as HTTP/1.0 (HTTP/0.9
    # has no status line or header buffer to carry the body), then closed.
    default_request_version = "HTTP/1.0"
    # Every socket read and write; the stdlib closes a connection whose
    # request line or headers stall this long, also between kept-alive
    # requests.
    timeout = IDLE_TIMEOUT_S

    def parse_request(self) -> bool:
        # Keep the raw header lines the stdlib reads, for _body_length.
        rfile, lines = self.rfile, []
        self.header_lines = lines

        def readline(size: int = -1) -> bytes:
            lines.append(rfile.readline(size))
            return lines[-1]

        self.rfile = SimpleNamespace(readline=readline)
        try:
            return super().parse_request()
        finally:
            self.rfile = rfile

    def handle_expect_100(self) -> bool:
        # A body the headers already refuse is refused, not invited.
        length = self._body_length()
        if isinstance(length, Response):
            self._refuse(length)
            return False
        return super().handle_expect_100()

    def _respond(self) -> None:
        length = self._body_length()
        if isinstance(length, Response):
            return self._refuse(length)
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            return self._refuse(_error(408, "body_timeout"))
        self._send(self.service.handle_request(
            self.command, self.path, dict(self.headers.items()), body))

    do_GET = do_POST = do_PUT = do_DELETE = _respond

    def _refuse(self, response: Response) -> None:
        # The body, or part of it, may still be in the socket.
        self.close_connection = True
        self._send(response)

    def _send(self, response: Response) -> None:
        payload = response.payload()
        self.send_response(response.status)
        if payload:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        # Said either way: an HTTP/1.0 client keeps a connection only when told.
        self.send_header("Connection",
                         "close" if self.close_connection else "keep-alive")
        # One write per reply: the body joins the buffered status and headers.
        self._headers_buffer.append(b"\r\n" + payload)
        self.flush_headers()

    def _body_length(self) -> int | Response:
        """The request body's length, or the reply that refuses the request
        on its headers alone."""
        # The last line read ends the header block.
        if not all(map(_FIELD_LINE.fullmatch, self.header_lines[:-1])):
            return _error(400, "invalid_header")
        if self.headers.get("Transfer-Encoding") is not None:
            return _error(501, "transfer_encoding_unsupported")
        # Differing values would leave the socket at no request boundary.
        lengths = {value.strip() for value
                   in self.headers.get_all("Content-Length", ["0"])}
        length = _decimal(lengths.pop()) if len(lengths) == 1 else None
        if length is None:
            return _error(400, "invalid_content_length")
        if length > MAX_BODY_BYTES:
            return _error(413, "body_too_large")
        return length

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s - %s", self.address_string(), format % args)


def make_server(service: ReferenceService, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server; ``port=0`` picks an ephemeral port."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve(config: ServiceConfig) -> None:
    """Run the service until interrupted."""
    service = ReferenceService.from_config(config)
    server = make_server(service, config.host, config.port)
    logger.info("serving on %s:%s", *server.server_address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
