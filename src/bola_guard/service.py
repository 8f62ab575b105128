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
reply carries the server's id. A :class:`Response` holds its payload as
bytes: an object's reply is the ``reply`` its store entry encoded once, and
a listing joins those bytes, so no request re-serialises a stored object.

Status codes: 401 token failures, 403 denied decisions (body
``{"code", "reason"}`` echoing the decision reason), 404 authorized but
object missing, 201/200/204 for create/read-update/delete, 400 a malformed
body or ``Content-Length``, 500 any failure (its body and log line name the
request ``seq``). Rule lookups use the directory template (``/pet``), never
the concrete URL.

The core is transport-neutral (:meth:`ReferenceService.handle_request`);
handlers never touch business state before an allowed decision; an observer
hook exposes the event order so tests can assert it. The HTTP adapter reads
and writes HTTP/1.1 itself (RFC 9112): one pass over the header lines checks
each and builds the lower-cased headers, values unpadded, that
``handle_request`` gets, after at most one stray empty line (RFC 9112 §2.2);
each reply is one write, a 204 without ``Content-Length``; a connection
stays open unless it is HTTP/0.9, HTTP/1.0 without ``keep-alive``, or its
``Connection`` token list holds ``close``. A connection silent for
:data:`IDLE_TIMEOUT_S` while a request line or headers are due, or that ends
inside a request, closes without a reply. Refusals carry an :func:`_error`
body and close, as the body may still be in the socket: 414/431
``request_line_too_long``/``header_line_too_long`` past 65,536 bytes, 431
``too_many_header_lines`` at 100; 400 ``invalid_version``, or
``invalid_request_line`` (not ``method target [version]``, or HTTP/0.9 not
GET); 505 ``version_not_supported``; 501 ``method_not_implemented`` (no body
for HEAD); 400 ``invalid_header`` for a line not ``name: value`` or
differing ``api_key`` repeats; 501 any ``Transfer-Encoding``; 400 a
malformed or ambiguous ``Content-Length`` (RFC 9112 §6.3); 413 above
:data:`MAX_BODY_BYTES`, unread; 408 a body stalled for
:data:`IDLE_TIMEOUT_S`. Only an HTTP/1.1 ``Expect: 100-continue`` that draws
none of these is sent ``100 Continue``.
"""

from __future__ import annotations

import json
import logging
import re
import socketserver
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from pathlib import Path
from typing import Any, Callable
from urllib.parse import urlsplit

from .actions import VERB_TO_ACTION, Action
from .engine import AuthzEngine, DecisionReason
from .errors import DocumentSyntaxError, StorageError, StructureError, TokenError
from .model import MAX_DEPTH, _canonical_int, _decimal, _nests_over, decode
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
    payload: bytes = b""

    @property
    def body(self) -> Any:
        """The payload decoded, None when it is empty."""
        return json.loads(self.payload) if self.payload else None


def _json(status: int, value: Any) -> Response:
    return Response(status, json.dumps(value).encode())


def _error(status: int, reason: str, **extra) -> Response:
    return _json(status, {"code": status, "reason": reason, **extra})


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
            data = decode(Path(path).read_text(encoding="utf-8"))
        except DocumentSyntaxError as exc:
            raise DocumentSyntaxError(f"config file {path}: {exc}") from exc
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise StructureError(f"config file {path} must contain a mapping")
        port = 8080 if data.get("port") is None else data["port"]
        if type(port) is not int or not 0 <= port <= 65535:
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
            return _json(200, [ace.to_record()
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
            object_id = _canonical_int(tail)
            if template not in self.templates or object_id is None:
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
            stored = self.objects.put({"id": object_id, "path": template,
                                       "body": document})
            self._emit(seq, "object_created", path=template, id=object_id)
        return Response(201, stored.reply)

    def _read(self, template: str, object_id: int) -> Response:
        stored = self.objects.get(template, object_id)
        if stored is None:
            return _error(404, "no_such_object")
        return Response(200, stored.reply)

    def _write(self, seq: int, template: str, object_id: int, action: Action,
               body: bytes | None) -> Response:
        document = _parse_body(body) if action is Action.UPDATE else None
        with self._write_lock:
            if self.objects.get(template, object_id) is None:
                return _error(404, "no_such_object")
            if action is Action.UPDATE:
                if document is None:
                    return _error(400, "invalid_body")
                stored = self.objects.put({"id": object_id, "path": template,
                                           "body": document})
                self._emit(seq, "object_updated", path=template, id=object_id)
                return Response(200, stored.reply)
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
        # json.dumps of the list of replies, spelled as a join of the bytes.
        return Response(200, b"[" + b", ".join(s.reply for s in visible) + b"]")


def _wall_clock() -> float:
    return time.time()


def _parse_body(body: bytes | None) -> dict | None:
    if body is None or not body.strip():
        return {}
    try:
        parsed = decode(body, "json")
    except DocumentSyntaxError:
        return None
    # The object's journal record nests a level deeper and must decode too.
    return parsed if isinstance(parsed, dict) \
        and not _nests_over(parsed, MAX_DEPTH - 1) else None


# ---------------------------------------------------------------------------
# HTTP/1.1 adapter (RFC 9112)

# A header line as RFC 9112 §5 has it; parsers disagree on any other line
# (``Content-Length : 5``, no colon, obs-fold, a bare CR), which refuses the
# request. The value's padding is stripped after: a regex would backtrack.
_FIELD_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\r\n]*)\r?\n")
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_MAX_LINE = 65536
_METHODS = frozenset(("GET", "POST", "PUT", "DELETE"))
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _http_date() -> str:
    """Now as an IMF-fixdate (RFC 9110 §5.6.7), whatever the locale."""
    t = time.gmtime()
    return time.strftime(f"{_DAYS[t.tm_wday]}, %d {_MONTHS[t.tm_mon - 1]} %Y %H:%M:%S GMT", t)


class _Handler(socketserver.StreamRequestHandler):
    service: ReferenceService  # set per server
    # Every socket read and write: a connection whose request line or
    # headers stall this long is closed, also between kept-alive requests.
    timeout = IDLE_TIMEOUT_S
    # A reply longer than one segment must not wait on the ACK of its first.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._exchange():
                pass
        except (ConnectionError, TimeoutError):
            pass  # the client went away or fell silent: close, no reply

    def _exchange(self) -> bool:
        """Read one request and send its reply; True keeps the connection."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):  # one stray empty line, RFC 9112 §2.2
            line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return self._send(_error(414, "request_line_too_long"))
        words = line.decode("latin-1").split()
        if not words:
            return False
        # A request line without a version is HTTP/0.9: a GET, answered
        # with a status line and headers all the same, then closed.
        version = (0, 9)
        if len(words) >= 3:
            number = _VERSION.fullmatch(words[-1])
            if number is None:
                return self._send(_error(400, "invalid_version"))
            version = int(number[1]), int(number[2])
            if version >= (2, 0):
                return self._send(_error(505, "version_not_supported"))
        if not 2 <= len(words) <= 3 or len(words) == 2 and words[0] != "GET":
            return self._send(_error(400, "invalid_request_line"))
        method, target = words[0], words[1]
        if target.startswith("//"):  # no scheme-relative redirect target
            target = "/" + target.lstrip("/")

        headers, lengths, options, ambiguous = {}, [], set(), False
        for _ in range(100):  # header lines, at most
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                return self._send(_error(431, "header_line_too_long"))
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return False  # the request ends inside its headers
            field = _FIELD_LINE.fullmatch(line)
            if field is None:
                ambiguous = True
                continue
            name = field[1].decode().lower()
            value = field[2].strip(b" \t").decode("latin-1")
            if name == "content-length":
                lengths.append(value)
            elif name == "connection":  # a token list, RFC 9110 §7.6.1
                options.update(o.strip(" \t") for o in value.lower().split(","))
            elif name == TOKEN_HEADER and headers.get(name, value) != value:
                ambiguous = True  # two different credentials
            headers[name] = value
        else:
            return self._send(_error(431, "too_many_header_lines"))

        if method not in _METHODS:
            return self._send(_error(501, "method_not_implemented"),
                              with_body=method != "HEAD")
        # The body of a request refused on its headers may still be in the
        # socket, so such a reply closes the connection.
        if ambiguous:
            return self._send(_error(400, "invalid_header"))
        if "transfer-encoding" in headers:
            return self._send(_error(501, "transfer_encoding_unsupported"))
        # Differing values would leave the socket at no request boundary.
        unique = set(lengths) or {"0"}
        length = _decimal(unique.pop()) if len(unique) == 1 else None
        if length is None:
            return self._send(_error(400, "invalid_content_length"))
        if length > MAX_BODY_BYTES:
            return self._send(_error(413, "body_too_large"))
        if version >= (1, 1) and headers.get("expect", "").lower() == "100-continue":
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            return self._send(_error(408, "body_timeout"))
        if len(body) < length:
            return False  # the request ends inside its body
        keep = "close" not in options and (
            version >= (1, 1) or version == (1, 0) and "keep-alive" in options)
        return self._send(self.service.handle_request(method, target, headers, body),
                          keep)

    def _send(self, response: Response, keep: bool = False,
              with_body: bool = True) -> bool:
        """Send ``response`` in one write; return ``keep``."""
        payload = response.payload
        content_type = "Content-Type: application/json\r\n" if payload else ""
        # A 204 has no body and so no Content-Length (RFC 9110 §8.6).
        length = "" if response.status == 204 else \
            f"Content-Length: {len(payload)}\r\n"
        # Connection is said either way: an HTTP/1.0 client keeps a
        # connection only when told.
        head = (f"{_STATUS_LINES[response.status]}Date: {_http_date()}\r\n"
                f"{content_type}{length}"
                f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n")
        self.request.sendall(head.encode("latin-1") + (payload if with_body else b""))
        return keep


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


def make_server(service: ReferenceService, host: str = "127.0.0.1",
                port: int = 0) -> socketserver.ThreadingTCPServer:
    """Bind a threaded HTTP server; ``port=0`` picks an ephemeral port."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return _Server((host, port), handler)


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
