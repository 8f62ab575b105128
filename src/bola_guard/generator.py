"""Bidirectional translation between annotated specifications and server stubs.

Spec → stub writes a language-neutral tree:

* ``manifest.json``: routes, methods, and per-route authorization wiring;
  its ``version`` and ``module_includes`` (which follows from the routes)
  are written for readers and not read back.
* ``handlers/<path-slug>.stub``: one skeleton per path (a slug that an
  earlier path took gets the first free ``_<n>`` suffix from ``_2`` on);
  every handler of an authorization-bound path carries a privilege marker
  line directly above it, as :meth:`ObjectAuthAttachment.marker` writes it.
* ``privilege_provider/provider.descriptor``: present iff any route is bound;
  records the provider configuration matched from the scheme details.

The marker grammar is bit-exact and anchored at line start (leading
whitespace allowed)::

    # @object_privilege(path="<path>", token_in="<header|body>", groups=<true|false>, user_id=<true|false>)

with ``"<path>"`` a JSON string literal; ``# route: <path>`` is bare, right-trimmed.

Stub → spec reads every handler file through one scan: a file's
``# route:`` header names its route, its ``def handle_<verb>`` lines (the
verbs of :data:`~bola_guard.actions.VERB_ORDER`) are the route's methods,
and its markers, which must name that route, agree, and number one per
handler, bind it. Without a manifest the scanned routes are the manifest;
with one, every route that either side binds must have the same methods and
marker on both (any disagreement is an error). Recovered documents always
use the root-level design, with a minimal object schema per bound path whose
object ref names the id property as an escaped JSON pointer segment.

Both directions work in memory: :func:`render_stub` builds the tree as a
``{relpath: text}`` map and :func:`recover_document` reads the manifest text
and handler texts back, so :func:`roundtrip_check` writes nothing.
:func:`spec_to_stub` and :func:`stub_to_spec` are the on-disk wrappers
around them.
"""

from __future__ import annotations

import json
import re
import urllib.parse
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from .errors import (
    DocumentSyntaxError,
    MarkerSyntaxError,
    NoStubFoundError,
    StructureError,
    StubInconsistentError,
    ValidationFailedError,
)
from .model import (
    CANON_SCHEME_NAME,
    EssDocument,
    ObjectAuthBinding,
    build_document,
    decode,
    _escape_pointer,
    _unescape_pointer,
)
from .validator import has_errors, validate
from .actions import VERB_ORDER

PROVIDER_MODULE = "privilege_provider"
MANIFEST_NAME = "manifest.json"
HANDLERS_DIR = "handlers"
DESCRIPTOR_PATH = f"{PROVIDER_MODULE}/provider.descriptor"

# The path is a JSON string literal (RFC 8259 §7), as ``json.dumps`` writes it.
MARKER_RE = re.compile(
    r'^\s*# @object_privilege\(path=("(?:[^"\\\x00-\x1f]|\\["\\/bfnrt]|\\u[0-9a-fA-F]{4})*"), '
    r'token_in="(header|body)", groups=(true|false), user_id=(true|false)\)\s*$')
MARKER_LIKE_RE = re.compile(r"^\s*#\s*@object_privilege")
ROUTE_HEADER_RE = re.compile(r"^# route: (\S(?:.*\S)?)\s*$")
HANDLER_DEF_RE = re.compile(rf"^def handle_({'|'.join(VERB_ORDER)})\(")


@dataclass(frozen=True)
class ObjectAuthAttachment:
    scheme_name: str
    token_location: str          # header | body
    groups_claim: str | None
    user_id_claim: str | None
    object_id_property: str

    def marker(self, path: str) -> str:
        """The privilege marker line of this wiring on ``path``: the one
        writer of the grammar that :data:`MARKER_RE` reads."""
        return (f'# @object_privilege(path={json.dumps(path, ensure_ascii=False)}, '
                f'token_in="{self.token_location}", '
                f'groups={str(self.groups_claim is not None).lower()}, '
                f'user_id={str(self.user_id_claim is not None).lower()})')


@dataclass(frozen=True)
class RouteSpec:
    path: str
    methods: tuple[str, ...]
    object_auth: ObjectAuthAttachment | None


@dataclass(frozen=True)
class StubManifest:
    routes: tuple[RouteSpec, ...]

    @property
    def module_includes(self) -> tuple[str, ...]:
        """The provider module iff a route is bound."""
        return (PROVIDER_MODULE,) if any(r.object_auth for r in self.routes) else ()

    def to_json(self) -> str:
        return json.dumps({"version": 1, **asdict(self),
                           "module_includes": self.module_includes}, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StubManifest":
        """Read what :meth:`to_json` writes: a :class:`DocumentSyntaxError`
        for text that is not JSON, a :class:`StructureError` for JSON of
        another shape. ``version`` and ``module_includes`` are written for
        readers and not read back; the latter must still be an array."""
        try:
            payload = decode(text, "json")
        except DocumentSyntaxError as exc:
            raise DocumentSyntaxError(f"{MANIFEST_NAME}: {exc}") from exc
        routes = []
        for entry in _field(payload, "routes", list, "the manifest", []):
            auth = _field(entry, "object_auth", dict, "a route", None)
            routes.append(RouteSpec(
                path=_field(entry, "path", str, "a route"),
                methods=tuple(_one_of(verb, VERB_ORDER, "a method") for verb
                              in _field(entry, "methods", list, "a route")),
                object_auth=None if auth is None else ObjectAuthAttachment(
                    scheme_name=_field(auth, "scheme_name", str, "an object_auth"),
                    token_location=_one_of(auth.get("token_location"),
                                           ("header", "body"), "a token_location"),
                    groups_claim=auth.get("groups_claim"),
                    user_id_claim=auth.get("user_id_claim"),
                    object_id_property=_field(auth, "object_id_property", str,
                                              "an object_auth", "id"),
                ),
            ))
        _field(payload, "module_includes", list, "the manifest", [])
        return cls(routes=tuple(routes))


_REQUIRED = object()
_JSON_TYPES = {str: "a string", list: "an array", dict: "an object"}


def _field(entry, key: str, kind: type, where: str, default=_REQUIRED):
    """``entry[key]``, which must be a ``kind``; ``default`` instead when
    the key is absent or null and a default is given."""
    if not isinstance(entry, dict):
        raise StructureError(f"{MANIFEST_NAME}: {where} is not an object")
    value = entry.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if not isinstance(value, kind):
        raise StructureError(f"{MANIFEST_NAME}: {where} needs {key!r} as "
                             f"{_JSON_TYPES[kind]}")
    return value


def _one_of(value, choices: tuple[str, ...], what: str) -> str:
    if value not in choices:
        raise StructureError(f"{MANIFEST_NAME}: {what} is {value!r}, not one "
                             f"of {', '.join(choices)}")
    return value


# ---------------------------------------------------------------------------
# Specification -> stub


def manifest_from_document(doc: EssDocument) -> StubManifest:
    routes = []
    for path in sorted(doc.paths):
        item = doc.paths[path]
        methods = tuple(sorted(item.operations, key=VERB_ORDER.index))
        attachment = None if item.binding is None else _wiring(item.binding)
        routes.append(RouteSpec(path=path, methods=methods, object_auth=attachment))
    return StubManifest(tuple(routes))


def _wiring(binding: ObjectAuthBinding) -> ObjectAuthAttachment:
    """Runtime wiring of a binding; identical for both placements. The
    scheme is the one the validator checked; a binding whose scheme ref lands
    on no scheme (an error finding) is wired from its inline token, if any."""
    scheme = binding.scheme
    if scheme is not None:
        scheme_name, location = scheme.name, scheme.location
    else:
        scheme_name = CANON_SCHEME_NAME
        location = None if binding.token is None else binding.token.location
    ref = binding.object_id_ref
    return ObjectAuthAttachment(
        scheme_name=scheme_name,
        token_location="header" if location in (None, "header") else "body",
        groups_claim=binding.groups,
        user_id_claim=binding.user_id,
        object_id_property=_last_segment(ref) if isinstance(ref, str) else "id",
    )


def _last_segment(ref: str) -> str:
    fragment = urllib.parse.unquote(ref)
    return _unescape_pointer(fragment.rstrip("/").split("/")[-1])


def path_slug(path: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", path.strip("/")).strip("_")
    return slug or "root"


def render_stub(doc: EssDocument) -> tuple[StubManifest, dict[str, str]]:
    """The server stub tree of a document with no error findings, as its
    manifest and a ``{relpath: text}`` map; a route whose slug an earlier
    route took gets the first free ``_<n>`` suffix from ``_2`` on."""
    findings = validate(doc)
    if has_errors(findings):
        raise ValidationFailedError([f for f in findings if f.severity == "error"])

    manifest = manifest_from_document(doc)
    files = {MANIFEST_NAME: manifest.to_json()}
    for route in manifest.routes:
        lines = [f"# route: {route.path}",
                 "# server stub skeleton; fill in each handler.", ""]
        for verb in route.methods:
            if route.object_auth is not None:
                lines.append(route.object_auth.marker(route.path))
            lines.append(f"def handle_{verb}(request):")
            lines.append(f'    raise NotImplementedError("{verb} {route.path}")')
            lines.append("")
        slug = name = path_slug(route.path)
        n = 1
        while f"{HANDLERS_DIR}/{name}.stub" in files:
            n += 1
            name = f"{slug}_{n}"
        files[f"{HANDLERS_DIR}/{name}.stub"] = "\n".join(lines)

    if manifest.module_includes:
        configurations = sorted({
            (r.object_auth.token_location,
             r.object_auth.groups_claim is not None,
             r.object_auth.user_id_claim is not None)
            for r in manifest.routes if r.object_auth is not None})
        descriptor = {
            "provider": "object-privilege",
            "configurations": [
                {"token_in": loc, "groups": groups, "user_id": user_id}
                for loc, groups, user_id in configurations],
        }
        files[DESCRIPTOR_PATH] = yaml.safe_dump(descriptor, sort_keys=False)
    return manifest, files


def spec_to_stub(doc: EssDocument, out_dir: str | Path) -> StubManifest:
    """Write the server stub tree of :func:`render_stub` for a document with
    no error findings; ``handlers/`` exists even when it has no route."""
    manifest, files = render_stub(doc)
    out = Path(out_dir)
    (out / HANDLERS_DIR).mkdir(parents=True, exist_ok=True)
    for relpath, text in files.items():
        target = out / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# Stub -> specification


def stub_to_spec(in_dir: str | Path) -> EssDocument:
    """Recover an annotated specification from a generated (or edited) stub."""
    root = Path(in_dir)
    manifest_file = root / MANIFEST_NAME
    handler_files = sorted((root / HANDLERS_DIR).glob("*.stub")) \
        if (root / HANDLERS_DIR).is_dir() else []

    if not manifest_file.is_file() and not handler_files:
        raise NoStubFoundError(f"{in_dir}: no {MANIFEST_NAME} and no "
                               f"{HANDLERS_DIR}/*.stub sources")
    manifest_text = (manifest_file.read_text(encoding="utf-8")
                     if manifest_file.is_file() else None)
    return recover_document(manifest_text, [
        (str(f), f.read_text(encoding="utf-8")) for f in handler_files])


def recover_document(manifest_text: str | None,
                     handlers: list[tuple[str, str]]) -> EssDocument:
    """The document a stub describes, from its manifest text (None when it
    has none) and the ``(label, text)`` pairs of its handler files in sorted
    order; a label names its file in a :class:`MarkerSyntaxError`. Without
    a manifest the scanned routes are the manifest; with one, every route
    that either side binds has the same :func:`_guard` on both."""
    scanned = _scan_routes(handlers)
    manifest = (StubManifest(tuple(scanned[p] for p in sorted(scanned)))
                if manifest_text is None else StubManifest.from_json(manifest_text))
    declared = {r.path: r for r in manifest.routes}
    for path in sorted(declared.keys() | scanned.keys()):
        wired, marked = _guard(declared.get(path)), _guard(scanned.get(path))
        if wired != marked:
            raise StubInconsistentError(
                f"{path!r}: the manifest binds {wired or 'nothing'} but the "
                f"handler files bind {marked or 'nothing'}")
    return document_from_manifest(manifest)


def _guard(route: RouteSpec | None) -> str | None:
    """What a stub's markers say about a route: its methods and marker;
    nothing when it is unbound or has no handler to carry a marker."""
    if route is None or route.object_auth is None or not route.methods:
        return None
    methods = "/".join(sorted(set(route.methods), key=VERB_ORDER.index))
    return f"{methods} with {route.object_auth.marker(route.path)}"


def _scan_routes(handlers: list[tuple[str, str]]) -> dict[str, RouteSpec]:
    """The routes that handler files declare, by path; a later file with the
    same ``# route:`` header replaces an earlier one.

    Each ``def handle_<verb>`` line of a file adds a method to the route its
    header names, and its markers bind that route. The markers must name
    that route, agree with each other, and number one per handler. A file
    with no header declares nothing and may carry no marker."""
    routes: dict[str, RouteSpec] = {}
    for label, text in handlers:
        route = None
        methods: list[str] = []
        markers: list[tuple[str, ...]] = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            header = ROUTE_HEADER_RE.match(line)
            if header and route is None:
                route = header.group(1)
            elif MARKER_LIKE_RE.match(line):
                matched = MARKER_RE.match(line)
                if matched is None:
                    raise MarkerSyntaxError(label, line_no, line)
                # A path has more than one JSON spelling: compare it decoded.
                markers.append((json.loads(matched[1]), *matched.groups()[1:]))
            elif handler := HANDLER_DEF_RE.match(line):
                methods.append(handler.group(1))

        attachment = None
        if markers:
            path, location, groups, user_id = markers[0]
            if route is None:
                raise StubInconsistentError(
                    f"{label}: marker for {path!r} in a handler file "
                    f"with no '# route:' header")
            if any(m != markers[0] for m in markers):
                raise StubInconsistentError(
                    f"{label}: conflicting markers in one handler file")
            if path != route:
                raise StubInconsistentError(
                    f"{label}: marker for {path!r} under "
                    f"'# route: {route}'")
            if len(markers) != len(methods):
                raise StubInconsistentError(
                    f"{label}: {len(markers)} marker(s) for "
                    f"{len(methods)} handler(s)")
            attachment = ObjectAuthAttachment(
                scheme_name=CANON_SCHEME_NAME,
                token_location=location,
                groups_claim="string" if groups == "true" else None,
                user_id_claim="string" if user_id == "true" else None,
                object_id_property="id",
            )
        if route is not None:
            routes[route] = RouteSpec(path=route, methods=tuple(methods),
                                      object_auth=attachment)
    return routes


_ACTION_DESCRIPTIONS = {
    "post": "create an object",
    "get": "read an object",
    "put": "modify/update an object",
    "delete": "delete an object",
}


def document_from_manifest(manifest: StubManifest) -> EssDocument:
    """Build a root-level-design document carrying the manifest's wiring."""
    paths: dict = {}
    schemas: dict = {}
    schemes: dict = {}
    used_names: set[str] = set()

    for route in manifest.routes:
        item: dict = {}
        for verb in route.methods:
            item[verb] = {"responses": {"200": {"description": "placeholder"}}}
        if route.object_auth is not None:
            auth = route.object_auth
            schema_name = _schema_name(route.path, used_names)
            used_names.add(schema_name)
            scheme_ref = ("#/components/securitySchemes/" + urllib.parse.quote(
                _escape_pointer(_ensure_scheme(schemes, auth))))
            id_prop = auth.object_id_property
            scopes: dict = {
                "groups": {"$ref": f"{scheme_ref}/x-groups"},
                "user_id": {"$ref": f"{scheme_ref}/x-user_id"},
                "methods": {
                    verb: {"description": _ACTION_DESCRIPTIONS[verb]}
                    for verb in route.methods if verb in _ACTION_DESCRIPTIONS
                },
            }
            if auth.groups_claim is None:
                del scopes["groups"]
            if auth.user_id_claim is None:
                del scopes["user_id"]
            schemas[schema_name] = {
                "type": "object",
                "properties": {id_prop: {"type": "integer", "format": "int64"}},
                "x-objectAuth": {
                    "object": {"$ref": f"#/components/schemas/{schema_name}/properties/"
                                       + urllib.parse.quote(_escape_pointer(id_prop))},
                    "schema": {"$ref": scheme_ref},
                    "scopes": scopes,
                },
            }
            item["x-objects"] = {
                "$ref": f"#/components/schemas/{schema_name}/x-objectAuth"}
        paths[route.path] = item

    tree: dict = {
        "openapi": "3.0.3",
        "info": {"title": "Recovered service specification", "version": "1.0"},
        "paths": paths,
    }
    if schemas or schemes:
        tree["components"] = {}
        if schemas:
            tree["components"]["schemas"] = schemas
        if schemes:
            tree["components"]["securitySchemes"] = schemes
    return build_document(tree)


def _schema_name(path: str, used: set[str]) -> str:
    parts = [p for p in re.split(r"[^A-Za-z0-9]+", path) if p]
    name = "".join(p.capitalize() for p in parts) or "Object"
    candidate = name
    counter = 2
    while candidate in used:
        candidate = f"{name}{counter}"
        counter += 1
    return candidate


def _ensure_scheme(schemes: dict, auth: ObjectAuthAttachment) -> str:
    """The name of the scheme that ``auth`` is wired to: its own name, or
    that name with the first free ``_<n>`` suffix when a different scheme
    holds it already."""
    wanted = {
        "type": "apiKey",
        "name": "api_key",
        "in": auth.token_location,
    }
    if auth.groups_claim is not None:
        wanted["x-groups"] = auth.groups_claim
    if auth.user_id_claim is not None:
        wanted["x-user_id"] = auth.user_id_claim
    name, n = auth.scheme_name, 1
    while schemes.setdefault(name, wanted) != wanted:
        n += 1
        name = f"{auth.scheme_name}_{n}"
    return name


# ---------------------------------------------------------------------------
# Round trip


def ess_facts(doc: EssDocument) -> dict[str, str | None]:
    """Authorization facts preserved by a round trip: per path, the marker
    line of its wiring, or None when it is unbound."""
    return {path: None if item.binding is None
            else _wiring(item.binding).marker(path)
            for path, item in doc.paths.items()}


def stub_matches_spec(doc: EssDocument, stub_dir: str | Path) -> bool:
    """True iff the stub recovers to a document with the same facts as ``doc``."""
    return _recovers_facts(doc, lambda: stub_to_spec(stub_dir))


def _recovers_facts(doc: EssDocument, recover) -> bool:
    try:
        recovered = recover()
    except (NoStubFoundError, MarkerSyntaxError, StubInconsistentError):
        return False
    return ess_facts(doc) == ess_facts(recovered)


def roundtrip_check(doc: EssDocument) -> bool:
    """Generate a stub from ``doc`` in memory and verify the reverse direction."""
    _, files = render_stub(doc)
    handlers = sorted((relpath, text) for relpath, text in files.items()
                      if relpath.startswith(f"{HANDLERS_DIR}/"))
    return _recovers_facts(
        doc, lambda: recover_document(files[MANIFEST_NAME], handlers))
