"""Bidirectional translation between annotated specifications and server stubs.

Spec → stub writes a language-neutral tree:

* ``manifest.json``: routes, methods, and per-route authorization wiring.
* ``handlers/<path-slug>.stub``: one skeleton per path; every handler of an
  authorization-bound path carries a privilege marker line directly above it.
* ``privilege_provider/provider.descriptor``: present iff any route is bound;
  records the provider configuration matched from the scheme details.

The marker grammar is bit-exact and anchored at line start (leading
whitespace allowed)::

    # @object_privilege(path="<path>", token_in="<header|body>", groups=<true|false>, user_id=<true|false>)

Stub → spec prefers the manifest and cross-checks it against the scanned
markers (any disagreement is an error); without a manifest it reconstructs
routes from the ``# route:`` headers, ``def handle_<verb>`` lines, and
markers, and a marker in a file with no ``# route:`` header is an error.
Recovered documents always use the root-level design, with a minimal
object schema per bound path.

Both directions work in memory: :func:`render_stub` builds the tree as a
``{relpath: text}`` map and :func:`recover_document` reads the manifest text
and handler texts back, so :func:`roundtrip_check` writes nothing unless it is
given a directory. :func:`spec_to_stub` and :func:`stub_to_spec` are the
on-disk wrappers around them.
"""

from __future__ import annotations

import json
import re
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import (
    CyclicRefError,
    DanglingRefError,
    MarkerSyntaxError,
    NoStubFoundError,
    StubInconsistentError,
    ValidationFailedError,
)
from .model import (
    CANON_SCHEME_NAME,
    EssDocument,
    ObjectAuthBinding,
    build_document,
    resolved_claims,
    scheme_for_ref,
    _unescape_pointer,
)
from .validator import has_errors, validate
from .actions import VERB_ORDER

PROVIDER_MODULE = "privilege_provider"
MANIFEST_NAME = "manifest.json"
HANDLERS_DIR = "handlers"
DESCRIPTOR_PATH = f"{PROVIDER_MODULE}/provider.descriptor"

MARKER_RE = re.compile(
    r'^\s*# @object_privilege\(path="([^"]*)", token_in="(header|body)", '
    r'groups=(true|false), user_id=(true|false)\)\s*$')
MARKER_LIKE_RE = re.compile(r"^\s*#\s*@object_privilege")
ROUTE_HEADER_RE = re.compile(r"^# route: (\S+)\s*$")
HANDLER_DEF_RE = re.compile(r"^def handle_([a-z]+)\(")


@dataclass(frozen=True)
class PrivilegeProviderMarker:
    path: str
    token_location: str          # header | body
    groups: bool
    user_id: bool

    def line(self) -> str:
        return (f'# @object_privilege(path="{self.path}", '
                f'token_in="{self.token_location}", '
                f'groups={str(self.groups).lower()}, '
                f'user_id={str(self.user_id).lower()})')


@dataclass(frozen=True)
class ObjectAuthAttachment:
    scheme_name: str
    token_location: str          # header | body
    groups_claim: str | None
    user_id_claim: str | None
    object_id_property: str

    def marker(self, path: str) -> PrivilegeProviderMarker:
        return PrivilegeProviderMarker(
            path=path,
            token_location=self.token_location,
            groups=self.groups_claim is not None,
            user_id=self.user_id_claim is not None,
        )


@dataclass(frozen=True)
class RouteSpec:
    path: str
    methods: tuple[str, ...]
    object_auth: ObjectAuthAttachment | None


@dataclass(frozen=True)
class StubManifest:
    routes: tuple[RouteSpec, ...]
    module_includes: tuple[str, ...]

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "routes": [{
                "path": r.path,
                "methods": list(r.methods),
                "object_auth": None if r.object_auth is None else {
                    "scheme_name": r.object_auth.scheme_name,
                    "token_location": r.object_auth.token_location,
                    "groups_claim": r.object_auth.groups_claim,
                    "user_id_claim": r.object_auth.user_id_claim,
                    "object_id_property": r.object_auth.object_id_property,
                },
            } for r in self.routes],
            "module_includes": list(self.module_includes),
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StubManifest":
        payload = json.loads(text)
        routes = []
        for entry in payload.get("routes", []):
            auth = entry.get("object_auth")
            routes.append(RouteSpec(
                path=entry["path"],
                methods=tuple(entry["methods"]),
                object_auth=None if auth is None else ObjectAuthAttachment(
                    scheme_name=auth["scheme_name"],
                    token_location=auth["token_location"],
                    groups_claim=auth.get("groups_claim"),
                    user_id_claim=auth.get("user_id_claim"),
                    object_id_property=auth.get("object_id_property", "id"),
                ),
            ))
        return cls(routes=tuple(routes),
                   module_includes=tuple(payload.get("module_includes", [])))


# ---------------------------------------------------------------------------
# Specification -> stub


def manifest_from_document(doc: EssDocument) -> StubManifest:
    routes = []
    for path in sorted(doc.paths):
        item = doc.paths[path]
        methods = tuple(sorted(item.operations, key=VERB_ORDER.index))
        binding = doc.path_binding(path)
        attachment = None if binding is None else _wiring(doc, binding)
        routes.append(RouteSpec(path=path, methods=methods, object_auth=attachment))
    includes = (PROVIDER_MODULE,) if any(r.object_auth for r in routes) else ()
    return StubManifest(routes=tuple(routes), module_includes=includes)


def _wiring(doc: EssDocument, binding: ObjectAuthBinding) -> ObjectAuthAttachment:
    """Runtime wiring of a binding; identical for both placements. The
    scheme is the one the validator checked; a binding whose scheme ref lands
    on no scheme (an error finding) is wired from its inline token, if any."""
    scheme = None
    if binding.scheme_ref is not None:
        try:
            scheme = scheme_for_ref(doc, binding.scheme_ref)
        except (DanglingRefError, CyclicRefError):
            pass
    if scheme is not None:
        scheme_name, location = scheme.name, scheme.location
    else:
        scheme_name = CANON_SCHEME_NAME
        location = None if binding.token is None else binding.token.location
    claims = resolved_claims(doc, binding)
    object_id_property = ("id" if binding.object_id_ref is None
                          else _last_segment(binding.object_id_ref))
    return ObjectAuthAttachment(
        scheme_name=scheme_name,
        token_location=_normalize_location(location),
        groups_claim=claims.groups,
        user_id_claim=claims.user_id,
        object_id_property=object_id_property,
    )


def _normalize_location(location: str | None) -> str:
    if location in (None, "header"):
        return "header"
    return "body"


def _last_segment(ref: str) -> str:
    fragment = urllib.parse.unquote(ref)
    return _unescape_pointer(fragment.rstrip("/").split("/")[-1])


def path_slug(path: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", path.strip("/")).strip("_")
    return slug or "root"


def render_stub(doc: EssDocument) -> tuple[StubManifest, dict[str, str]]:
    """The server stub tree of a document with no error findings, as its
    manifest and a ``{relpath: text}`` map; a later route whose slug collides
    with an earlier one replaces its handler file, as on disk."""
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
                lines.append(route.object_auth.marker(route.path).line())
            lines.append(f"def handle_{verb}(request):")
            lines.append(f'    raise NotImplementedError("{verb} {route.path}")')
            lines.append("")
        files[f"{HANDLERS_DIR}/{path_slug(route.path)}.stub"] = "\n".join(lines)

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
    """Write the server stub tree for a document with no error findings;
    ``handlers/`` exists even when the document has no route."""
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


@dataclass(frozen=True)
class _ScannedFile:
    route: str | None
    methods: tuple[str, ...]
    markers: tuple[PrivilegeProviderMarker, ...]


def _scan_handler(label: str, text: str) -> _ScannedFile:
    route = None
    methods: list[str] = []
    markers: list[PrivilegeProviderMarker] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        header = ROUTE_HEADER_RE.match(line)
        if header and route is None:
            route = header.group(1)
            continue
        if MARKER_LIKE_RE.match(line):
            matched = MARKER_RE.match(line)
            if matched is None:
                raise MarkerSyntaxError(label, line_no, line)
            markers.append(PrivilegeProviderMarker(
                path=matched.group(1),
                token_location=matched.group(2),
                groups=matched.group(3) == "true",
                user_id=matched.group(4) == "true",
            ))
            continue
        handler = HANDLER_DEF_RE.match(line)
        if handler:
            methods.append(handler.group(1))
    return _ScannedFile(route=route, methods=tuple(methods),
                        markers=tuple(markers))


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
    order; a label names its file in a :class:`MarkerSyntaxError`."""
    scanned = [_scan_handler(label, text) for label, text in handlers]
    if manifest_text is not None:
        manifest = StubManifest.from_json(manifest_text)
        _cross_check(manifest, scanned)
        return document_from_manifest(manifest)
    return document_from_manifest(_manifest_from_scan(scanned))


def _cross_check(manifest: StubManifest, scanned: list[_ScannedFile]) -> None:
    """Manifest and marker scan must tell the same story."""
    markers_by_path: dict[str, list[PrivilegeProviderMarker]] = {}
    for file in scanned:
        for marker in file.markers:
            markers_by_path.setdefault(marker.path, []).append(marker)

    routes_by_path = {r.path: r for r in manifest.routes}
    for path, markers in markers_by_path.items():
        route = routes_by_path.get(path)
        if route is None or route.object_auth is None:
            raise StubInconsistentError(
                f"markers found for {path!r} but the manifest declares no "
                f"object authorization there")

    for route in manifest.routes:
        if route.object_auth is None:
            continue
        markers = markers_by_path.get(route.path, [])
        expected = route.object_auth.marker(route.path)
        if len(markers) != len(route.methods):
            raise StubInconsistentError(
                f"{route.path!r}: manifest declares {len(route.methods)} "
                f"authorized handler(s) but {len(markers)} marker(s) were "
                f"scanned")
        for marker in markers:
            if marker != expected:
                raise StubInconsistentError(
                    f"{route.path!r}: marker {marker} disagrees with the "
                    f"manifest wiring {expected}")


def _attachment_from_marker(marker: PrivilegeProviderMarker) -> ObjectAuthAttachment:
    return ObjectAuthAttachment(
        scheme_name=CANON_SCHEME_NAME,
        token_location=marker.token_location,
        groups_claim="string" if marker.groups else None,
        user_id_claim="string" if marker.user_id else None,
        object_id_property="id",
    )


def _manifest_from_scan(scanned: list[_ScannedFile]) -> StubManifest:
    routes: dict[str, RouteSpec] = {}
    for file in scanned:
        if file.route is None:
            if file.markers:
                raise StubInconsistentError(
                    f"marker for {file.markers[0].path!r} in a handler file "
                    f"with no '# route:' header")
            continue
        if len(set(file.markers)) > 1:
            raise StubInconsistentError(
                f"{file.route}: conflicting markers in one handler file")
        attachment = _attachment_from_marker(file.markers[0]) if file.markers else None
        methods = file.methods or ("post", "get", "put", "delete")
        routes[file.route] = RouteSpec(path=file.route, methods=methods,
                                       object_auth=attachment)
    ordered = tuple(routes[p] for p in sorted(routes))
    includes = (PROVIDER_MODULE,) if any(r.object_auth for r in ordered) else ()
    return StubManifest(routes=ordered, module_includes=includes)


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
            scheme_name = _ensure_scheme(schemes, auth)
            id_prop = auth.object_id_property
            scopes: dict = {
                "groups": {"$ref": f"#/components/securitySchemes/"
                                   f"{scheme_name}/x-groups"},
                "user_id": {"$ref": f"#/components/securitySchemes/"
                                    f"{scheme_name}/x-user_id"},
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
                    "object": {"$ref": f"#/components/schemas/{schema_name}"
                                       f"/properties/{id_prop}"},
                    "schema": {"$ref": f"#/components/securitySchemes/"
                                       f"{scheme_name}"},
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
    wanted = {
        "type": "apiKey",
        "name": "api_key",
        "in": auth.token_location,
    }
    if auth.groups_claim is not None:
        wanted["x-groups"] = auth.groups_claim
    if auth.user_id_claim is not None:
        wanted["x-user_id"] = auth.user_id_claim
    for name, existing in schemes.items():
        if existing == wanted:
            return name
    name = CANON_SCHEME_NAME if CANON_SCHEME_NAME not in schemes \
        else f"{CANON_SCHEME_NAME}_{len(schemes) + 1}"
    schemes[name] = wanted
    return name


# ---------------------------------------------------------------------------
# Round trip


def ess_facts(doc: EssDocument) -> dict[str, dict | None]:
    """Authorization facts preserved by a round trip, per path."""
    facts: dict[str, dict | None] = {}
    for path in doc.paths:
        binding = doc.path_binding(path)
        if binding is None:
            facts[path] = None
            continue
        wiring = _wiring(doc, binding)
        facts[path] = {
            "token_in": wiring.token_location,
            "groups": wiring.groups_claim is not None,
            "user_id": wiring.user_id_claim is not None,
        }
    return facts


def stub_matches_spec(doc: EssDocument, stub_dir: str | Path) -> bool:
    """True iff the stub recovers to a document with the same facts as ``doc``."""
    return _recovers_facts(doc, lambda: stub_to_spec(stub_dir))


def _recovers_facts(doc: EssDocument, recover) -> bool:
    try:
        recovered = recover()
    except (NoStubFoundError, MarkerSyntaxError, StubInconsistentError):
        return False
    return ess_facts(doc) == ess_facts(recovered)


def roundtrip_check(doc: EssDocument, out_dir: str | Path | None = None) -> bool:
    """Generate a stub from ``doc`` and verify the reverse direction: in
    memory, or through ``out_dir`` on disk when one is given."""
    if out_dir is not None:
        spec_to_stub(doc, out_dir)
        return stub_matches_spec(doc, out_dir)
    _, files = render_stub(doc)
    handlers = sorted((relpath, text) for relpath, text in files.items()
                      if relpath.startswith(f"{HANDLERS_DIR}/"))
    return _recovers_facts(
        doc, lambda: recover_document(files[MANIFEST_NAME], handlers))
