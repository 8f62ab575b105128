"""In-memory model for OpenAPI documents carrying object-authorization extensions.

The extensions recognized here are:

* ``X-objectAuthScheme``: a ``securitySchemes`` entry that additionally
  declares the token claims used for authorization (``x-groups``,
  ``x-user_id``).
* ``x-objectAuth``: placed on a schema under ``components/schemas``; binds
  the schema's identifier property to the scheme and declares CRUD scopes
  (root-level design).
* ``x-objects``: placed on a path item; a ``$ref`` to a schema's
  ``x-objectAuth`` node (root-level design).
* ``X-objectAuth``: placed directly on an operation, carrying an inline
  ``token`` block and per-action (``C``/``R``/``U``/``D``) scopes
  (method-level design).

Key casing differs between the two designs; the parser accepts any casing and
:func:`emit_document` writes the canonical spelling per placement. Everything
that is not one of these extension nodes is carried opaquely in
:attr:`EssDocument.raw` so documents re-emit losslessly.

See ``docs/extension-reference.md`` for the full grammar.
"""

from __future__ import annotations

import copy
import json
import re
import urllib.parse
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

import yaml
from yaml.events import (AliasEvent, MappingEndEvent, MappingStartEvent, ScalarEvent,
                         SequenceEndEvent, SequenceStartEvent, StreamEndEvent)
from yaml.nodes import ScalarNode

from .actions import VERB_ORDER, Action, action_for_key
from .errors import (
    CyclicRefError,
    DanglingRefError,
    DocumentSyntaxError,
    StructureError,
)

# Lowercased spellings of every extension key the parser recognizes.
_KEY_OBJECTS = "x-objects"
_KEY_OBJECT_AUTH = "x-objectauth"
_KEY_GROUPS = "x-groups"
_KEY_USER_ID = "x-user_id"
_SCHEME_NAME = "x-objectauthscheme"

# Canonical spellings on emission.
CANON_OBJECTS = "x-objects"
CANON_OBJECT_AUTH_ROOT = "x-objectAuth"
CANON_OBJECT_AUTH_METHOD = "X-objectAuth"
CANON_GROUPS = "x-groups"
CANON_USER_ID = "x-user_id"
CANON_SCHEME_NAME = "X-objectAuthScheme"


class Placement(str, Enum):
    ROOT_LEVEL = "root_level"
    METHOD_LEVEL = "method_level"


class SchemeKind(str, Enum):
    API_KEY = "apiKey"
    OBJECT_AUTH = "objectAuthScheme"
    OTHER = "other"


def _find_key(node: Mapping[str, Any], lowered: str) -> str | None:
    """Return the actual key in ``node`` whose lowercase form is ``lowered``."""
    for key in node:
        if isinstance(key, str) and key.lower() == lowered:
            return key
    return None


def _escape_pointer(segment: str) -> str:
    return segment.replace("~", "~0").replace("/", "~1")


def _unescape_pointer(segment: str) -> str:
    return segment.replace("~1", "/").replace("~0", "~")


def pointer_for_path(path: str) -> str:
    """Document pointer of a path item, e.g. ``/pet`` -> ``#/paths/~1pet``."""
    return f"#/paths/{_escape_pointer(path)}"


@dataclass(frozen=True)
class SecurityScheme:
    name: str
    kind: SchemeKind
    location: str | None
    x_groups: str | None
    x_user_id: str | None

    @property
    def is_object_auth(self) -> bool:
        return self.kind is SchemeKind.OBJECT_AUTH


@dataclass(frozen=True)
class TokenHint:
    """Inline token block of a method-level binding."""

    type: str | None
    name: str | None
    location: str | None


@dataclass(frozen=True)
class ObjectAuthBinding:
    context: str                    # document pointer of the binding node
    placement: Placement
    object_id_ref: str | None
    scheme_ref: str | None
    token: TokenHint | None
    actions: tuple[Action, ...]     # the CRUD actions its scopes name, in order
    invalid_scope_keys: tuple[str, ...]
    groups: str | None              # the claims' type descriptors, resolved
    user_id: str | None
    groups_ref: str | None = None   # scopes.groups / scopes.user_id refs
    user_id_ref: str | None = None

    def structural_key(self) -> str:
        """Fingerprint used to detect structurally identical bindings."""
        payload = {
            "object": self.object_id_ref,
            "scheme": self.scheme_ref,
            "token": None if self.token is None else
                     [self.token.type, self.token.name, self.token.location],
            "scopes": sorted(a.value for a in self.actions),
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class PathItem:
    path: str
    operations: Mapping[str, Any]           # verb -> opaque operation node
    x_objects_ref: str | None
    method_bindings: Mapping[str, ObjectAuthBinding]  # verb -> binding
    # The path's effective binding: the schema binding x-objects targets,
    # else the first method-level one.
    binding: ObjectAuthBinding | None


@dataclass
class EssDocument:
    """Parsed document plus its unmodified tree for lossless re-emission."""

    paths: dict[str, PathItem]
    security_schemes: dict[str, SecurityScheme]
    schemas: dict[str, ObjectAuthBinding]   # bound schema name -> its binding
    raw: dict = field(repr=False)

    def bindings(self) -> list[ObjectAuthBinding]:
        """All bindings in document order: schemas first, then per-operation ones."""
        found = list(self.schemas.values())
        for item in self.paths.values():
            found.extend(item.method_bindings.values())
        return found

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EssDocument):
            return NotImplemented
        return canonicalize_tree(self.raw) == canonicalize_tree(other.raw)


# ---------------------------------------------------------------------------
# Reference resolution


def resolve_ref(doc: EssDocument, ref: str, base: str | None = None) -> Any:
    """Resolve an intra-document reference to the node it addresses.

    ``ref`` is normally a ``#/``-rooted fragment. A relative reference (no
    leading ``#``) is resolved from ``base``, itself a ``#/``-rooted pointer
    (method-level bindings use this for their object refs). If the addressed
    node is itself a ``{"$ref": ...}`` wrapper the chain is followed;
    revisiting a node raises :class:`CyclicRefError`, and a reference that
    is not a string :class:`DanglingRefError`.
    """
    return _resolve(doc.raw, ref, base)


def _resolve(root: Mapping[str, Any], ref: str, base: str | None = None) -> Any:
    seen: set[str] = set()
    current = ref
    current_base = base
    while True:
        if not isinstance(current, str):
            raise DanglingRefError(current)
        normalized = _absolute_pointer(current, current_base)
        if normalized in seen:
            raise CyclicRefError(current)
        seen.add(normalized)
        node = _walk(root, normalized, original=current)
        if isinstance(node, Mapping) and set(node.keys()) == {"$ref"}:
            current_base = _parent_pointer(normalized)
            current = node["$ref"]
            continue
        return node


def _absolute_pointer(ref: str, base: str | None) -> str:
    if ref.startswith("#"):
        return ref
    if ":" in ref.split("/", 1)[0] and not ref.startswith("#"):
        raise DanglingRefError(ref, f"remote references are not supported: {ref!r}")
    if base is None:
        raise DanglingRefError(ref, f"relative reference {ref!r} used without a base")
    return base.rstrip("/") + "/" + ref.lstrip("/")


def scheme_for_ref(doc: EssDocument, ref: str) -> SecurityScheme | None:
    """The security scheme ``ref`` lands on once its ``$ref`` chain is
    followed (an alias entry, say), matched by node identity; None when it
    lands on a node that is not a scheme. A dangling or cyclic chain raises
    :class:`DanglingRefError` or :class:`CyclicRefError`."""
    target = resolve_ref(doc, ref)
    schemes = (doc.raw.get("components") or {}).get("securitySchemes") or {}
    for name, node in schemes.items():
        if node is target:
            return doc.security_schemes[name]
    return None


def _parent_pointer(pointer: str) -> str:
    trimmed = pointer[2:] if pointer.startswith("#/") else pointer.lstrip("#")
    parts = trimmed.split("/")[:-1]
    return "#/" + "/".join(parts)


# Extension keys a ref segment may name in any casing -> canonical casing.
_SEGMENT_CANON = {
    _KEY_OBJECT_AUTH: CANON_OBJECT_AUTH_ROOT,   # ref targets are always schema-rooted
    _KEY_OBJECTS: CANON_OBJECTS,
    _KEY_GROUPS: CANON_GROUPS,
    _KEY_USER_ID: CANON_USER_ID,
    _SCHEME_NAME: CANON_SCHEME_NAME,
}


def _decimal(text: str) -> int | None:
    """``text`` as a non-negative ASCII decimal, else None; ``int()`` alone
    also takes signs, underscores, spaces and non-ASCII digits."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:      # more digits than int() converts
            pass
    return None


def _canonical_int(text: str) -> int | None:
    """``text`` as a non-negative integer when it is that integer's own
    spelling, ``str(n)``: no leading zero (RFC 6901 §4), else None."""
    number = _decimal(text)
    return number if number is not None and str(number) == text else None


def _walk(root: Any, pointer: str, original: str) -> Any:
    fragment = urllib.parse.unquote(pointer[1:])
    if fragment in ("", "/"):
        return root
    node = root
    for raw_segment in fragment.lstrip("/").split("/"):
        segment = _unescape_pointer(raw_segment)
        if isinstance(node, Mapping):
            if segment in node:
                node = node[segment]
                continue
            # YAML may have parsed numeric-looking keys as ints.
            index = _canonical_int(segment)
            if index is not None and index in node:
                node = node[index]
                continue
            # Extension keys match case-insensitively, same as the parser.
            if segment.lower() in _SEGMENT_CANON:
                actual = _find_key(node, segment.lower())
                if actual is not None:
                    node = node[actual]
                    continue
            raise DanglingRefError(original)
        if isinstance(node, list):
            # RFC 6901 array indices are ASCII digits, with no leading zero.
            index = _canonical_int(segment)
            if index is not None and index < len(node):
                node = node[index]
                continue
            raise DanglingRefError(original)
        raise DanglingRefError(original)
    return node


# ---------------------------------------------------------------------------
# Parsing


# How deep collections may nest in what :func:`decode` takes: every recursive
# reader of a tree (``yaml.safe_dump`` overflows at ~326) has frames to spare.
MAX_DEPTH = 256
# A block scalar header with a comment right after it, as in ``a: |#c``.
_HEADER_COMMENT = re.compile(r"[|>][-+0-9]*#")
# ``_build``'s mark for a node or text that ``yaml.load`` must decide, and
# for an anchor whose collection is still open.
_DEFER = object()


def decode(text: str | bytes, format: str = "yaml") -> Any:
    """The tree YAML or JSON ``text`` (bytes: UTF-8) spells; else
    :class:`DocumentSyntaxError` for text that is not UTF-8, is malformed or
    nests over :data:`MAX_DEPTH`, a bound that holds on any build or limit."""
    if format not in ("yaml", "json"):
        raise ValueError(f"format must be 'yaml' or 'json', got {format!r}")
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        if format == "json":
            tree, walk = json.loads(text), text.count("[") + text.count("{") > MAX_DEPTH
        else:   # an alias can nest its anchor's collection deeper than the text
            tree, walk = _load_yaml(text), "*" in text
        if walk and _nests_over(tree, MAX_DEPTH):
            raise ValueError(f"collections nested over {MAX_DEPTH} deep")
    # ValueError: also no such date, or a character libyaml cannot encode.
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise DocumentSyntaxError(f"malformed {format}: {exc}") from exc
    return tree


def _nests_over(tree: Any, depth: int) -> bool:
    """Whether ``tree`` nests collections over ``depth`` deep (a cycle does),
    walked a level at a time up to the first empty one."""
    level = {id(tree): tree} if isinstance(tree, (dict, list)) else {}
    for _ in range(depth):
        if not level:
            return False
        level = {id(child): child for node in level.values()
                 for child in (node.values() if isinstance(node, dict) else node)
                 if isinstance(child, (dict, list))}
    return bool(level)


def _loader_for(text: str) -> type:
    """libyaml's loader when PyYAML was built with it, except where libyaml
    parts from the pure-Python loader: it accepts a tab after a plain scalar
    and a ``#`` right after a block scalar header, reads a bare ``!`` tag as
    ``''``, not None, and refuses a U+FEFF past the start. There the pure
    loader decides, and the verdict does not hang on the build."""
    pure = ("\t" in text or "!" in text or "\ufeff" in text
            or (("|" in text or ">" in text) and _HEADER_COMMENT.search(text)))
    return yaml.SafeLoader if pure \
        else getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str) -> Any:
    """What ``yaml.load`` with :func:`_loader_for`'s loader gives or raises,
    built from the parser's events with no node graph. Where :func:`_build`
    builds no tree (a merge key or explicit tag, an undefined, repeated or
    open anchor, a collection as a key, a date that does not exist, a second
    document, a syntax error), ``yaml.load`` decides; but collections nested
    over :data:`MAX_DEPTH` deep are a ``YAMLError`` before any composer."""
    loader = _loader_for(text)
    parser = loader(text)
    try:
        tree = _build(parser)
    finally:
        parser.dispose()
    return yaml.load(text, Loader=loader) if tree is _DEFER else tree


def _build(parser: Any) -> Any:
    """The tree ``parser``'s events spell, or ``_DEFER``. A plain scalar is
    typed by the loader's own resolver and constructor, and an alias is the
    very object its anchor names. After a deferral it only counts depth."""
    resolve, constructors = parser.resolve, parser.yaml_constructors
    str_tag, tags = parser.DEFAULT_SCALAR_TAG, {}   # plain scalar -> its tag
    anchors: dict[str, Any] = {}
    # The open collection's children (a mapping's keys and values alternate),
    # whether it is a mapping, and the ones around it, each with the anchor
    # of the one inside; the outermost holds each document.
    nodes, mapping, enclosing, deferred = [], False, [], False
    while True:
        try:
            event = parser.get_event()
        except yaml.YAMLError:
            return _DEFER
        kind = type(event)
        if kind is ScalarEvent:
            node = event.value
            if event.tag is not None:
                node = _DEFER
            elif event.implicit[0] and not deferred:
                tag = tags.get(node) or tags.setdefault(
                    node, resolve(ScalarNode, node, (True, False)))
                if tag != str_tag:      # whose constructor returns the value
                    construct = constructors.get(tag)
                    try:
                        node = _DEFER if construct is None \
                            else construct(parser, ScalarNode(tag, node))
                    except ValueError:  # no such date: yaml.load says so,
                        node = _DEFER   # or names an error it meets first
            if event.anchor is not None:
                deferred |= event.anchor in anchors
                anchors[event.anchor] = node
        elif kind is AliasEvent:
            node = anchors.get(event.anchor, _DEFER)
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            if len(enclosing) >= MAX_DEPTH:
                raise yaml.YAMLError(f"collections nested over {MAX_DEPTH} deep")
            deferred |= event.tag is not None or event.anchor in anchors
            if event.anchor is not None:
                anchors[event.anchor] = _DEFER
            enclosing.append((nodes, mapping, event.anchor))
            nodes, mapping = [], kind is MappingStartEvent
            continue
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            node = dict(zip(nodes[::2], nodes[1::2])) if mapping else nodes
            nodes, mapping, anchor = enclosing.pop()
            if anchor is not None:
                anchors[anchor] = node
        elif kind is StreamEndEvent:    # two documents are yaml.load's error
            return _DEFER if deferred or len(nodes) > 1 else next(iter(nodes), None)
        else:
            continue
        # A collection is no key: yaml.load refuses it as unhashable.
        if node is _DEFER or mapping and not len(nodes) % 2 \
                and isinstance(node, (dict, list)):
            deferred = True
        elif not deferred:
            nodes.append(node)


def parse_document(text: str, format: str = "yaml") -> EssDocument:
    """Parse serialized YAML/JSON into an :class:`EssDocument`.

    Extension nodes are identified (any key casing) and typed; everything else
    is retained opaquely. Raises :class:`DocumentSyntaxError` for text that
    :func:`decode` refuses and :class:`StructureError` for non-3.x documents
    or extension usage pointing at sections that do not exist.
    """
    tree = decode(text, format)
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        raise StructureError("document root must be a mapping")
    return build_document(tree)


def build_document(tree: dict) -> EssDocument:
    """Build the typed model from an already-parsed document tree."""
    if "swagger" in tree:
        raise StructureError(
            f"unsupported document version swagger={tree['swagger']!r}; "
            "only OpenAPI 3.x documents are accepted")
    version = tree.get("openapi")
    if version is not None and not str(version).startswith("3."):
        raise StructureError(f"unsupported openapi version {version!r}; expected 3.x")

    components = tree.get("components") or {}
    if not isinstance(components, dict):
        raise StructureError("'components' must be a mapping")

    schemes = _parse_security_schemes(components.get("securitySchemes") or {})
    schemas, by_node = _parse_schemas(tree, components.get("schemas") or {})
    paths = _parse_paths(tree, by_node)
    return EssDocument(paths=paths, security_schemes=schemes, schemas=schemas, raw=tree)


def _parse_security_schemes(node: Any) -> dict[str, SecurityScheme]:
    if not isinstance(node, dict):
        raise StructureError("'components.securitySchemes' must be a mapping")
    schemes: dict[str, SecurityScheme] = {}
    for name, body in node.items():
        if not isinstance(body, dict):
            raise StructureError(f"security scheme {name!r} must be a mapping")
        groups_key = _find_key(body, _KEY_GROUPS)
        user_id_key = _find_key(body, _KEY_USER_ID)
        if name.lower() == _SCHEME_NAME or groups_key or user_id_key:
            kind = SchemeKind.OBJECT_AUTH
        elif body.get("type") == "apiKey":
            kind = SchemeKind.API_KEY
        else:
            kind = SchemeKind.OTHER
        schemes[name] = SecurityScheme(
            name=name,
            kind=kind,
            location=body.get("in"),
            x_groups=_descriptor(body.get(groups_key)) if groups_key else None,
            x_user_id=_descriptor(body.get(user_id_key)) if user_id_key else None,
        )
    return schemes


def _descriptor(node: Any) -> str | None:
    """Normalize a claim type declaration: scalar, ``{type: X}``, or None."""
    if node is None:
        return None
    if isinstance(node, str):
        return node
    if isinstance(node, dict):
        if "type" in node:
            return str(node["type"])
        if "$ref" in node:
            return None  # resolved separately, against the full tree
    return str(node)


def _parse_schemas(tree: dict, node: Any) -> tuple[dict[str, ObjectAuthBinding],
                                                   dict[int, ObjectAuthBinding]]:
    """Each bound schema's binding by schema name, and by the ``id`` of its
    x-objectAuth node (the first schema's, when an alias shares the node)."""
    if not isinstance(node, dict):
        raise StructureError("'components.schemas' must be a mapping")
    schemas: dict[str, ObjectAuthBinding] = {}
    by_node: dict[int, ObjectAuthBinding] = {}
    for name, body in node.items():
        auth_key = _find_key(body, _KEY_OBJECT_AUTH) if isinstance(body, dict) else None
        if auth_key is not None:
            context = f"#/components/schemas/{_escape_pointer(name)}/{auth_key}"
            schemas[name] = _parse_binding(tree, body[auth_key], context,
                                           Placement.ROOT_LEVEL)
            by_node.setdefault(id(body[auth_key]), schemas[name])
    return schemas, by_node


def _parse_paths(tree: dict, by_node: dict[int, ObjectAuthBinding]
                 ) -> dict[str, PathItem]:
    node = tree.get("paths") or {}
    if not isinstance(node, dict):
        raise StructureError("'paths' must be a mapping")
    paths: dict[str, PathItem] = {}
    for path, body in node.items():
        if not isinstance(path, str) or not path.startswith("/"):
            raise StructureError(f"path template {path!r} must begin with '/'")
        if not isinstance(body, dict):
            raise StructureError(f"path item {path!r} must be a mapping")
        operations = {verb: node for verb, node in body.items()
                      if verb in VERB_ORDER}
        method_bindings: dict[str, ObjectAuthBinding] = {}
        for verb, op in operations.items():
            if not isinstance(op, dict):
                continue
            auth_key = _find_key(op, _KEY_OBJECT_AUTH)
            if auth_key is not None:
                context = f"{pointer_for_path(path)}/{verb}/{auth_key}"
                method_bindings[verb] = _parse_binding(
                    tree, op[auth_key], context, Placement.METHOD_LEVEL)

        x_objects_ref = None
        binding = next(iter(method_bindings.values()), None)
        objects_key = _find_key(body, _KEY_OBJECTS)
        if objects_key is not None:
            ref_node = body[objects_key]
            if isinstance(ref_node, dict) and "$ref" in ref_node:
                x_objects_ref = ref_node["$ref"]
            elif isinstance(ref_node, str):
                x_objects_ref = ref_node
            else:
                raise StructureError(
                    f"{path}: '{objects_key}' must be a $ref to a schema's "
                    f"object-authorization node")
            # Fail fast: a path cannot be linked to its binding if this dangles.
            binding = by_node.get(id(_resolve(tree, x_objects_ref)), binding)
        paths[path] = PathItem(
            path=path,
            operations=operations,
            x_objects_ref=x_objects_ref,
            method_bindings=method_bindings,
            binding=binding,
        )
    return paths


def _parse_binding(tree: dict, node: Any, context: str,
                   placement: Placement) -> ObjectAuthBinding:
    if not isinstance(node, dict):
        raise StructureError(f"{context}: binding must be a mapping")

    object_id_ref = None
    obj = node.get("object")
    if isinstance(obj, dict):
        if "$ref" in obj:
            object_id_ref = obj["$ref"]
        elif isinstance(obj.get("schema"), dict) and "$ref" in obj["schema"]:
            object_id_ref = obj["schema"]["$ref"]

    scheme_ref = None
    scheme_node = node.get("schema")
    if isinstance(scheme_node, dict) and "$ref" in scheme_node:
        scheme_ref = scheme_node["$ref"]

    token = None
    token_node = node.get("token")
    if isinstance(token_node, dict):
        token = TokenHint(
            type=token_node.get("type"),
            name=token_node.get("name"),
            location=token_node.get("in"),
        )

    scopes = node.get("scopes")
    if not isinstance(scopes, dict):
        scopes = {}
    bodies, invalid = _scope_bodies(scopes)
    groups_ref = _ref_of(scopes.get("groups"))
    user_id_ref = _ref_of(scopes.get("user_id"))
    return ObjectAuthBinding(
        context=context,
        placement=placement,
        object_id_ref=object_id_ref,
        scheme_ref=scheme_ref,
        token=token,
        actions=tuple(bodies),
        invalid_scope_keys=tuple(invalid),
        groups=_claim(tree, bodies.values(), "groups", groups_ref),
        user_id=_claim(tree, bodies.values(), "user_id", user_id_ref),
        groups_ref=groups_ref,
        user_id_ref=user_id_ref,
    )


def _scope_bodies(node: dict) -> tuple[dict[Action, dict], list[str]]:
    """The body that declares each CRUD action's claims, in the order the
    actions first appear (a later key for the same action replaces an
    earlier one's body), and the keys that name no action. Either shape:

    Root-level: ``{groups: .., user_id: .., methods: {verb: {description}}}``
    (claims shared across the actions listed under ``methods``).
    Method-level: ``{C: {groups: .., user_id: ..}, R: ..., U: ..., D: ...}``.
    """
    methods = node.get("methods")
    if isinstance(methods, dict):
        keyed = dict.fromkeys(methods, node)
    else:
        keyed = {key: body if isinstance(body, dict) else {}
                 for key, body in node.items() if key not in ("groups", "user_id")}
    bodies: dict[Action, dict] = {}
    invalid: list[str] = []
    for key, body in keyed.items():
        action = action_for_key(str(key))
        if action is None:
            invalid.append(str(key))
        else:
            bodies[action] = body
    return bodies, invalid


def _claim(tree: dict, bodies, name: str, ref: Any) -> str | None:
    """A claim's type descriptor: the first non-empty one the actions'
    bodies declare under ``name``, else the one the scopes' ``$ref`` lands
    on; None when that ref dangles (the validator reports it)."""
    found = next(filter(None, (_descriptor(b.get(name)) for b in bodies)), None)
    if found is None and ref is not None:
        try:
            found = _descriptor(_resolve(tree, ref))
        except (DanglingRefError, CyclicRefError):
            pass
    return found


def _ref_of(node: Any) -> str | None:
    if isinstance(node, dict) and "$ref" in node:
        return node["$ref"]
    return None


# ---------------------------------------------------------------------------
# Emission


def emit_document(doc: EssDocument, format: str = "yaml") -> str:
    """Serialize the document; extension keys get their canonical spelling."""
    tree = canonicalize_tree(doc.raw)
    if format == "json":
        return json.dumps(tree, indent=2) + "\n"
    if format == "yaml":
        return yaml.safe_dump(tree, sort_keys=False, allow_unicode=True, width=100)
    raise ValueError(f"format must be 'yaml' or 'json', got {format!r}")


def canonicalize_tree(tree: dict) -> dict:
    """Copy of a parsed document's tree with extension keys in canonical
    casing; the parser has checked that every path item is a mapping."""
    out = copy.deepcopy(tree)

    components = out.get("components")
    if isinstance(components, dict):
        schemes = components.get("securitySchemes")
        if isinstance(schemes, dict):
            for name in list(schemes):
                body = schemes[name]
                if isinstance(body, dict):
                    _rename_ci(body, _KEY_GROUPS, CANON_GROUPS)
                    _rename_ci(body, _KEY_USER_ID, CANON_USER_ID)
                if isinstance(name, str) and name.lower() == _SCHEME_NAME \
                        and name != CANON_SCHEME_NAME:
                    _rename_key(schemes, name, CANON_SCHEME_NAME)
        schemas = components.get("schemas")
        if isinstance(schemas, dict):
            for body in schemas.values():
                if isinstance(body, dict):
                    _rename_ci(body, _KEY_OBJECT_AUTH, CANON_OBJECT_AUTH_ROOT)

    paths = out.get("paths")
    if isinstance(paths, dict):
        for item in paths.values():
            _rename_ci(item, _KEY_OBJECTS, CANON_OBJECTS)
            for verb in VERB_ORDER:
                op = item.get(verb)
                if isinstance(op, dict):
                    _rename_ci(op, _KEY_OBJECT_AUTH, CANON_OBJECT_AUTH_METHOD)

    _canonicalize_refs(out)
    return out


def _rename_ci(node: dict, lowered: str, canonical: str) -> None:
    actual = _find_key(node, lowered)
    if actual is not None and actual != canonical:
        _rename_key(node, actual, canonical)


def _rename_key(node: dict, old: str, new: str) -> None:
    """Rename preserving the key's position in the mapping."""
    items = [(new, v) if k == old else (k, v) for k, v in node.items()]
    node.clear()
    node.update(items)


def _canonicalize_refs(node: Any) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "$ref" and isinstance(value, str):
                node[key] = _canonicalize_ref_string(value)
            else:
                _canonicalize_refs(value)
    elif isinstance(node, list):
        for value in node:
            _canonicalize_refs(value)


def _canonicalize_ref_string(ref: str) -> str:
    segments = ref.split("/")
    return "/".join(_SEGMENT_CANON.get(s.lower(), s) for s in segments)
