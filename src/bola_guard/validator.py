"""Structural and semantic validation of object-authorization extension usage.

An empty finding list means the document is conformant. Findings carry a code
from a fixed catalog:

====================  ========  =====================================================
code                  severity  meaning
====================  ========  =====================================================
E-SCHEME-KIND         error     binding's scheme ref does not target an
                                object-authorization scheme (or no scheme/token at all)
E-SCHEME-INCOMPLETE   error     object-authorization scheme lacks x-groups or x-user_id
E-OBJECT-REF          error     object identifier ref missing / not a primitive
                                property, or a path carries conflicting bindings
E-SCOPE-ACTION        error     scope key outside the four CRUD actions, or no
                                valid action at all
E-DANGLING-REF        error     a binding-internal $ref resolves to nothing
E-PATH-KEY            error     path key holds a line break or ends in whitespace,
                                which a stub's ``# route:`` header cannot carry
W-BOLA-UNBOUND        warning   path handles an object schema but has no binding
W-ESS-DUPLICATE       warning   structurally identical method-level binding repeated
====================  ========  =====================================================

Validation is pure and deterministic: findings are ordered by
(document location, code, message).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from .model import EssDocument, ObjectAuthBinding, Placement, pointer_for_path

ERROR = "error"
WARNING = "warning"

# A tuple, so an unhashable ``type`` (a 3.1 list, a mapping) is simply not in it.
PRIMITIVE_TYPES = ("integer", "number", "string", "boolean")

CODES = (
    "E-SCHEME-KIND",
    "E-SCHEME-INCOMPLETE",
    "E-OBJECT-REF",
    "E-SCOPE-ACTION",
    "E-DANGLING-REF",
    "E-PATH-KEY",
    "W-BOLA-UNBOUND",
    "W-ESS-DUPLICATE",
)


@dataclass(frozen=True)
class Finding:
    severity: str
    code: str
    path_context: str
    message: str

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError(f"unknown finding code {self.code!r}")


def validate(doc: EssDocument) -> list[Finding]:
    """Check every extension node; returns [] iff the document is conformant."""
    findings: list[Finding] = []
    findings.extend(_check_schemes(doc))
    for binding in doc.bindings():
        findings.extend(_check_binding(binding))
    findings.extend(_check_paths(doc))
    findings.extend(_check_duplicates(doc))
    findings.sort(key=lambda f: (f.path_context, f.code, f.message))
    return findings


def classify_design(doc: EssDocument) -> str:
    """One of ``root_level``, ``method_level``, ``mixed``, ``none``."""
    placements = {b.placement for b in doc.bindings()}
    if not placements:
        return "none"
    if placements == {Placement.ROOT_LEVEL}:
        return "root_level"
    if placements == {Placement.METHOD_LEVEL}:
        return "method_level"
    return "mixed"


def has_errors(findings: list[Finding]) -> bool:
    return any(f.severity == ERROR for f in findings)


def render_text(findings: list[Finding]) -> str:
    lines = [f"{f.severity}: {f.code} at {f.path_context}: {f.message}" for f in findings]
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2)


# ---------------------------------------------------------------------------


def _check_schemes(doc: EssDocument) -> list[Finding]:
    findings = []
    for name, scheme in doc.security_schemes.items():
        if not scheme.is_object_auth:
            continue
        missing = [claim for claim, value in
                   (("x-groups", scheme.x_groups), ("x-user_id", scheme.x_user_id))
                   if value is None]
        if missing:
            findings.append(Finding(
                severity=ERROR,
                code="E-SCHEME-INCOMPLETE",
                path_context=f"#/components/securitySchemes/{name}",
                message=f"object-authorization scheme must declare "
                        f"{' and '.join(missing)}",
            ))
    return findings


def _check_binding(binding: ObjectAuthBinding) -> list[Finding]:
    context = binding.context
    findings = [Finding(ERROR, "E-DANGLING-REF", context,
                        f"{kind} reference {ref!r} resolves to nothing")
                for kind, ref in binding.dangling_refs]
    dangles = {kind for kind, _ in binding.dangling_refs}

    scheme, ref = binding.scheme, binding.scheme_ref
    if ref is None and binding.token is None:
        findings.append(Finding(ERROR, "E-SCHEME-KIND", context,
                                "binding declares neither a scheme reference nor "
                                "an inline token"))
    elif ref is not None and scheme is None and "scheme" not in dangles:
        findings.append(Finding(ERROR, "E-SCHEME-KIND", context,
                                f"{ref!r} does not target a security scheme"))
    elif scheme is not None and not scheme.is_object_auth:
        findings.append(Finding(ERROR, "E-SCHEME-KIND", context,
                                f"referenced scheme {scheme.name!r} is "
                                f"{scheme.kind.value}, not an "
                                f"object-authorization scheme"))

    if binding.object_id_ref is None:
        findings.append(Finding(ERROR, "E-OBJECT-REF", context,
                                "binding declares no object identifier reference"))
    elif "object" not in dangles and not _is_primitive_property(binding.object_target):
        findings.append(Finding(ERROR, "E-OBJECT-REF", context,
                                f"object reference {binding.object_id_ref!r} "
                                f"must target a primitive-typed property"))

    for key in binding.invalid_scope_keys:
        findings.append(Finding(ERROR, "E-SCOPE-ACTION", context,
                                f"scope key {key!r} is not a CRUD action"))
    if not binding.actions:
        findings.append(Finding(ERROR, "E-SCOPE-ACTION", context,
                                "binding declares no valid CRUD action scopes"))
    return findings


def _is_primitive_property(node: Any) -> bool:
    return isinstance(node, Mapping) and node.get("type") in PRIMITIVE_TYPES


def _check_paths(doc: EssDocument) -> list[Finding]:
    findings = []
    for path, item in doc.paths.items():
        context = pointer_for_path(path)
        root_bound = (item.binding is not None
                      and item.binding.placement is Placement.ROOT_LEVEL)

        if path.splitlines() != [path] or path.strip() != path:
            findings.append(Finding(ERROR, "E-PATH-KEY", context,
                                    f"path {path!r} holds a line break or ends "
                                    f"in whitespace, which a stub's '# route:' "
                                    f"header cannot carry"))

        if item.x_objects_ref is not None and not root_bound:
            findings.append(Finding(ERROR, "E-OBJECT-REF", context,
                                    f"x-objects reference {item.x_objects_ref!r} "
                                    f"must target a schema's object-authorization "
                                    f"node"))

        # One binding per path: a root binding shadows method-level ones, and
        # divergent method-level bindings on a single path conflict.
        method_bindings = list(item.method_bindings.values())
        if root_bound:
            for binding in method_bindings:
                findings.append(Finding(ERROR, "E-OBJECT-REF", binding.context,
                                        f"path {path!r} is already bound via "
                                        f"x-objects"))
        elif len(method_bindings) > 1:
            first_key = method_bindings[0].structural_key()
            for binding in method_bindings[1:]:
                if binding.structural_key() != first_key:
                    findings.append(Finding(ERROR, "E-OBJECT-REF", binding.context,
                                            f"path {path!r} carries conflicting "
                                            f"method-level bindings"))

        if not root_bound and not method_bindings and item.x_objects_ref is None:
            referenced = _referenced_schemas(item.operations)
            if referenced:
                names = ", ".join(sorted(referenced))
                findings.append(Finding(WARNING, "W-BOLA-UNBOUND", context,
                                        f"path handles object schema(s) {names} "
                                        f"but declares no object-authorization "
                                        f"binding"))
    return findings


def _referenced_schemas(operations: Mapping[str, Any]) -> set[str]:
    """Schema names referenced from request bodies / responses of the operations."""
    names: set[str] = set()

    def scan(node: Any) -> None:
        if isinstance(node, Mapping):
            ref = node.get("$ref")
            if isinstance(ref, str) and ref.startswith("#/components/schemas/"):
                remainder = ref[len("#/components/schemas/"):]
                names.add(remainder.split("/")[0])
            for value in node.values():
                scan(value)
        elif isinstance(node, list):
            for value in node:
                scan(value)

    for op in operations.values():
        if isinstance(op, Mapping):
            scan(op.get("requestBody"))
            scan(op.get("responses"))
    return names


def _check_duplicates(doc: EssDocument) -> list[Finding]:
    """Flag repeated, structurally identical method-level bindings."""
    groups: dict[str, list[ObjectAuthBinding]] = {}
    for item in doc.paths.values():
        for binding in item.method_bindings.values():
            groups.setdefault(binding.structural_key(), []).append(binding)
    findings = []
    for members in groups.values():
        for binding in members[1:]:
            findings.append(Finding(WARNING, "W-ESS-DUPLICATE", binding.context,
                                    f"method-level binding repeats "
                                    f"{members[0].context} verbatim"))
    return findings


__all__ = [
    "Finding", "validate", "classify_design", "has_errors",
    "render_text", "render_json", "CODES", "ERROR", "WARNING",
]
