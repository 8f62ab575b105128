"""Object-level authorization toolkit for OpenAPI services.

Parses and validates the object-authorization security extensions, enforces
per-object access at runtime through auto-created ACLs, and translates between
annotated specifications and server stubs.
"""

from .actions import Action
from .errors import (
    BolaGuardError,
    CorruptJournalError,
    CyclicRefError,
    DanglingRefError,
    DocumentSyntaxError,
    DuplicateObjectError,
    MarkerSyntaxError,
    NoStubFoundError,
    NoSuchObjectError,
    NotOwnerError,
    RuleSetError,
    StorageError,
    StructureError,
    StubInconsistentError,
    TokenExpired,
    TokenInvalid,
    ValidationFailedError,
)
from .model import (
    EssDocument,
    ObjectAuthBinding,
    PathItem,
    Placement,
    SchemeKind,
    SecurityScheme,
    emit_document,
    parse_document,
    resolve_ref,
)
from .validator import Finding, classify_design, has_errors, validate
from .tokens import AuthToken, issue_token, verify_token
from .rules import (
    GroupRule,
    GroupRuleSet,
    default_rule_set,
    load_rules,
    matching_rule,
)
from .acl import AccessControlEntry, apply_grant
from .engine import AuthzDecision, AuthzEngine, DecisionReason
from .store import AclStore, ObjectStore
from .generator import (
    StubManifest,
    roundtrip_check,
    spec_to_stub,
    stub_to_spec,
)
from .service import ReferenceService, ServiceConfig

__version__ = "0.1.0"

__all__ = [
    "AccessControlEntry",
    "AclStore",
    "Action",
    "AuthToken",
    "AuthzDecision",
    "AuthzEngine",
    "BolaGuardError",
    "CorruptJournalError",
    "CyclicRefError",
    "DanglingRefError",
    "DecisionReason",
    "DocumentSyntaxError",
    "DuplicateObjectError",
    "EssDocument",
    "Finding",
    "GroupRule",
    "GroupRuleSet",
    "MarkerSyntaxError",
    "NoStubFoundError",
    "NoSuchObjectError",
    "NotOwnerError",
    "ObjectAuthBinding",
    "ObjectStore",
    "PathItem",
    "Placement",
    "ReferenceService",
    "RuleSetError",
    "SchemeKind",
    "SecurityScheme",
    "ServiceConfig",
    "StorageError",
    "StructureError",
    "StubInconsistentError",
    "StubManifest",
    "TokenExpired",
    "TokenInvalid",
    "ValidationFailedError",
    "apply_grant",
    "classify_design",
    "default_rule_set",
    "emit_document",
    "has_errors",
    "issue_token",
    "load_rules",
    "matching_rule",
    "parse_document",
    "resolve_ref",
    "roundtrip_check",
    "spec_to_stub",
    "stub_to_spec",
    "validate",
    "verify_token",
    "__version__",
]
