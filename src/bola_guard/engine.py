"""Runtime authorization decisions, one per request: group rules first, then
object ownership. The decision pipeline for an object access:

1. Compute the effective permission of the requester's groups for
   (path, action). No matching rule means deny; nothing is implicit.
2. ``allow_any`` (some matching rule waives ownership) grants immediately;
   the ACL is not consulted.
3. ``allow_own_only`` requires proof via the ACL entry of (path, object id):
   the owner always qualifies; otherwise reads need membership in the RO or
   RW list and writes need the RW list. A missing entry denies, since
   ownership cannot be proven.

A listing is a read of the whole path (``object_id`` None) and stops after
step 2: ``allow_own_only`` grants ``ownership_grant``, and the caller sees
only the objects the ACL store's reader index lists for them.

Creations are group-gated only; the ACL entry is recorded afterwards via
:meth:`AuthzEngine.record_creation` once the handler has assigned an id.
ACL inspection needs :data:`ADMIN_GROUP`, whatever the rule table says.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .acl import AccessControlEntry, apply_grant
from .actions import Action
from .errors import DuplicateObjectError, NoSuchObjectError
from .rules import GroupRule, GroupRuleSet, Permission, effective_permission
from .store import AclStore
from .tokens import AuthToken

ADMIN_GROUP = "admin"


class DecisionReason(str, Enum):
    GROUP_GRANT = "group_grant"
    OWNERSHIP_GRANT = "ownership_grant"
    ACL_GRANT = "acl_grant"
    NO_GROUP_RULE = "no_group_rule"
    NOT_OWNER = "not_owner"
    TOKEN_INVALID = "token_invalid"
    NO_SUCH_OBJECT = "no_such_object"


_ALLOW_REASONS = {
    DecisionReason.GROUP_GRANT,
    DecisionReason.OWNERSHIP_GRANT,
    DecisionReason.ACL_GRANT,
}


@dataclass(frozen=True)
class AuthzDecision:
    allowed: bool
    reason: DecisionReason
    matched_rule: GroupRule | None = None

    def __post_init__(self):
        if self.allowed and self.reason not in _ALLOW_REASONS:
            raise ValueError(f"reason {self.reason} cannot accompany an allow")


class AuthzEngine:
    """Decision core bound to one rule set and one ACL store."""

    def __init__(self, rules: GroupRuleSet, store: AclStore):
        self.rules = rules
        self.store = store

    def authorize_create(self, token: AuthToken, path: str) -> AuthzDecision:
        """Group check for POST; the ACL entry is recorded separately."""
        permission, rule = effective_permission(self.rules, token.groups, path,
                                                Action.CREATE)
        if permission is Permission.DENY:
            return AuthzDecision(False, DecisionReason.NO_GROUP_RULE)
        return AuthzDecision(True, DecisionReason.GROUP_GRANT, rule)

    def record_creation(self, token: AuthToken, path: str,
                        object_id: int) -> AccessControlEntry:
        """Persist the creator as owner of a newly created object."""
        if self.store.get(path, object_id) is not None:
            raise DuplicateObjectError(
                f"object id={object_id} already exists at {path!r}")
        ace = AccessControlEntry.for_new_object(object_id, path, token.user_id)
        return self.store.put(ace)

    def authorize_access(self, token: AuthToken, path: str, action: Action,
                         object_id: int | None) -> AuthzDecision:
        """Decide read/update/delete on one object, or with ``object_id``
        None a read of every object of ``path``."""
        if action is Action.CREATE:
            raise ValueError("use authorize_create for creations")
        if object_id is None and action is not Action.READ:
            raise ValueError(f"{action.value} needs an object id")
        permission, rule = effective_permission(self.rules, token.groups, path,
                                                action)
        if permission is Permission.DENY:
            return AuthzDecision(False, DecisionReason.NO_GROUP_RULE)
        if permission is Permission.ALLOW_ANY:
            return AuthzDecision(True, DecisionReason.GROUP_GRANT, rule)
        if object_id is None:
            # Each listed object is proven by the reader index instead.
            return AuthzDecision(True, DecisionReason.OWNERSHIP_GRANT, rule)

        # Ownership required: prove it through the ACL entry.
        ace = self.store.get(path, object_id)
        if ace is None:
            return AuthzDecision(False, DecisionReason.NO_SUCH_OBJECT, rule)
        if token.user_id == ace.owner:
            return AuthzDecision(True, DecisionReason.OWNERSHIP_GRANT, rule)
        listed = (ace.can_read(token.user_id) if action is Action.READ
                  else ace.can_write(token.user_id))
        if listed:
            return AuthzDecision(True, DecisionReason.ACL_GRANT, rule)
        return AuthzDecision(False, DecisionReason.NOT_OWNER, rule)

    def authorize_admin(self, token: AuthToken) -> AuthzDecision:
        """Decide ACL inspection: members of :data:`ADMIN_GROUP` only."""
        if ADMIN_GROUP in token.groups:
            return AuthzDecision(True, DecisionReason.GROUP_GRANT)
        return AuthzDecision(False, DecisionReason.NO_GROUP_RULE)

    def grant(self, actor_id: str, object_id: int, path: str, grantee: str,
              level: str) -> AccessControlEntry:
        """Owner ``actor_id`` extends RO/RW access to another user; persisted
        immediately, and only when the entry changes."""
        ace = self.store.get(path, object_id)
        if ace is None:
            raise NoSuchObjectError(f"no object id={object_id} at {path!r}")
        updated = apply_grant(ace, actor_id, grantee, level)
        if updated != ace:
            return self.store.put(updated)
        return ace
