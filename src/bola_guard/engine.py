"""Runtime authorization decisions, one per request: group rules first, then
object ownership. A decision is a reason, the allow or deny that reason
implies, and the rule that matched. The pipeline for (path, action):

1. Find the matching rule of the requester's groups for (path, action)
   (:func:`~bola_guard.rules.matching_rule`). No rule means deny
   (``no_group_rule``); nothing is implicit.
2. A rule that waives ownership grants at once (``group_grant``); the ACL is
   not consulted. So does any rule for a creation, which has no owner yet:
   the handler records the creator as owner afterwards, via
   :meth:`AuthzEngine.record_creation`, once it has assigned an id.
3. A rule that requires ownership needs proof from the ACL entry of
   (path, object id): the owner always qualifies; otherwise reads need
   membership in the RO or RW list and writes need the RW list. A missing
   entry denies, since ownership cannot be proven.

A listing is a read of the whole path (``object_id`` None) and stops before
step 3: an own-only rule grants ``ownership_grant``, and the caller sees only
the objects the ACL store's reader index lists for them.

ACL inspection needs :data:`ADMIN_GROUP`, whatever the rule table says.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .acl import AccessControlEntry, apply_grant
from .actions import Action
from .errors import DuplicateObjectError, NoSuchObjectError
from .rules import GroupRule, GroupRuleSet, matching_rule
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
        if self.allowed != (self.reason in _ALLOW_REASONS):
            raise ValueError(f"reason {self.reason.value} cannot accompany "
                             f"{'an allow' if self.allowed else 'a deny'}")


class AuthzEngine:
    """Decision core bound to one rule set and one ACL store."""

    def __init__(self, rules: GroupRuleSet, store: AclStore):
        self.rules = rules
        self.store = store

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
        """Decide an action on one object, or with ``object_id`` None a
        creation or a read of every object of ``path``."""
        if object_id is None and action in (Action.UPDATE, Action.DELETE):
            raise ValueError(f"{action.value} needs an object id")
        if object_id is not None and action is Action.CREATE:
            raise ValueError("a creation has no object id yet")
        rule = matching_rule(self.rules, token.groups, path, action)
        if rule is None:
            return AuthzDecision(False, DecisionReason.NO_GROUP_RULE)
        if not rule.ownership_required or action is Action.CREATE:
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
