"""Path-based group rules and the one rule that decides a request.

Each rule grants a group a set of CRUD actions on one path template, with an
ownership flag: when ownership is required, group membership alone only grants
access to objects the requester owns or is listed on. When several of the
requester's groups match the same (path, action) with different ownership
flags, the rule *not* requiring ownership wins: permissions only ever widen.
Everything else is deny-by-default.

Rule files are YAML/JSON lists of ``{path, group, actions, ownership}``:
string path and group, a list of action names, and an optional boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable

from .actions import Action, parse_action
from .errors import DocumentSyntaxError, RuleSetError
from .model import decode


@dataclass(frozen=True)
class GroupRule:
    path: str
    group: str
    actions: frozenset[Action]
    ownership_required: bool

    def __post_init__(self):
        if not self.actions:
            raise RuleSetError(f"rule ({self.path}, {self.group}) has no actions")
        if not self.path.startswith("/"):
            raise RuleSetError(f"rule path {self.path!r} must begin with '/'")


class GroupRuleSet:
    """Rules with at most one per (path, group), kept in rule-set order and
    indexed by (path, action), waiving rules first."""

    def __init__(self, rules: Iterable[GroupRule] = ()):
        self.rules: list[GroupRule] = []
        self._pairs: set[tuple[str, str]] = set()
        self._granting: dict[tuple[str, Action], list[GroupRule]] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: GroupRule) -> None:
        key = (rule.path, rule.group)
        if key in self._pairs:
            raise RuleSetError(f"duplicate rule for path={rule.path!r} "
                               f"group={rule.group!r}")
        self._pairs.add(key)
        self.rules.append(rule)
        for action in rule.actions:
            granting = self._granting.setdefault((rule.path, action), [])
            granting.append(rule)
            # Stable: rule-set order holds within the waiving and own-only parts.
            granting.sort(key=lambda r: r.ownership_required)

    def paths(self) -> set[str]:
        return {rule.path for rule in self.rules}

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def matching_rule(rules: GroupRuleSet, groups: Collection[str], path: str,
                  action: Action) -> GroupRule | None:
    """The widest rule any of the groups holds for (path, action): in
    rule-set order, the first rule of a held group that waives ownership,
    else the first one that requires it, else None (deny)."""
    for rule in rules._granting.get((path, action), ()):
        if rule.group in groups:
            return rule
    return None


_RULE_FIELDS = {"path": str, "group": str, "actions": list, "ownership": bool}


def load_rules(path: str | Path) -> GroupRuleSet:
    """Load a rule file (YAML or JSON list of rule objects); ``ownership``
    defaults to true, and any other shape is a :class:`RuleSetError`."""
    try:
        data = decode(Path(path).read_text(encoding="utf-8"))
    except DocumentSyntaxError as exc:
        raise RuleSetError(f"rule file {path}: {exc}") from exc
    if data is None:
        data = []
    if not isinstance(data, list):
        raise RuleSetError(f"rule file {path} must contain a list of rules")
    rules = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise RuleSetError(f"rule #{i} must be a mapping")
        entry = {"ownership": True, **entry}
        for key, kind in _RULE_FIELDS.items():
            if key not in entry:
                raise RuleSetError(f"rule #{i} is missing key {key!r}")
            if not isinstance(entry[key], kind):
                raise RuleSetError(f"rule #{i}: {key} must be a {kind.__name__}")
        if not all(isinstance(action, str) for action in entry["actions"]):
            raise RuleSetError(f"rule #{i}: actions must be strings")
        try:
            rules.append(GroupRule(
                path=entry["path"],
                group=entry["group"],
                actions=frozenset(parse_action(a) for a in entry["actions"]),
                ownership_required=entry["ownership"],
            ))
        except ValueError as exc:
            raise RuleSetError(f"rule #{i}: {exc}") from exc
    return GroupRuleSet(rules)


def default_rule_set() -> GroupRuleSet:
    """The stock two-directory rule table.

    G11 owns its /user objects end to end; G21 likewise on /pet; G22 may read
    any /pet object; G23 may delete any /pet object.
    """
    crud = frozenset(Action)
    return GroupRuleSet([
        GroupRule("/user", "G11", crud, ownership_required=True),
        GroupRule("/pet", "G21", crud, ownership_required=True),
        GroupRule("/pet", "G22", frozenset({Action.READ}), ownership_required=False),
        GroupRule("/pet", "G23", frozenset({Action.DELETE}), ownership_required=False),
    ])
