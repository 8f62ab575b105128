"""CRUD action vocabulary and its fixed HTTP-verb / letter aliases."""

from __future__ import annotations

from enum import Enum


class Action(str, Enum):
    CREATE = "create"
    READ = "read"
    UPDATE = "update"
    DELETE = "delete"


# Verb mapping is fixed: POST=create, GET=read, PUT=update, DELETE=delete.
VERB_TO_ACTION: dict[str, Action] = {
    "post": Action.CREATE,
    "get": Action.READ,
    "put": Action.UPDATE,
    "delete": Action.DELETE,
}

LETTER_TO_ACTION: dict[str, Action] = {
    "C": Action.CREATE,
    "R": Action.READ,
    "U": Action.UPDATE,
    "D": Action.DELETE,
}

# All verbs that may carry an operation in a path item, in the canonical order
# used wherever route methods are serialized; only the four above map to actions.
VERB_ORDER = ("post", "get", "put", "delete", "patch", "head", "options", "trace")


def action_for_key(key: str) -> Action | None:
    """Map a scope key (verb or C/R/U/D letter, any case) to an action."""
    lowered = key.lower()
    if lowered in VERB_TO_ACTION:
        return VERB_TO_ACTION[lowered]
    return LETTER_TO_ACTION.get(key.upper())


def parse_action(value: str) -> Action:
    try:
        return Action(value.lower())
    except ValueError:
        raise ValueError(f"unknown action {value!r}; expected one of "
                         f"{[a.value for a in Action]}") from None
