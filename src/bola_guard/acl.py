"""Access control entries: one record per object, owner plus RO/RW user lists."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import NotOwnerError


@dataclass(frozen=True)
class AccessControlEntry:
    id: int
    path: str
    owner: str
    users_ro: tuple[str, ...] = ()
    users_rw: tuple[str, ...] = ()

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("object id must be non-negative")
        if self.owner not in self.users_rw:
            object.__setattr__(self, "users_rw", (self.owner,) + tuple(self.users_rw))
        if not set(self.users_rw).isdisjoint(self.users_ro):
            raise ValueError("users_ro and users_rw must be disjoint")

    @classmethod
    def for_new_object(cls, object_id: int, path: str, owner: str) -> AccessControlEntry:
        """Entry created at object creation: the creator is the owner with RW."""
        return cls(id=object_id, path=path, owner=owner)

    def can_read(self, user_id: str) -> bool:
        return user_id in self.users_rw or user_id in self.users_ro

    def readers(self) -> tuple[str, ...]:
        """Every user for whom :meth:`can_read` holds (the owner is in
        ``users_rw``)."""
        return self.users_rw + self.users_ro

    def can_write(self, user_id: str) -> bool:
        return user_id in self.users_rw

    def to_record(self) -> dict:
        """Wire shape; the key order is part of the journal format."""
        return {
            "id": self.id,
            "path": self.path,
            "owner": self.owner,
            "users_ro": list(self.users_ro),
            "users_rw": list(self.users_rw),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record())

    @classmethod
    def from_record(cls, record: dict) -> AccessControlEntry:
        """The entry a journal record holds; a :class:`ValueError` when its
        id is not an int, its path, owner or a user not a string, or a user
        list not a list."""
        if type(record["id"]) is not int:
            raise ValueError("id must be an integer")
        users_ro, users_rw = record.get("users_ro", []), record.get("users_rw", [])
        if not (isinstance(users_ro, list) and isinstance(users_rw, list)):
            raise ValueError("users_ro and users_rw must be lists")
        if not all(isinstance(text, str) for text
                   in (record["path"], record["owner"], *users_ro, *users_rw)):
            raise ValueError("path, owner and every user must be strings")
        return cls(
            id=record["id"],
            path=record["path"],
            owner=record["owner"],
            users_ro=tuple(users_ro),
            users_rw=tuple(users_rw),
        )


def apply_grant(ace: AccessControlEntry, actor_user_id: str, grantee: str,
                level: str) -> AccessControlEntry:
    """Owner-only grant of ``ro``/``rw`` to ``grantee``.

    Moving a user between lists removes them from the other first; the owner
    can never be downgraded or removed, so granting to the owner is a no-op.
    """
    if level not in ("ro", "rw"):
        raise ValueError(f"level must be 'ro' or 'rw', got {level!r}")
    if actor_user_id != ace.owner:
        raise NotOwnerError(f"user {actor_user_id!r} does not own object "
                            f"{ace.id} at {ace.path}")
    if grantee == ace.owner:
        return ace
    ro = [u for u in ace.users_ro if u != grantee]
    rw = [u for u in ace.users_rw if u != grantee]
    if level == "ro":
        ro.append(grantee)
    else:
        rw.append(grantee)
    return replace(ace, users_ro=tuple(ro), users_rw=tuple(rw))
