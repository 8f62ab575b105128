"""Collection listings (``GET /<dir>``) against a brute-force filter.

The service answers a listing from the stores' per-path buckets and the ACL
reader index. These tests hold it to the per-object rule: a listing holds
exactly the stored objects that ``oracle_access`` lets the caller read, in id
order, whatever sequence of creations, deletions, grants, orphans,
compactions and reopens came before.
"""

import json
import sys
import tempfile
import threading
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from bola_guard import AccessControlEntry

from oracle import default_rule_rows, oracle_access
from test_service import KEY, NOW, build_service, request, token

PATHS = ("/pet", "/user")
USERS = ("a", "b", "c")
CREATOR_GROUP = {"/pet": "G21", "/user": "G11"}

# Own-only, any-reader, both, and no rule at all, on each path.
LISTERS = [
    ("a", {"G21"}), ("b", {"G21"}), ("a", {"G11"}), ("c", {"G11"}),
    ("c", {"G22"}), ("a", {"G21", "G22"}), ("b", {"G11", "G21"}),
    ("c", {"G23"}), ("c", set()),
]


def expected_listing(objects, aces, path, user, groups):
    """Status and payload, as ``json.dumps`` writes the list of views, by
    brute force over every stored object."""
    rows = default_rule_rows()
    if not any(row["path"] == path and row["group"] in groups
               and "read" in row["actions"] for row in rows):
        return 403, None
    visible = [{"id": object_id, **body}
               for (p, object_id), body in sorted(objects.items())
               if p == path and oracle_access(rows, groups, path, "read", user,
                                              aces.get((path, object_id)))]
    return 200, json.dumps(visible).encode()


operations = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(PATHS),
              st.sampled_from(USERS), st.integers(0, 99)),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("grant"), st.integers(0, 10_000),
              st.sampled_from(USERS), st.sampled_from(("ro", "rw"))),
    st.tuples(st.just("orphan_ace"), st.sampled_from(PATHS),
              st.sampled_from(USERS)),
    st.tuples(st.just("orphan_object"), st.sampled_from(PATHS),
              st.integers(0, 99)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("reopen")),
)


class Run:
    """Applies operations to a service and to plain-dict mirrors of what its
    two journals should hold."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.service = build_service(directory)
        self.objects: dict[tuple[str, int], dict] = {}
        self.aces: dict[tuple[str, int], dict] = {}

    def apply(self, op) -> None:
        getattr(self, f"_{op[0]}")(*op[1:])

    def _create(self, path, user, n):
        response = request(self.service, "POST", path,
                           token(user, {CREATOR_GROUP[path]}), {"n": n})
        assert response.status == 201
        key = (path, response.body["id"])
        self.objects[key] = {"n": n}
        self.aces[key] = {"owner": user, "users_ro": [], "users_rw": [user]}

    def _delete(self, pick):
        keys = sorted(self.objects.keys() | self.aces.keys())
        if not keys:
            return
        path, object_id = keys[pick % len(keys)]
        ace = self.aces.get((path, object_id))
        if (path, object_id) in self.objects and ace is not None:
            owner = token(ace["owner"], {CREATOR_GROUP[path]})
            assert request(self.service, "DELETE", f"{path}/{object_id}",
                           owner).status == 204
        elif (path, object_id) in self.objects:
            self.service.objects.delete(path, object_id)
        else:
            self.service.engine.store.delete(path, object_id)
        self.objects.pop((path, object_id), None)
        self.aces.pop((path, object_id), None)

    def _grant(self, pick, grantee, level):
        keys = sorted(self.aces)
        if not keys:
            return
        path, object_id = keys[pick % len(keys)]
        ace = self.aces[(path, object_id)]
        self.service.engine.grant(ace["owner"], object_id, path, grantee, level)
        if grantee != ace["owner"]:
            ro = [u for u in ace["users_ro"] if u != grantee]
            rw = [u for u in ace["users_rw"] if u != grantee]
            (ro if level == "ro" else rw).append(grantee)
            self.aces[(path, object_id)] = {**ace, "users_ro": ro,
                                            "users_rw": rw}

    def _fresh_id(self, path):
        return max(self.service.engine.store.next_id(path),
                   self.service.objects.next_id(path))

    def _orphan_ace(self, path, user):
        object_id = self._fresh_id(path)
        self.service.engine.store.put(
            AccessControlEntry.for_new_object(object_id, path, user))
        self.aces[(path, object_id)] = {"owner": user, "users_ro": [],
                                        "users_rw": [user]}

    def _orphan_object(self, path, n):
        object_id = self._fresh_id(path)
        self.service.objects.put({"id": object_id, "path": path,
                                  "body": {"n": n}})
        self.objects[(path, object_id)] = {"n": n}

    def _compact(self):
        self.service.engine.store.compact()
        self.service.objects.compact()

    def _reopen(self):
        self.service.close()
        self.service = build_service(self.directory)

    def check(self) -> None:
        acl, objects = self.service.engine.store, self.service.objects
        assert {(a.path, a.id): {"owner": a.owner, "users_ro": list(a.users_ro),
                                 "users_rw": list(a.users_rw)}
                for a in acl.entries()} == self.aces
        assert {(o["path"], o["id"]): o["body"]
                for o in objects.entries()} == self.objects
        for path in PATHS:
            for user, groups in LISTERS:
                response = request(self.service, "GET", path,
                                   token(user, groups))
                payload = response.payload if response.status == 200 else None
                assert (response.status, payload) == \
                    expected_listing(self.objects, self.aces, path, user,
                                     groups), \
                    (path, user, sorted(groups))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(operations, max_size=25))
def test_listings_equal_the_brute_force_filter(ops):
    with tempfile.TemporaryDirectory() as directory:
        run = Run(Path(directory))
        try:
            run.check()
            for op in ops:
                run.apply(op)
                run.check()
        finally:
            run.service.close()


OWNERS = ("a", "b", "c")
# No rule, own-only, any-reader, delete-only, and own-only plus any-reader.
CALLER_GROUPS = [set(), {"G21"}, {"G22"}, {"G23"}, {"G21", "G22"}]

pet_steps = st.lists(st.one_of(
    st.tuples(st.just("create"), st.sampled_from(OWNERS), st.integers(0, 9)),
    st.tuples(st.just("grant"), st.integers(0, 99), st.sampled_from(OWNERS),
              st.sampled_from(("ro", "rw"))),
    st.tuples(st.just("delete"), st.integers(0, 99), st.booleans()),
), max_size=12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pet_steps)
def test_a_listing_holds_exactly_the_objects_each_read_returns(steps):
    """Metamorphic: for every caller, ``GET /pet`` lists, in id order, the
    bodies of exactly the ids whose ``GET /pet/{id}`` is 200. The two are
    decided by different engine calls and served from different indexes."""
    with tempfile.TemporaryDirectory() as directory:
        service = build_service(Path(directory))
        try:
            owners = {}
            for step in steps:
                live = sorted(owners)
                if step[0] == "create":
                    _, owner, n = step
                    response = request(service, "POST", "/pet",
                                       token(owner, {"G21"}), {"n": n})
                    owners[response.body["id"]] = owner
                elif live and step[0] == "grant":
                    _, pick, grantee, level = step
                    object_id = live[pick % len(live)]
                    service.engine.grant(owners[object_id], object_id, "/pet",
                                         grantee, level)
                elif live:
                    _, pick, by_owner = step
                    object_id = live[pick % len(live)]
                    deleter = (token(owners.pop(object_id), {"G21"}) if by_owner
                               else token(owners.pop(object_id) + "x", {"G23"}))
                    assert request(service, "DELETE", f"/pet/{object_id}",
                                   deleter).status == 204
            ids = range(1, service.engine.store.next_id("/pet") + 1)
            for user in OWNERS + ("d",):
                for groups in CALLER_GROUPS:
                    caller = token(user, groups)
                    listing = request(service, "GET", "/pet", caller)
                    reads = [request(service, "GET", f"/pet/{object_id}", caller)
                             for object_id in ids]
                    listed = listing.body if listing.status == 200 else []
                    assert listed == [r.body for r in reads if r.status == 200], \
                        (user, sorted(groups))
        finally:
            service.close()


def test_orphans_and_order(tmp_path):
    service = build_service(tmp_path)
    try:
        owner = token("a", {"G21"})
        for n in range(3):
            request(service, "POST", "/pet", owner, {"n": n})
        service.engine.store.put(AccessControlEntry.for_new_object(4, "/pet", "a"))
        service.objects.put({"id": 5, "path": "/pet", "body": {"n": 5}})
        service.objects.delete("/pet", 2)

        mine = request(service, "GET", "/pet", owner)
        assert [o["id"] for o in mine.body] == [1, 3]
        reader = request(service, "GET", "/pet", token("c", {"G22"}))
        assert [o["id"] for o in reader.body] == [1, 3, 5]
    finally:
        service.close()


def test_listings_never_fail_while_writers_create_delete_and_grant(tmp_path):
    service = build_service(tmp_path)
    readers = ("r0", "r1")
    writers = ("w0", "w1")
    created = {w: set() for w in writers}
    granted = {r: set() for r in readers}
    listers = [("w0", {"G21"}), ("r0", {"G21"}), ("r1", {"G21"}),
               ("g", {"G22"})]
    seen = {user: set() for user, _ in listers}
    errors = []
    done = threading.Event()

    def writer(user):
        tok = token(user, {"G21"})
        try:
            for i in range(150):
                response = request(service, "POST", "/pet", tok, {"i": i})
                object_id = response.body["id"]
                created[user].add(object_id)
                grantee = readers[i % 2]
                granted[grantee].add(object_id)
                service.engine.grant(user, object_id, "/pet", grantee, "ro")
                if i % 3 == 0:
                    # Moving a reader between the lists keeps them a reader.
                    service.engine.grant(user, object_id, "/pet", grantee, "rw")
                if i % 4 == 3:
                    # Add the other reader, then drop an older object.
                    granted[readers[(i + 1) % 2]].add(object_id)
                    service.engine.grant(user, object_id, "/pet",
                                         readers[(i + 1) % 2], "rw")
                    victim = object_id - 2
                    if victim in created[user]:
                        assert request(service, "DELETE", f"/pet/{victim}",
                                       tok).status == 204
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(("writer", user, repr(exc)))

    def lister(user, groups):
        tok = token(user, groups)
        while not done.is_set():
            try:
                response = request(service, "GET", "/pet", tok)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(("lister", user, repr(exc)))
                return
            if response.status != 200:
                errors.append(("lister", user, response.status))
                return
            ids = [o["id"] for o in response.body]
            if ids != sorted(set(ids)):
                errors.append(("lister", user, "unordered", ids))
            seen[user].update(ids)

    write_threads = [threading.Thread(target=writer, args=(w,)) for w in writers]
    list_threads = [threading.Thread(target=lister, args=spec) for spec in listers]
    # Switch threads often, so that a listing that iterated a live bucket or
    # reader set would be caught in the middle of it.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in write_threads + list_threads:
            t.start()
        for t in write_threads:
            t.join(timeout=60)
        done.set()
        for t in list_threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in write_threads + list_threads)
    service.close()

    assert errors == []
    # Every listed id was readable by that caller at some point in the run.
    assert seen["w0"] <= created["w0"]
    for reader in readers:
        assert seen[reader] <= granted[reader]
    assert seen["g"] <= created["w0"] | created["w1"]
    assert seen["g"]
