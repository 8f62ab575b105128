import json
import logging
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bola_guard import (
    AccessControlEntry,
    AclStore,
    AuthzEngine,
    CorruptJournalError,
    NoSuchObjectError,
    NotOwnerError,
    ObjectStore,
    default_rule_set,
)
from bola_guard.model import MAX_DEPTH


def ace(object_id, path="/pets", owner="123", ro=(), rw=None):
    return AccessControlEntry(id=object_id, path=path, owner=owner,
                              users_ro=tuple(ro),
                              users_rw=tuple(rw) if rw else (owner,))


# Keys that neither journal ever writes: ids that are not non-negative ints
# (``int()`` would read them as -3, 2, 1 and 7), and a tombstone whose path
# is not a string.
ILL_TYPED_KEYS = [
    {"id": -3},
    {"id": 2.9},
    {"id": True},
    {"id": "7"},
    {"op": "del", "id": 1, "path": 5},
]


class TestBasics:
    def test_fresh_path_opens_empty(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            assert len(store) == 0
            assert store.entries() == []

    def test_put_then_get(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            store.put(ace(152))
            assert store.get("/pets", 152) == ace(152)

    def test_missing_key_is_absent(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            assert store.get("/pets", 999) is None

    def test_upsert_returns_latest(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            store.put(ace(152))
            store.put(ace(152, ro=["456"]))
            assert store.get("/pets", 152).users_ro == ("456",)

    def test_delete_then_get_is_absent(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            store.put(ace(152))
            store.delete("/pets", 152)
            assert store.get("/pets", 152) is None

    def test_delete_missing_raises(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            with pytest.raises(NoSuchObjectError):
                store.delete("/pets", 152)

    def test_entries_sorted_by_path_then_id(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            store.put(ace(2, path="/pets"))
            store.put(ace(1, path="/users"))
            store.put(ace(1, path="/pets"))
            keys = [(a.path, a.id) for a in store.entries()]
            assert keys == [("/pets", 1), ("/pets", 2), ("/users", 1)]


class TestReplay:
    def test_reopen_replays_all_records(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            for i in range(1, 4):
                store.put(ace(i))
        with AclStore.open(location) as store:
            assert len(store) == 3
            assert store.journal_position == 3

    def test_delete_survives_reopen(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
            store.put(ace(2))
            store.delete("/pets", 1)
        with AclStore.open(location) as store:
            assert store.get("/pets", 1) is None
            assert store.get("/pets", 2) == ace(2)

    def test_disk_records_use_the_wire_shape(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            entry = ace(152)
            store.put(entry)
        line = location.read_text().splitlines()[0]
        assert line == entry.to_json()
        assert list(json.loads(line)) == ["id", "path", "owner",
                                          "users_ro", "users_rw"]

    def test_a_blank_line_between_records_is_skipped(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
            store.put(ace(2))
        first, second = location.read_bytes().splitlines(keepends=True)
        location.write_bytes(first + b"\n  \n" + second)
        with AclStore.open(location) as store:
            assert [a.id for a in store.entries()] == [1, 2]
            assert store.journal_position == 2
            store.put(ace(3))
        with AclStore.open(location) as store:
            assert [a.id for a in store.entries()] == [1, 2, 3]

    def test_truncated_tail_recovers_prefix_with_warning(self, tmp_path, caplog):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
            store.put(ace(2))
        data = location.read_bytes()
        location.write_bytes(data[:-9])  # cut into the final record
        with caplog.at_level(logging.WARNING):
            with AclStore.open(location) as store:
                assert len(store) == 1
                assert store.get("/pets", 1) == ace(1)
        assert any("partial trailing record" in r.message for r in caplog.records)

    def test_recovered_journal_accepts_new_appends(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
            store.put(ace(2))
        location.write_bytes(location.read_bytes()[:-5])
        with AclStore.open(location) as store:
            store.put(ace(3))
        with AclStore.open(location) as store:
            assert {a.id for a in store.entries()} == {1, 3}

    def test_damage_before_the_tail_is_fatal(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
            store.put(ace(2))
        lines = location.read_bytes().splitlines(keepends=True)
        location.write_bytes(lines[0][:10] + b"\n" + lines[1])
        with pytest.raises(CorruptJournalError):
            AclStore.open(location)

    def test_wrong_schema_record_is_fatal(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        location.write_text('{"unexpected": true}\n', encoding="utf-8")
        with pytest.raises(CorruptJournalError):
            AclStore.open(location)

    @pytest.mark.parametrize("fields", [
        {"owner": 5},
        {"owner": None},
        {"path": 5},
        {"path": ["/pet"]},
        {"users_ro": [5]},
        {"users_rw": ["123", None]},
        {"users_ro": "456"},
        {"users_rw": {"123": True}},
        *ILL_TYPED_KEYS,
    ])
    def test_an_ill_typed_record_is_corrupt(self, tmp_path, fields):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
        record = {**ace(2).to_record(), **fields}
        with open(location, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n" + ace(3).to_json() + "\n")
        with pytest.raises(CorruptJournalError, match="line 2"):
            AclStore.open(location)


class TestIdAllocation:
    def test_next_id_is_monotonic_per_path(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            assert store.next_id("/pets") == 1
            store.put(ace(1))
            store.put(ace(7))
            assert store.next_id("/pets") == 8
            assert store.next_id("/users") == 1

    def test_deleted_ids_are_not_reused_after_reopen(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
            store.put(ace(2))
            store.delete("/pets", 2)
        with AclStore.open(location) as store:
            assert store.next_id("/pets") == 3


class TestCompaction:
    def test_compact_keeps_live_entries_only(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            for i in range(1, 6):
                store.put(ace(i))
            store.delete("/pets", 3)
            count = store.compact()
            assert count == 4
            assert store.get("/pets", 3) is None
        assert len(location.read_text().splitlines()) == 4
        with AclStore.open(location) as store:
            assert {a.id for a in store.entries()} == {1, 2, 4, 5}

    def test_compacted_store_accepts_writes(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
            store.compact()
            store.put(ace(2))
        with AclStore.open(location) as store:
            assert len(store) == 2


class TestIndexes:
    def test_in_path_is_one_path_in_id_order(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            for object_id, path in ((3, "/pets"), (1, "/users"), (1, "/pets")):
                store.put(ace(object_id, path=path))
            assert [a.id for a in store.in_path("/pets")] == [1, 3]
            assert store.in_path("/stock") == []

    def test_readable_ids_follow_grants_moves_and_deletes(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            store.put(ace(2, owner="1"))
            store.put(ace(1, owner="1", ro=["2"]))
            assert store.readable_ids("/pets", "1") == [1, 2]
            assert store.readable_ids("/pets", "2") == [1]
            store.put(ace(1, owner="1", rw=["1", "2"]))     # ro -> rw
            assert store.readable_ids("/pets", "2") == [1]
            store.put(ace(1, owner="3"))                    # new owner only
            assert store.readable_ids("/pets", "2") == []
            assert store.readable_ids("/pets", "1") == [2]
            assert store.readable_ids("/pets", "3") == [1]
            store.delete("/pets", 2)
            assert store.readable_ids("/pets", "1") == []
            assert store.readable_ids("/users", "3") == []

    def test_a_user_listed_twice_is_indexed_once(self, tmp_path):
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            store.put(ace(1, owner="1", rw=["1", "2", "2"]))
            assert store.readable_ids("/pets", "2") == [1]
            store.put(ace(1, owner="1"))
            assert store.readable_ids("/pets", "2") == []
            store.delete("/pets", 1)
            assert store.readable_ids("/pets", "1") == []

    def test_replay_and_compact_build_the_same_indexes(self, tmp_path):
        location = tmp_path / "acl.ndjson"
        users = ("1", "2", "3")

        def state(store):
            return ([(a.path, a.id) for a in store.entries()],
                    {(p, u): store.readable_ids(p, u)
                     for p in ("/pets", "/users") for u in users})

        with AclStore.open(location) as store:
            for i in range(12):
                store.put(ace(i % 5, path=("/pets", "/users")[i % 2],
                              owner=users[i % 3], ro=[users[(i + 1) % 3]]))
            store.delete("/pets", 2)
            store.delete("/users", 1)
            live = state(store)
            store.compact()
            assert state(store) == live
        with AclStore.open(location) as store:
            assert state(store) == live


class TestObjectStore:
    def test_round_trip(self, tmp_path):
        location = tmp_path / "objects.ndjson"
        with ObjectStore.open(location) as store:
            store.put({"id": 1, "path": "/pet", "body": {"name": "lucky"}})
        with ObjectStore.open(location) as store:
            assert store.get("/pet", 1)["body"] == {"name": "lucky"}

    @pytest.mark.parametrize("fields", [
        {"path": 5},
        {"path": None},
        {"path": ["/pet"]},
        {"body": [1, 2]},
        {"body": "lucky"},
        {"body": None},
        {"body": 5},
        *ILL_TYPED_KEYS,
    ])
    def test_an_ill_typed_record_is_corrupt(self, tmp_path, fields):
        location = tmp_path / "objects.ndjson"
        with ObjectStore.open(location) as store:
            store.put({"id": 1, "path": "/pet", "body": {}})
        record = {"id": 2, "path": "/pet", "body": {"n": 2}, **fields}
        with open(location, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(CorruptJournalError, match="line 2"):
            ObjectStore.open(location)


def _deep(depth: int) -> list:
    """A list nested ``depth`` deep."""
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def _deep_json(depth: int) -> str:
    """``json.dumps(_deep(depth))``, which past its recursion limit cannot."""
    return "[" * depth + "]" * depth


# A valid line of each journal, as a tree, and the JSON of a deep value.
JOURNAL_LINES = {
    AclStore: ace(2).to_record(),
    ObjectStore: {"id": 2, "path": "/pets", "body": {"name": "rex"}},
}
DEEP_VALUES = [MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 5000]


def _places(node, at=()):
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield at + (key,)
        yield from _places(child, at + (key,))


def _line_with(record: dict, place: tuple, depth: int) -> bytes:
    """The JSON line of ``record`` with the value at ``place`` replaced by a
    list nested ``depth`` deep."""
    marker = "\u0000deep"
    tree = json.loads(json.dumps(record))
    node = tree
    for key in place[:-1]:
        node = node[key]
    node[place[-1]] = marker
    return json.dumps(tree).replace(json.dumps(marker), _deep_json(depth)).encode()


@st.composite
def _mutated_journals(draw):
    """A journal of two valid records and one line whose value at some place
    is a list nested about ``MAX_DEPTH`` or 5,000 deep, anywhere in the file,
    its final newline kept or cut."""
    store_class = draw(st.sampled_from(sorted(JOURNAL_LINES, key=str)))
    record = JOURNAL_LINES[store_class]
    place = draw(st.sampled_from(list(_places(record))))
    line = _line_with(record, place, draw(st.sampled_from(DEEP_VALUES)))
    valid = json.dumps(record).encode()
    lines = [valid.replace(b'"id": 2', b'"id": 1'), valid]
    lines.insert(draw(st.integers(0, 2)), line)
    text = b"\n".join(lines)
    return store_class, text if draw(st.booleans()) else text + b"\n"


class TestDeepJournals:
    """Opening a journal never raises RecursionError: a line nested past
    ``MAX_DEPTH`` is a torn final record or a CorruptJournalError."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_mutated_journals())
    def test_opening_builds_well_typed_entries_or_refuses(self, journal):
        store_class, text = journal
        with tempfile.TemporaryDirectory() as directory:
            location = Path(directory) / "journal.ndjson"
            location.write_bytes(text)
            try:
                store = store_class.open(location)
            except CorruptJournalError:
                return
            with store:
                for entry in store.entries():
                    assert type(entry.id if store_class is AclStore
                                else entry["id"]) is int

    @pytest.mark.parametrize("store_class", [AclStore, ObjectStore])
    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5000])
    def test_a_line_nested_past_the_bound_is_torn_or_corrupt(
            self, tmp_path, store_class, depth):
        record = JOURNAL_LINES[store_class]
        place = ("users_ro",) if store_class is AclStore else ("body", "name")
        deep = _line_with(record, place, depth - len(place))  # the record's
        location = tmp_path / "journal.ndjson"
        location.write_bytes(deep + b"\n" + json.dumps(record).encode() + b"\n")
        with pytest.raises(CorruptJournalError, match="line 1"):
            store_class.open(location)
        location.write_bytes(json.dumps(record).encode() + b"\n" + deep + b"\n")
        with store_class.open(location) as store:
            assert len(store) == 1
        assert location.read_bytes() == json.dumps(record).encode() + b"\n"

    def test_the_deepest_body_a_record_holds_reads_back(self, tmp_path):
        location = tmp_path / "objects.ndjson"
        deepest = {"id": 1, "path": "/pet", "body": {"a": _deep(MAX_DEPTH - 2)}}
        with ObjectStore.open(location) as store:
            store.put(deepest)
            with pytest.raises(ValueError):
                store.put({"id": 2, "path": "/pet",
                           "body": {"a": _deep(MAX_DEPTH - 1)}})
        with ObjectStore.open(location) as store:
            assert store.entries() == [deepest]


STEP_PATHS = ("/pets", "/users")
STEP_USERS = ("1", "2", "3")
STORE_STEPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(STEP_PATHS), st.integers(0, 4),
              st.sampled_from(STEP_USERS),
              st.sampled_from([{"n": 1}, {"tags": ("a", "b")}, {7: "seven"}])),
    st.tuples(st.just("delete"), st.sampled_from(STEP_PATHS), st.integers(0, 4)),
    st.tuples(st.just("grant"), st.sampled_from(STEP_PATHS), st.integers(0, 4),
              st.sampled_from(STEP_USERS), st.sampled_from(STEP_USERS),
              st.sampled_from(("ro", "rw"))),
    st.tuples(st.just("refused"), st.sampled_from([
        ("objects", {"id": 1, "path": "/pets", "body": [1, 2]}),
        ("objects", {"id": 1, "path": 5, "body": {}}),
        ("acl", AccessControlEntry(id=2.5, path="/pets", owner="1")),
        ("acl", AccessControlEntry(id=True, path="/pets", owner="1")),
    ])),
    st.tuples(st.just("compact")),
)


def _apply_step(step, acl, objects, engine):
    kind = step[0]
    if kind == "put":
        _, path, object_id, owner, body = step
        acl.put(ace(object_id, path=path, owner=owner))
        objects.put({"id": object_id, "path": path, "body": body})
    elif kind == "delete":
        _, path, object_id = step
        for store in (acl, objects):
            if store.get(path, object_id) is None:
                with pytest.raises(NoSuchObjectError):
                    store.delete(path, object_id)
            else:
                store.delete(path, object_id)
    elif kind == "grant":
        _, path, object_id, actor, grantee, level = step
        try:
            engine.grant(actor, object_id, path, grantee, level)
        except (NoSuchObjectError, NotOwnerError):
            pass
    elif kind == "refused":
        store = {"acl": acl, "objects": objects}[step[1][0]]
        with pytest.raises(ValueError):
            store.put(step[1][1])
    else:
        acl.compact()
        objects.compact()


def _state(acl, objects):
    return (acl.entries(), objects.entries(),
            [o.reply for o in objects.entries()],
            {(path, user): acl.readable_ids(path, user)
             for path in STEP_PATHS for user in STEP_USERS},
            acl.journal_position, objects.journal_position)


class TestMemoryIsTheReplay:
    """What a write leaves in memory is what a fresh open of the journal
    builds, and a write that replay would refuse is not made."""

    @pytest.mark.parametrize("store_class, first, refused", [
        (ObjectStore, {"id": 1, "path": "/pet", "body": {}},
         {"id": 2, "path": "/pet", "body": [1, 2]}),
        (AclStore, ace(1), AccessControlEntry(id=2.5, path="/pets", owner="1")),
        (AclStore, ace(1), AccessControlEntry(id=True, path="/pets", owner="1")),
    ])
    def test_a_put_that_replay_would_refuse_writes_nothing(
            self, tmp_path, store_class, first, refused):
        location = tmp_path / "journal.ndjson"
        with store_class.open(location) as store:
            store.put(first)
            before = location.read_bytes()
            with pytest.raises(ValueError):
                store.put(refused)
            assert location.read_bytes() == before
            assert store.entries() == [first]
            assert store.journal_position == 1
        with store_class.open(location) as store:
            assert store.entries() == [first]

    def test_a_delete_whose_tombstone_replay_would_refuse_writes_nothing(
            self, tmp_path):
        # True hashes as 1, so the lookup alone would find entry 1.
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(ace(1))
            before = location.read_bytes()
            with pytest.raises(ValueError):
                store.delete("/pets", True)
            assert location.read_bytes() == before
            assert store.get("/pets", 1) == ace(1)

    def test_memory_holds_the_json_that_was_written(self, tmp_path):
        location = tmp_path / "objects.ndjson"
        with ObjectStore.open(location) as store:
            store.put({"id": 1, "path": "/pet",
                       "body": {"tags": ("a", "b"), 7: "seven"}})
            held = store.get("/pet", 1)
        assert held["body"] == {"tags": ["a", "b"], "7": "seven"}
        with ObjectStore.open(location) as store:
            assert store.get("/pet", 1) == held

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(STORE_STEPS, max_size=12))
    def test_after_every_step_a_fresh_open_builds_what_memory_holds(self, steps):
        with tempfile.TemporaryDirectory() as directory:
            acl_path = Path(directory) / "acl.ndjson"
            objects_path = Path(directory) / "objects.ndjson"
            with AclStore.open(acl_path) as acl, \
                    ObjectStore.open(objects_path) as objects:
                engine = AuthzEngine(default_rule_set(), acl)
                for step in steps:
                    _apply_step(step, acl, objects, engine)
                    with AclStore.open(acl_path) as fresh_acl, \
                            ObjectStore.open(objects_path) as fresh_objects:
                        assert _state(fresh_acl, fresh_objects) == \
                            _state(acl, objects), step


class TestConcurrency:
    def test_readers_never_observe_torn_entries(self, tmp_path):
        store = AclStore.open(tmp_path / "acl.ndjson")
        stop = threading.Event()
        errors = []

        def writer():
            for i in range(200):
                store.put(ace(i % 10, ro=[f"r{i}"]))
            stop.set()

        def churner():
            # Grants, moves between the lists and deletions over a sliding
            # window of 32 objects, so reader-index sets grow, shrink and
            # vanish while readers copy them.
            i = 0
            while not stop.is_set():
                object_id, owner = i % 64, f"o{i % 3}"
                store.put(ace(object_id, path="/users", owner=owner, ro=["x"]))
                store.put(ace(object_id, path="/users", owner=owner,
                              rw=[owner, "x"]))
                if store.get("/users", (i - 32) % 64) is not None:
                    store.delete("/users", (i - 32) % 64)
                i += 1

        def reader():
            while not stop.is_set():
                for entry in store.entries() + store.in_path("/users"):
                    if entry.owner not in entry.users_rw or \
                            set(entry.users_ro) & set(entry.users_rw):
                        errors.append(entry)
                got = store.get("/pets", 3)
                if got is not None and got.owner != "123":
                    errors.append(got)
                for user in ("x", "o0", "o1", "o2"):
                    ids = store.readable_ids("/users", user)
                    if ids != sorted(set(ids)) or not set(ids) <= set(range(64)):
                        errors.append((user, ids))
                if not set(store.readable_ids("/pets", "r5")) <= {5}:
                    errors.append(("r5", store.readable_ids("/pets", "r5")))

        def guarded(target):
            def run():
                try:
                    target()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    stop.set()
            return threading.Thread(target=run)

        threads = [guarded(writer), guarded(churner)] + \
                  [guarded(reader) for _ in range(3)]
        # Switch threads often, so a reader that iterated a live container
        # would be caught in the middle of it.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        store.close()
        assert errors == []

    def test_readers_racing_to_encode_a_reply_get_the_same_bytes(self, tmp_path):
        location = tmp_path / "objects.ndjson"
        with ObjectStore.open(location) as store:
            for i in range(200):
                store.put({"id": i, "path": "/pet", "body": {"n": i, "id": -i}})
        expected = [json.dumps({"id": i, "n": i}).encode() for i in range(200)]
        # Replay encodes no reply, so six readers race to fill every one.
        store = ObjectStore.open(location)
        results = []

        def reader():
            results.append([o.reply for o in store.in_path("/pet")])

        threads = [threading.Thread(target=reader) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            store.close()
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 6
        assert [o.reply for o in store.entries()] == expected
