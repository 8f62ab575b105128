"""Acceptance suite: one test per shipping criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import json
import random
import shutil
import threading
import time

import requests

from bola_guard import (
    AccessControlEntry,
    AclStore,
    Action,
    AuthToken,
    AuthzEngine,
    GroupRule,
    GroupRuleSet,
    ObjectStore,
    ReferenceService,
    default_rule_set,
    issue_token,
    spec_to_stub,
    validate,
)
from bola_guard.acl import apply_grant
from bola_guard.generator import stub_matches_spec
from bola_guard.service import make_server
from bola_guard.validator import classify_design, has_errors

from conftest import CORPUS, fixture_doc
from oracle import default_rule_rows, oracle_access, oracle_create

KEY = b"acceptance-suite-key"
NOW = 1_700_000_000.0


class _Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} took {elapsed:.2f}s, "
                f"budget {self.seconds}s")
            print(f"ACCEPTANCE {self.number} ({self.name}): "
                  f"PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.number} ({self.name}): FAIL")
        return False


def claims(user_id, groups):
    return AuthToken(user_id=user_id, user_name=user_id,
                     groups=frozenset(groups), expiry=NOW + 10_000)


def test_criterion_1_listing_fidelity():
    """Transcribed extension documents parse, validate, and classify."""
    with _Budget(1, "listing fidelity", 1.0):
        scheme_only = fixture_doc("ess_scheme_only")
        root = fixture_doc("petstore_root_level")
        method = fixture_doc("petstore_method_level")
        for doc in (scheme_only, root, method):
            assert not has_errors(validate(doc))
        assert validate(root) == []
        assert validate(method) == []
        assert classify_design(root) == "root_level"
        assert classify_design(method) == "method_level"
        scheme = scheme_only.security_schemes["X-objectAuthScheme"]
        assert scheme.x_groups == "string" and scheme.x_user_id == "string"


def test_criterion_2_ace_byte_compatibility(tmp_path):
    """The recorded entry serializes to the documented JSON byte shape."""
    with _Budget(2, "ACE byte-compatibility", 1.0):
        rules = GroupRuleSet([
            GroupRule("/pets", "G21", frozenset(Action), ownership_required=True)])
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            engine = AuthzEngine(rules, store)
            token = claims("123", {"G21"})
            assert engine.authorize_access(token, "/pets", Action.CREATE,
                                           None).allowed
            ace = engine.record_creation(token, "/pets", 152)

            expected_record = {"id": 152, "path": "/pets", "owner": "123",
                               "users_ro": [], "users_rw": ["123"]}
            assert list(ace.to_record()) == ["id", "path", "owner",
                                             "users_ro", "users_rw"]
            assert ace.to_json() == json.dumps(expected_record)
            # canonical re-ordering of both sides, then exact string compare
            assert json.dumps(json.loads(ace.to_json()), sort_keys=True) == \
                   json.dumps(expected_record, sort_keys=True)
            # the journal line on disk is the same byte shape
            line = (tmp_path / "acl.ndjson").read_text().splitlines()[0]
            assert line == ace.to_json()


def test_criterion_3_decision_matrix_oracle(tmp_path):
    """Engine decisions agree 100% with the brute-force rule interpreter."""
    with _Budget(3, "decision-matrix oracle", 5.0):
        groups_universe = ["G11", "G21", "G22", "G23"]
        subsets = [set(c) for r in (0, 1, 2)
                   for c in itertools.combinations(groups_universe, r)]
        paths = ["/pet", "/user"]
        users = ["u1", "u2", "u3"]
        rows = default_rule_rows()

        store = AclStore.open(tmp_path / "oracle.ndjson")
        engine = AuthzEngine(default_rule_set(), store)
        agreements = 0

        for groups, path, user in itertools.product(subsets, paths, users):
            token = claims(user, groups)
            assert engine.authorize_access(token, path, Action.CREATE,
                                           None).allowed == \
                oracle_create(rows, groups, path)
            agreements += 1

            for action, owner_is_requester, membership, present in \
                    itertools.product(
                        [Action.READ, Action.UPDATE, Action.DELETE],
                        [True, False], ["none", "ro", "rw"], [True, False]):
                owner = user if owner_is_requester else "owner-someone-else"
                ace = AccessControlEntry.for_new_object(1, path, owner)
                if membership != "none" and user != owner:
                    ace = apply_grant(ace, owner, user, membership)
                if store.get(path, 1) is not None:
                    store.delete(path, 1)
                store.put(ace)
                object_id = 1 if present else 2

                got = engine.authorize_access(token, path, action, object_id)
                want = oracle_access(rows, groups, path, action.value, user,
                                     ace.to_record() if present else None)
                assert got.allowed == want, (groups, path, action.value, user,
                                             owner, membership, present)
                assert got.allowed == (got.reason.value in (
                    "group_grant", "ownership_grant", "acl_grant"))
                agreements += 1
        store.close()
        assert agreements > 2000  # "a few thousand cases"


def test_criterion_4_round_trip_and_marker_mutations(tmp_path):
    """Corpus round-trips; removing any one marker flips the check to false."""
    with _Budget(4, "round-trip preservation", 2.0):
        assert len(CORPUS) >= 6
        mutations = 0
        for name in CORPUS:
            doc = fixture_doc(name)
            stub_dir = tmp_path / name
            spec_to_stub(doc, stub_dir)
            assert stub_matches_spec(doc, stub_dir), name

            marker_sites = []
            for stub in sorted((stub_dir / "handlers").glob("*.stub")):
                for line_no, line in enumerate(stub.read_text().splitlines()):
                    if "@object_privilege" in line:
                        marker_sites.append((stub.name, line_no))
            for stub_name, line_no in marker_sites:
                mutated_dir = tmp_path / f"{name}-minus-{stub_name}-{line_no}"
                shutil.copytree(stub_dir, mutated_dir)
                target = mutated_dir / "handlers" / stub_name
                lines = target.read_text().splitlines()
                del lines[line_no]
                target.write_text("\n".join(lines), encoding="utf-8")
                assert not stub_matches_spec(doc, mutated_dir), \
                    (name, stub_name, line_no)
                mutations += 1
        assert mutations >= 10


def _start_service(tmp_path):
    acl = AclStore.open(tmp_path / "acl.ndjson")
    objects = ObjectStore.open(tmp_path / "objects.ndjson")
    service = ReferenceService(default_rule_set(), KEY, acl, objects)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]

    def stop():
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)

    return f"http://127.0.0.1:{port}", stop


def test_criterion_5_end_to_end_http_scenario(tmp_path):
    """Scripted two-user session over real HTTP, surviving a restart."""
    with _Budget(5, "end-to-end scenario", 10.0):
        now = time.time()

        def tok(user, groups):
            return issue_token(user, user, set(groups), 3600, KEY, now=now).raw

        base, stop = _start_service(tmp_path)
        try:
            created = requests.post(
                f"{base}/pet", headers={"api_key": tok("u1", {"G21"})},
                json={"name": "lucky"}, timeout=5)
            assert created.status_code == 201
            pet_id = created.json()["id"]
            journal = (tmp_path / "acl.ndjson").read_text()
            assert f'"id": {pet_id}, "path": "/pet", "owner": "u1"' in journal

            survivor = requests.post(
                f"{base}/pet", headers={"api_key": tok("u1", {"G21"})},
                json={"name": "rex"}, timeout=5).json()["id"]

            updated = requests.put(
                f"{base}/pet/{pet_id}", headers={"api_key": tok("u1", {"G21"})},
                json={"name": "lucky II"}, timeout=5)
            assert updated.status_code == 200

            foreign = requests.put(
                f"{base}/pet/{pet_id}", headers={"api_key": tok("u2", {"G21"})},
                json={"name": "stolen"}, timeout=5)
            assert foreign.status_code == 403
            assert foreign.json()["reason"] == "not_owner"

            read = requests.get(
                f"{base}/pet/{pet_id}", headers={"api_key": tok("u3", {"G22"})},
                timeout=5)
            assert read.status_code == 200
            assert read.json()["name"] == "lucky II"

            deleted = requests.delete(
                f"{base}/pet/{pet_id}", headers={"api_key": tok("u4", {"G23"})},
                timeout=5)
            assert deleted.status_code == 204
        finally:
            stop()

        base, stop = _start_service(tmp_path)
        try:
            again = requests.get(
                f"{base}/pet/{survivor}", headers={"api_key": tok("u3", {"G22"})},
                timeout=5)
            assert again.status_code == 200
            assert again.json()["name"] == "rex"
            gone = requests.get(
                f"{base}/pet/{pet_id}", headers={"api_key": tok("u3", {"G22"})},
                timeout=5)
            assert gone.status_code == 404
        finally:
            stop()


def test_criterion_6_durability(tmp_path):
    """1,000 creations survive a reopen; a torn tail recovers the prefix."""
    with _Budget(6, "durability", 5.0):
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            engine = AuthzEngine(default_rule_set(), store)
            token = claims("123", {"G21"})
            for i in range(1, 1001):
                engine.record_creation(token, "/pet", i)
        with AclStore.open(location) as store:
            assert len(store) == 1000
            assert store.next_id("/pet") == 1001

        data = location.read_bytes()
        location.write_bytes(data[:-11])  # tear the final record
        with AclStore.open(location) as store:
            assert len(store) == 999
            assert store.get("/pet", 1000) is None
            assert store.get("/pet", 999) is not None


def test_criterion_7_deny_by_default_fuzz(tmp_path):
    """10,000 random probes against an empty rule set: zero allows."""
    with _Budget(7, "deny-by-default fuzz", 5.0):
        store = AclStore.open(tmp_path / "fuzz.ndjson")
        engine = AuthzEngine(GroupRuleSet(), store)
        rng = random.Random(0xB01A)
        paths = ["/pet", "/user", "/order", "/toy"]
        actions = [Action.READ, Action.UPDATE, Action.DELETE]
        allowed = 0
        for i in range(10_000):
            token = claims(
                f"u{rng.randrange(100)}",
                {f"G{rng.randrange(40)}" for _ in range(rng.randrange(4))})
            path = rng.choice(paths)
            if i % 4 == 0:
                decision = engine.authorize_access(token, path, Action.CREATE,
                                                   None)
            else:
                decision = engine.authorize_access(
                    token, path, rng.choice(actions), rng.randrange(10))
            allowed += decision.allowed
        store.close()
        assert allowed == 0
