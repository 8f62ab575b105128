import http.client
import io
import json
import logging
import os
import random
import socket
import string
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import HealthCheck, given, settings, strategies as st

from bola_guard import (
    AccessControlEntry,
    AclStore,
    Action,
    CorruptJournalError,
    GroupRule,
    GroupRuleSet,
    ObjectStore,
    ReferenceService,
    ServiceConfig,
    default_rule_set,
    issue_token,
    load_rules,
)
from bola_guard.model import MAX_DEPTH
from bola_guard.service import (
    IDLE_TIMEOUT_S,
    MAX_BODY_BYTES,
    TOKEN_HEADER,
    Response,
    make_server,
)

KEY = b"service-test-key"
NOW = 1_700_000_000.0

MUTATION_EVENTS = {"ace_created", "object_created", "object_updated",
                   "object_deleted"}


def token(user_id, groups, now=NOW, ttl=3600):
    return issue_token(user_id, user_id, set(groups), ttl, KEY, now=now).raw


@pytest.fixture
def events():
    return []


@pytest.fixture
def service(tmp_path, events):
    svc = build_service(tmp_path, events)
    yield svc
    svc.close()


def build_service(tmp_path, events=None, clock=lambda: NOW, rules=None):
    acl = AclStore.open(tmp_path / "acl.ndjson")
    try:
        objects = ObjectStore.open(tmp_path / "objects.ndjson")
    except Exception:
        acl.close()
        raise
    observer = (lambda event, payload: events.append((event, payload))) \
        if events is not None else None
    rules = default_rule_set() if rules is None else rules
    return ReferenceService(rules, KEY, acl, objects,
                            clock=clock, observer=observer)


def request(service, method, url, tok=None, body=None):
    headers = {} if tok is None else {"api_key": tok}
    payload = None if body is None else json.dumps(body).encode()
    return service.handle_request(method, url, headers, payload)


class TestTokenGate:
    def test_missing_token_is_401(self, service):
        response = request(service, "GET", "/pet/1")
        assert response.status == 401
        assert response.body["reason"] == "token_invalid"

    def test_garbage_token_is_401(self, service):
        response = request(service, "GET", "/pet/1", tok="not.a.token")
        assert response.status == 401

    def test_expired_token_is_401(self, service):
        stale = token("123", {"G21"}, now=NOW - 7200, ttl=60)
        assert request(service, "GET", "/pet/1", tok=stale).status == 401

    def test_token_signed_with_other_key_is_401(self, service):
        forged = issue_token("123", "123", {"G21"}, 3600, b"other-key",
                             now=NOW).raw
        assert request(service, "GET", "/pet/1", tok=forged).status == 401


class TestCreateFlow:
    def test_create_returns_201_with_id_and_records_entry(self, service):
        response = request(service, "POST", "/pet", token("123", {"G21"}),
                           {"name": "lucky"})
        assert response.status == 201
        assert response.body == {"id": 1, "name": "lucky"}
        ace = service.engine.store.get("/pet", 1)
        assert ace.owner == "123"
        assert ace.users_rw == ("123",)
        assert ace.users_ro == ()

    def test_each_201_creates_exactly_one_entry(self, service):
        before = len(service.engine.store.entries())
        for i in range(3):
            assert request(service, "POST", "/pet", token("123", {"G21"}),
                           {"n": i}).status == 201
        assert len(service.engine.store.entries()) == before + 3

    def test_read_only_group_cannot_create(self, service):
        response = request(service, "POST", "/pet", token("123", {"G22"}), {})
        assert response.status == 403
        assert response.body == {"code": 403, "reason": "no_group_rule"}
        assert service.engine.store.entries() == []

    def test_ids_are_monotonic_per_path(self, service):
        a = request(service, "POST", "/pet", token("1", {"G21"}), {}).body["id"]
        b = request(service, "POST", "/user", token("2", {"G11"}), {}).body["id"]
        c = request(service, "POST", "/pet", token("1", {"G21"}), {}).body["id"]
        assert (a, b, c) == (1, 1, 2)

    def test_a_missing_body_creates_an_empty_object(self, service):
        response = service.handle_request(
            "POST", "/pet", {"api_key": token("123", {"G21"})}, None)
        assert (response.status, response.body) == (201, {"id": 1})

    def test_invalid_json_body_is_400(self, service):
        response = service.handle_request(
            "POST", "/pet", {"api_key": token("1", {"G21"})}, b"{broken")
        assert response.status == 400

    def test_a_body_nested_past_the_recursion_limit_is_400(self, service):
        response = service.handle_request(
            "POST", "/pet", {"api_key": token("1", {"G21"})},
            b"[" * 100_000 + b"]" * 100_000)
        assert (response.status, response.body["reason"]) == \
            (400, "invalid_body")

    def test_a_deep_body_is_stored_or_refused_and_never_a_500(self, tmp_path):
        # A journal record nests one level deeper than its body, so the
        # deepest body stored is MAX_DEPTH - 1; a refused body writes no line.
        depths = [*range(MAX_DEPTH - 2, MAX_DEPTH + 3), *range(900, 1010)]
        tok = token("1", {"G21"})
        created = {}
        service = build_service(tmp_path)
        try:
            for depth in depths:
                body = (b'{"a": ' + b"[" * (depth - 1) + b"]" * (depth - 1)
                        + b"}")
                before = [(tmp_path / name).read_bytes()
                          for name in ("acl.ndjson", "objects.ndjson")]
                response = service.handle_request("POST", "/pet",
                                                  {"api_key": tok}, body)
                if depth < MAX_DEPTH:
                    assert response.status == 201, depth
                    created[response.body["id"]] = json.loads(body)
                else:
                    assert (response.status, response.body["reason"]) == \
                        (400, "invalid_body"), depth
                    assert [(tmp_path / name).read_bytes() for name in
                            ("acl.ndjson", "objects.ndjson")] == before
        finally:
            service.close()
        assert len(created) == 2
        service = build_service(tmp_path)
        try:
            for object_id, body in created.items():
                got = request(service, "GET", f"/pet/{object_id}", tok)
                assert (got.status, got.body) == (200, {"id": object_id, **body})
        finally:
            service.close()

    def test_an_update_nested_past_the_bound_is_400(self, service):
        tok = token("1", {"G21"})
        request(service, "POST", "/pet", tok, {"n": 1})
        body = b"[" * MAX_DEPTH + b"]" * MAX_DEPTH
        response = service.handle_request("PUT", "/pet/1", {"api_key": tok},
                                          b'{"a": ' + body + b"}")
        assert (response.status, response.body["reason"]) == (400, "invalid_body")
        assert request(service, "GET", "/pet/1", tok).body == {"id": 1, "n": 1}


class TestRuleFileDefaults:
    def test_a_rule_without_ownership_requires_it(self, tmp_path):
        rules = tmp_path / "rules.yaml"
        rules.write_text("- {path: /pet, group: G21, actions: [read]}\n",
                         encoding="utf-8")
        service = build_service(tmp_path, rules=load_rules(rules))
        try:
            service.engine.store.put(
                AccessControlEntry.for_new_object(1, "/pet", "alice"))
            service.objects.put({"id": 1, "path": "/pet", "body": {"n": 1}})
            stranger = request(service, "GET", "/pet/1", token("bob", {"G21"}))
            assert (stranger.status, stranger.body["reason"]) == \
                (403, "not_owner")
            owner = request(service, "GET", "/pet/1", token("alice", {"G21"}))
            assert (owner.status, owner.body) == (200, {"id": 1, "n": 1})
        finally:
            service.close()


class TestObjectAccess:
    def test_owner_update_and_read(self, service):
        tok = token("123", {"G21"})
        pid = request(service, "POST", "/pet", tok, {"name": "lucky"}).body["id"]
        updated = request(service, "PUT", f"/pet/{pid}", tok, {"name": "rex"})
        assert updated.status == 200
        got = request(service, "GET", f"/pet/{pid}", tok)
        assert got.status == 200
        assert got.body == {"id": pid, "name": "rex"}

    def test_update_replies_403_then_404_then_400(self, tmp_path):
        rules = default_rule_set()
        rules.add(GroupRule("/pet", "W", frozenset({Action.UPDATE}),
                            ownership_required=False))
        service = build_service(tmp_path, rules=rules)
        try:
            owner = token("123", {"G21"})
            request(service, "POST", "/pet", owner, {"name": "a"})
            bad = b"not json"
            for tok, url, status, reason in [
                    (token("456", {"G21"}), "/pet/1", 403, "not_owner"),
                    (token("456", {"W"}), "/pet/9", 404, "no_such_object"),
                    (owner, "/pet/1", 400, "invalid_body")]:
                reply = service.handle_request("PUT", url, {"api_key": tok}, bad)
                assert (reply.status, reply.body["reason"]) == (status, reason)
            assert request(service, "GET", "/pet/1", owner).body == \
                {"id": 1, "name": "a"}
        finally:
            service.close()

    def test_non_owner_update_is_403_not_owner(self, service):
        pid = request(service, "POST", "/pet", token("123", {"G21"}),
                      {}).body["id"]
        response = request(service, "PUT", f"/pet/{pid}",
                           token("456", {"G21"}), {"name": "x"})
        assert response.status == 403
        assert response.body == {"code": 403, "reason": "not_owner"}

    def test_any_reader_group_reads_foreign_object(self, service):
        pid = request(service, "POST", "/pet", token("123", {"G21"}),
                      {"name": "lucky"}).body["id"]
        response = request(service, "GET", f"/pet/{pid}", token("9", {"G22"}))
        assert response.status == 200

    def test_any_deleter_group_deletes_foreign_object(self, service):
        pid = request(service, "POST", "/pet", token("123", {"G21"}),
                      {}).body["id"]
        response = request(service, "DELETE", f"/pet/{pid}",
                           token("9", {"G23"}))
        assert response.status == 204
        assert service.engine.store.get("/pet", pid) is None
        assert service.objects.get("/pet", pid) is None

    def test_missing_object_when_authorized_is_404(self, service):
        response = request(service, "GET", "/pet/42", token("9", {"G22"}))
        assert response.status == 404

    def test_missing_object_under_ownership_rule_is_403(self, service):
        response = request(service, "GET", "/pet/42", token("9", {"G21"}))
        assert response.status == 403
        assert response.body["reason"] == "no_such_object"

    def test_unknown_route_is_404(self, service):
        assert request(service, "GET", "/stock/1",
                       token("9", {"G21"})).status == 404

    def test_routes_are_the_rule_tables_paths(self, tmp_path):
        rules = GroupRuleSet([GroupRule("/pet", "G21", frozenset(Action), True)])
        service = build_service(tmp_path, rules=rules)
        try:
            tok = token("123", {"G11", "G21"})
            assert request(service, "POST", "/pet", tok, {}).status == 201
            for method, url in (("GET", "/user"), ("POST", "/user"),
                                ("GET", "/user/1")):
                response = request(service, method, url, tok, {})
                assert (response.status, response.body["reason"]) == \
                    (404, "unknown_route")
        finally:
            service.close()

    @pytest.mark.parametrize("tail", ["+1", "01", " 1", "1 ", "1_0", "\u0661",
                                      "\uff11", "-1", "1.0", "0x1", "%31",
                                      "1" * 5000])
    def test_only_the_canonical_id_spelling_routes(self, service, tail):
        owner = token("123", {"G21"})
        for _ in range(10):
            request(service, "POST", "/pet", owner, {})
        for method in ("GET", "PUT", "DELETE"):
            response = request(service, method, f"/pet/{tail}", owner, {})
            assert (response.status, response.body["reason"]) == \
                (404, "unknown_route")
        assert len(service.objects.in_path("/pet")) == 10

    def test_unmapped_method_is_405(self, service):
        assert service.handle_request(
            "PATCH", "/pet/1", {"api_key": token("9", {"G21"})}, None
        ).status == 405

    def test_collection_listing_filters_to_readable_objects(self, service):
        mine = token("123", {"G21"})
        other = token("456", {"G21"})
        request(service, "POST", "/pet", mine, {"name": "a"})
        request(service, "POST", "/pet", other, {"name": "b"})
        me = request(service, "GET", "/pet", mine)
        assert me.status == 200
        assert [o["name"] for o in me.body] == ["a"]
        reader = request(service, "GET", "/pet", token("9", {"G22"}))
        assert [o["name"] for o in reader.body] == ["a", "b"]
        assert request(service, "GET", "/pet", token("9", {"G23"})).status == 403


class TestObjectViews:
    def test_the_server_id_wins_over_a_body_id(self, service):
        owner = token("123", {"G21"})
        created = request(service, "POST", "/pet", owner, {"id": 999, "name": "x"})
        assert (created.status, created.body) == (201, {"id": 1, "name": "x"})
        assert request(service, "GET", "/pet/1", owner).body == \
            {"id": 1, "name": "x"}
        assert request(service, "GET", "/pet", owner).body == \
            [{"id": 1, "name": "x"}]
        assert request(service, "GET", "/pet", token("9", {"G22"})).body == \
            [{"id": 1, "name": "x"}]
        updated = request(service, "PUT", "/pet/1", owner, {"id": 5, "name": "y"})
        assert updated.body == {"id": 1, "name": "y"}
        assert request(service, "GET", "/pet/1", owner).body == \
            {"id": 1, "name": "y"}
        assert request(service, "GET", "/pet/999", owner).status == 403

    def test_replies_are_the_bytes_json_dumps_writes_of_their_views(
            self, tmp_path):
        bodies = [{"id": 999, "name": "x"},
                  {"name": "caf\u00e9 \U0001f408", "tags": ["a", {"b": [1, 2.5]}],
                   "more": {"none": None, "yes": True}},
                  {}]
        views = [{"id": 1, "name": "x"}, {"id": 2, **bodies[1]}, {"id": 3}]
        owner, reader = token("123", {"G21"}), token("9", {"G22"})
        first = build_service(tmp_path)
        try:
            for caller in (owner, reader):
                assert request(first, "GET", "/pet", caller).payload == b"[]"
            for body, view in zip(bodies, views):
                assert request(first, "POST", "/pet", owner, body).payload == \
                    json.dumps(view).encode()
            assert request(first, "PUT", "/pet/3", owner, {"id": 7}).payload == \
                json.dumps(views[2]).encode()
        finally:
            first.close()
        # A fresh open encodes the same bytes from the journal.
        second = build_service(tmp_path)
        try:
            for view in views:
                assert request(second, "GET", f"/pet/{view['id']}",
                               owner).payload == json.dumps(view).encode()
            for caller in (owner, reader):
                assert request(second, "GET", "/pet", caller).payload == \
                    json.dumps(views).encode()
        finally:
            second.close()


class TestUnexpectedErrors:
    def test_an_unexpected_exception_is_a_logged_500_with_its_seq(self, service,
                                                                  caplog):
        owner = token("123", {"G21"})
        pid = request(service, "POST", "/pet", owner, {}).body["id"]

        def fail(path, object_id):
            raise RuntimeError("injected")

        service.objects.get = fail
        with caplog.at_level(logging.ERROR, logger="bola_guard.service"):
            response = request(service, "DELETE", f"/pet/{pid}", owner)
        assert response.status == 500
        assert response.body == {"code": 500, "reason": "internal_error",
                                 "seq": 2}
        [record] = caplog.records
        assert "request 2 failed" in record.getMessage()
        assert record.exc_info[0] is RuntimeError

    def test_a_storage_failure_is_a_logged_500_with_its_seq(self, service,
                                                            caplog, monkeypatch):
        owner = token("123", {"G21"})

        def fail(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("os.fsync", fail)
        with caplog.at_level(logging.ERROR, logger="bola_guard.service"):
            response = request(service, "POST", "/pet", owner, {"name": "x"})
        assert response.status == 500
        assert response.body == {"code": 500, "reason": "storage_failure",
                                 "seq": 1}
        [record] = caplog.records
        assert "request 1: storage failure" in record.getMessage()


class TestWriteRaces:
    """A request that has read the object is held inside ``objects.get``
    while a second request on the same object runs in another thread. The
    second gets at most 0.5 s once it has its decision: a service that
    serializes writes keeps it waiting, one that does not lets it finish."""

    def _race(self, service, first, second):
        real_get = service.objects.get
        paused, resume, decided = (threading.Event() for _ in range(3))

        def get(path, object_id):
            stored = real_get(path, object_id)
            if threading.current_thread().name == "first":
                paused.set()
                resume.wait(5)
            return stored

        def observe(event, payload):
            if event == "decision" and threading.current_thread().name == "second":
                decided.set()

        service.objects.get = get
        service.observer = observe
        replies = {}
        threads = [threading.Thread(name=name, target=lambda name=name, call=call:
                                    replies.__setitem__(name, call()))
                   for name, call in (("first", first), ("second", second))]
        threads[0].start()
        assert paused.wait(5)
        threads[1].start()
        assert decided.wait(5)
        threads[1].join(timeout=0.5)
        resume.set()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        service.objects.get = real_get
        return replies["first"].status, replies["second"].status

    @staticmethod
    def _orphans(service):
        """Stored objects that have no ACL entry."""
        return [stored["id"] for stored in service.objects.in_path("/pet")
                if service.engine.store.get("/pet", stored["id"]) is None]

    def test_a_put_racing_a_delete_leaves_no_object_without_an_entry(self, service):
        owner = token("123", {"G21"})
        pid = request(service, "POST", "/pet", owner, {"name": "a"}).body["id"]
        statuses = self._race(
            service,
            lambda: request(service, "PUT", f"/pet/{pid}", owner, {"name": "b"}),
            lambda: request(service, "DELETE", f"/pet/{pid}", owner))
        assert statuses == (200, 204)
        assert self._orphans(service) == []
        assert service.objects.get("/pet", pid) is None
        assert request(service, "GET", f"/pet/{pid}", token("9", {"G22"})).status \
            == 404

    def test_a_delete_that_loses_to_a_delete_is_404(self, service):
        owner = token("123", {"G21"})
        pid = request(service, "POST", "/pet", owner, {}).body["id"]
        delete = lambda: request(service, "DELETE", f"/pet/{pid}", owner)  # noqa: E731
        assert self._race(service, delete, delete) == (204, 404)
        assert self._orphans(service) == []
        assert service.engine.store.get("/pet", pid) is None

    def test_concurrent_writers_leave_no_object_without_an_entry(self, service):
        owner = token("123", {"G21"})
        statuses = set()

        def churn(seed):
            rng = random.Random(seed)
            for _ in range(60):
                newest = service.engine.store.next_id("/pet") - 1
                pid = rng.randint(max(1, newest - 2), max(1, newest))
                verb = rng.choice(["POST", "PUT", "PUT", "DELETE", "DELETE"])
                url = "/pet" if verb == "POST" else f"/pet/{pid}"
                statuses.add(request(service, verb, url, owner, {"n": 1}).status)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        # A write to an object already deleted is 403: its ACL entry is gone
        # too, so ownership cannot be proven.
        assert statuses <= {200, 201, 204, 403, 404}
        assert self._orphans(service) == []

    def test_a_put_that_loses_to_a_delete_is_404(self, service):
        owner = token("123", {"G21"})
        pid = request(service, "POST", "/pet", owner, {"name": "a"}).body["id"]
        statuses = self._race(
            service,
            lambda: request(service, "DELETE", f"/pet/{pid}", owner),
            lambda: request(service, "PUT", f"/pet/{pid}", owner, {"name": "b"}))
        assert statuses == (204, 404)
        assert self._orphans(service) == []
        assert service.objects.get("/pet", pid) is None


class TestAdminEndpoint:
    def test_admin_sees_full_acl(self, service):
        request(service, "POST", "/pet", token("123", {"G21"}), {})
        response = request(service, "GET", "/admin/acl", token("0", {"admin"}))
        assert response.status == 200
        assert response.body == [{"id": 1, "path": "/pet", "owner": "123",
                                  "users_ro": [], "users_rw": ["123"]}]

    def test_any_other_method_is_405(self, service):
        admin = token("0", {"admin"})
        for method in ("POST", "PUT", "DELETE"):
            response = request(service, method, "/admin/acl", admin)
            assert (response.status, response.body["reason"]) == \
                (405, "method_not_allowed")

    def test_non_admin_is_403(self, service):
        assert request(service, "GET", "/admin/acl",
                       token("123", {"G21"})).status == 403

    def test_empty_store_lists_empty(self, service):
        response = request(service, "GET", "/admin/acl", token("0", {"admin"}))
        assert response.status == 200
        assert response.body == []


class TestDecisionOrdering:
    def test_every_mutation_follows_an_allow_in_the_same_request(self, service,
                                                                 events):
        owner = token("123", {"G21"})
        pid = request(service, "POST", "/pet", owner, {"n": 1}).body["id"]
        request(service, "PUT", f"/pet/{pid}", owner, {"n": 2})
        request(service, "PUT", f"/pet/{pid}", token("456", {"G21"}), {"n": 3})
        request(service, "DELETE", f"/pet/{pid}", token("9", {"G23"}))

        allowed_seqs = set()
        for event, payload in events:
            if event == "decision" and payload["allowed"]:
                allowed_seqs.add(payload["seq"])
            if event in MUTATION_EVENTS:
                assert payload["seq"] in allowed_seqs, \
                    f"{event} happened without a prior allow"

    @pytest.mark.parametrize("groups, allowed, reason", [
        ({"G21"}, True, "ownership_grant"),
        ({"G22"}, True, "group_grant"),
        ({"G21", "G22"}, True, "group_grant"),
        ({"G23"}, False, "no_group_rule"),
    ])
    def test_listing_decision_names_its_permission(self, service, events,
                                                   groups, allowed, reason):
        request(service, "POST", "/pet", token("123", {"G21"}), {})
        events.clear()
        request(service, "GET", "/pet", token("123", groups))
        assert [(payload["allowed"], payload["reason"])
                for event, payload in events if event == "decision"] == \
            [(allowed, reason)]

    @pytest.mark.parametrize("method, url, user, groups, status", [
        ("POST", "/pet", "123", {"G21"}, 201),
        ("POST", "/pet", "123", {"G22"}, 403),
        ("GET", "/pet", "123", {"G21"}, 200),
        ("GET", "/pet", "9", {"G22"}, 200),
        ("GET", "/pet", "123", {"G23"}, 403),
        ("GET", "/pet/1", "123", {"G21"}, 200),
        ("GET", "/pet/1", "456", {"G21"}, 403),
        ("GET", "/pet/9", "9", {"G22"}, 404),
        ("PUT", "/pet/1", "123", {"G21"}, 200),
        ("PUT", "/pet/1", "456", {"G21"}, 403),
        ("DELETE", "/pet/1", "123", {"G21"}, 204),
        ("DELETE", "/pet/1", "9", {"G23"}, 204),
        ("DELETE", "/pet/1", "9", {"G22"}, 403),
        ("GET", "/admin/acl", "0", {"admin"}, 200),
        ("GET", "/admin/acl", "123", {"G21"}, 403),
    ])
    def test_each_routed_request_is_decided_once_before_it_mutates(
            self, service, events, method, url, user, groups, status):
        request(service, "POST", "/pet", token("123", {"G21"}), {"n": 1})
        events.clear()
        response = request(service, method, url, token(user, groups), {"n": 2})
        assert response.status == status
        assert [event for event, _ in events].count("decision") == 1
        event, payload = events[0]
        assert event == "decision"
        assert payload["allowed"] is (status != 403)

    @pytest.mark.parametrize("method, url, tok, status", [
        ("GET", "/pet/1", None, 401),
        ("GET", "/pet/1", "garbage", 401),
        ("GET", "/cat", token("123", {"G21"}), 404),
        ("POST", "/pet/1", token("123", {"G21"}), 405),
        ("PUT", "/pet", token("123", {"G21"}), 405),
        ("DELETE", "/admin/acl", token("0", {"admin"}), 405),
    ])
    def test_an_unrouted_request_is_not_decided(self, service, events,
                                                method, url, tok, status):
        request(service, "POST", "/pet", token("123", {"G21"}), {})
        events.clear()
        assert request(service, method, url, tok, {}).status == status
        assert events == []

    def test_denied_requests_mutate_nothing(self, service, events):
        request(service, "POST", "/pet", token("123", {"G22"}), {})
        assert not [e for e, _ in events if e in MUTATION_EVENTS]


class TestRestart:
    def test_outcomes_survive_a_restart_on_the_same_journals(self, tmp_path):
        first = build_service(tmp_path)
        owner = token("123", {"G21"})
        pid = request(first, "POST", "/pet", owner, {"name": "lucky"}).body["id"]
        request(first, "POST", "/pet", token("456", {"G21"}), {"name": "rex"})
        first.close()

        second = build_service(tmp_path)
        try:
            assert request(second, "GET", f"/pet/{pid}",
                           token("9", {"G22"})).status == 200
            assert request(second, "PUT", f"/pet/{pid}", owner,
                           {"name": "l2"}).status == 200
            assert request(second, "PUT", f"/pet/{pid}",
                           token("456", {"G21"}), {}).status == 403
            fresh = request(second, "POST", "/pet", owner, {}).body["id"]
            assert fresh == 3
        finally:
            second.close()


    def test_an_ill_typed_object_journal_is_refused_not_served(self, tmp_path):
        first = build_service(tmp_path)
        request(first, "POST", "/pet", token("123", {"G21"}), {"n": 1})
        first.close()
        # The owner's object, now with a body that is not a JSON object: it
        # used to open cleanly and then answer the owner's reads with 500.
        with open(tmp_path / "objects.ndjson", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": 1, "path": "/pet", "body": [1, 2]}) + "\n")
        with pytest.raises(CorruptJournalError, match="line 2"):
            build_service(tmp_path)

    def test_a_corrupt_object_journal_leaves_the_acl_journal_closed(
            self, tmp_path, monkeypatch):
        closed = []

        class RecordingAclStore(AclStore):
            def close(self):
                closed.append(self.location)
                super().close()

        monkeypatch.setattr("bola_guard.service.AclStore", RecordingAclStore)
        (tmp_path / "service.key").write_bytes(KEY)
        (tmp_path / "acl.ndjson.objects").write_text(
            json.dumps({"id": 1, "path": "/pet", "body": [1, 2]}) + "\n",
            encoding="utf-8")
        config = ServiceConfig(key_path=str(tmp_path / "service.key"),
                               journal_path=str(tmp_path / "acl.ndjson"))
        with pytest.raises(CorruptJournalError, match="line 1"):
            ReferenceService.from_config(config)
        # from_config opened the ACL journal first; it closed it on the way out.
        assert closed == [tmp_path / "acl.ndjson"]


class TestHttpAdapter:
    def test_real_http_round_trip(self, tmp_path):
        service = build_service(tmp_path)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        base = f"http://127.0.0.1:{port}"
        try:
            created = requests.post(f"{base}/pet",
                                    headers={"api_key": token("123", {"G21"})},
                                    json={"name": "lucky"}, timeout=5)
            assert created.status_code == 201
            pid = created.json()["id"]
            got = requests.get(f"{base}/pet/{pid}",
                               headers={"api_key": token("9", {"G22"})},
                               timeout=5)
            assert got.status_code == 200
            assert got.json()["name"] == "lucky"
            denied = requests.get(f"{base}/pet/{pid}", timeout=5)
            assert denied.status_code == 401
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)

    def test_repeated_reads_and_listings_call_no_json_dumps(
            self, http_server, connect, monkeypatch):
        service = http_server.RequestHandlerClass.service
        owner, reader = token("123", {"G21"}), token("9", {"G22"})
        for n in range(50):
            request(service, "POST", "/pet", owner, {"n": n})
        conn = connect()

        def replies():
            conn.send(f"GET /pet HTTP/1.1\r\nHost: x\r\napi_key: {reader}")
            conn.send(f"GET /pet/7 HTTP/1.1\r\nHost: x\r\napi_key: {owner}")
            return [conn.reply(), conn.reply()]

        warm = replies()
        assert [status for status, _, _ in warm] == [200, 200]
        assert len(json.loads(warm[0][2])) == 50
        calls = []
        dumps = json.dumps
        # store and service both call json.dumps through this one module.
        monkeypatch.setattr(json, "dumps",
                            lambda *a, **k: calls.append(a) or dumps(*a, **k))
        for _ in range(3):
            assert [(s, b) for s, _, b in replies()] == \
                [(s, b) for s, _, b in warm]
        assert calls == []


class TestConfig:
    def test_from_config_wires_everything(self, tmp_path):
        (tmp_path / "service.key").write_bytes(KEY)
        config_file = tmp_path / "config.yaml"
        config_file.write_text(
            f"port: 0\n"
            f"key_path: {tmp_path / 'service.key'}\n"
            f"journal_path: {tmp_path / 'acl.ndjson'}\n",
            encoding="utf-8")
        config = ServiceConfig.load(config_file)
        assert config.port == 0
        service = ReferenceService.from_config(config, clock=lambda: NOW)
        try:
            response = request(service, "POST", "/pet", token("123", {"G21"}),
                               {"name": "lucky"})
            assert response.status == 201
            assert Path(f"{tmp_path}/acl.ndjson.objects").exists()
        finally:
            service.close()


@pytest.fixture
def http_server(tmp_path):
    service = build_service(tmp_path)
    server = make_server(service)
    # A short poll interval keeps shutdown at teardown quick.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def http_port(http_server):
    return http_server.server_address[1]


class RawConnection:
    """A plain socket to the server: requests go out as given, and replies
    come back one at a time."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.reader = self.sock.makefile("rb")

    def send(self, head: str, body: bytes = b"") -> None:
        self.sock.sendall(head.encode("utf-8") + b"\r\n\r\n" + body)

    def reply(self) -> tuple[int, dict[str, str], bytes]:
        """The next reply's status, headers (by lower-cased name) and the
        body its ``Content-Length`` frames (none without one)."""
        status_line = self.reader.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        headers = {}
        while (line := self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        body = self.reader.read(int(headers.get("content-length", 0)))
        return int(status_line.split()[1]), headers, body

    def rest(self, wait: float = IDLE_TIMEOUT_S / 2) -> bytes | None:
        """Everything the server sends before it closes the socket, or None
        if it keeps the socket open for ``wait`` seconds."""
        self.sock.settimeout(wait)
        try:
            return self.reader.read()
        except TimeoutError:
            return None

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@pytest.fixture
def connect(http_port):
    """Open raw connections to a live server; each closes at teardown."""
    opened = []

    def open_connection() -> RawConnection:
        opened.append(RawConnection(http_port))
        return opened[-1]

    yield open_connection
    for conn in opened:
        conn.close()


def create_head(length) -> str:
    return (f"POST /pet HTTP/1.1\r\nHost: x\r\n"
            f"api_key: {token('123', {'G21'})}\r\n"
            f"Content-Length: {length}")


class TestHttpBoundary:
    @pytest.mark.parametrize("length", ["abc", "-5", "-1", "+5", "1_0", "",
                                        "5x", "\u0665", "9" * 5000])
    def test_malformed_content_length_is_400(self, connect, length):
        assert self._refused(connect(), create_head(length), b"{}", 400) == \
            {"code": 400, "reason": "invalid_content_length"}

    def test_well_formed_content_length_still_creates(self, connect):
        body = b'{"name": "lucky"}'
        conn = connect()
        conn.send(create_head(len(body)), body)
        status, _, reply = conn.reply()
        assert status == 201
        assert json.loads(reply) == {"id": 1, "name": "lucky"}

    def test_differing_duplicate_content_lengths_are_400_then_eof(self, connect):
        # Were the first header believed, the tail would be a second request.
        smuggled = (f"GET /admin/acl HTTP/1.1\r\nHost: x\r\n"
                    f"api_key: {token('root', {'admin'})}\r\n\r\n").encode()
        body = b"{}" + smuggled
        head = f"{create_head(2)}\r\nContent-Length: {len(body)}"
        assert self._refused(connect(), head, body, 400) == \
            {"code": 400, "reason": "invalid_content_length"}

    @pytest.mark.parametrize("fields", [
        "Host: x\r\napi_key: {tok}\r\nContent-Length : {n}",
        "Host: x\r\napi_key: {tok}\r\nX-Note\r\nContent-Length: {n}",
        "Host: x\r\napi_key: {tok}\r\nX-Note: a\r\n Content-Length: {n}",
        "Host: x\r\napi_key: {tok}\r\nX-Note: a\rContent-Length: {n}",
        " Content-Length: {n}\r\nHost: x\r\napi_key: {tok}",
    ], ids=["space-before-colon", "no-colon", "folded", "bare-cr",
            "first-line-folded"])
    def test_a_header_line_the_stdlib_misreads_is_400_then_eof(self, connect,
                                                              fields):
        # A front end and the stdlib may read each line differently: one takes
        # the admin request for this request's body, the other for a second.
        smuggled = (f"GET /admin/acl HTTP/1.1\r\nHost: x\r\n"
                    f"api_key: {token('root', {'admin'})}\r\n\r\n").encode()
        head = "POST /pet HTTP/1.1\r\n" + fields.format(
            n=len(smuggled), tok=token("123", {"G21"}))
        assert self._refused(connect(), head, smuggled, 400) == \
            {"code": 400, "reason": "invalid_header"}

    @pytest.mark.parametrize("header, status", [
        ("Content-Length: 5000000", 413),
        ("Content-Length: 5x", 400),
        ("Content-Length: 2\r\nTransfer-Encoding: chunked", 501),
    ], ids=["too-large", "bad-length", "transfer-encoding"])
    def test_a_refused_expect_100_gets_its_refusal_first(self, connect, header,
                                                         status):
        # RFC 9110 §10.1.1: no 100 Continue for a body that will be refused.
        head = (f"POST /pet HTTP/1.1\r\nHost: x\r\n"
                f"api_key: {token('123', {'G21'})}\r\n"
                f"Expect: 100-continue\r\n{header}")
        assert self._refused(connect(), head, b"", status)["code"] == status

    def test_an_accepted_expect_100_is_continued(self, connect):
        conn = connect()
        conn.send(f"{create_head(2)}\r\nExpect: 100-continue")
        assert conn.reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert conn.reader.readline() == b"\r\n"
        conn.sock.sendall(b"{}")
        assert conn.reply()[0] == 201

    def test_identical_duplicate_content_lengths_count_as_one(self, connect):
        conn = connect()
        conn.send(f"{create_head(2)}\r\nContent-Length: 2", b"{}")
        assert conn.reply()[0] == 201

    @staticmethod
    def _refused(conn: RawConnection, head: str, body: bytes,
                 status: int) -> dict:
        """Send a request the adapter must refuse; return the reply body
        after checking the status, that the reply says ``Connection: close``,
        and that the server then closed the socket at once."""
        conn.send(head, body)
        got, headers, reply = conn.reply()
        assert got == status, reply
        assert headers["connection"] == "close"
        assert conn.rest() == b""
        return json.loads(reply)

    @pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 10 ** 12, 9 ** 99])
    def test_body_above_the_cap_is_413_unread(self, connect, length):
        assert self._refused(connect(), create_head(length), b"{}", 413) == \
            {"code": 413, "reason": "body_too_large"}

    @pytest.mark.parametrize("encoding", ["chunked", "identity", "gzip, chunked"])
    def test_any_transfer_encoding_is_501(self, connect, encoding):
        head = f"{create_head(2)}\r\nTransfer-Encoding: {encoding}"
        body = b"2\r\n{}\r\n0\r\n\r\n"
        assert self._refused(connect(), head, body, 501) == \
            {"code": 501, "reason": "transfer_encoding_unsupported"}

    def test_a_stalled_body_is_408(self, connect):
        # Content-Length under the cap, but only 2 of its bytes ever arrive.
        assert self._refused(connect(), create_head(1000000), b"{}", 408) == \
            {"code": 408, "reason": "body_timeout"}

    @pytest.mark.parametrize("sent", [b"", b"GET /pet HTTP/1.1\r\n",
                                      b"GET /pet HTTP/1.1\r\nHost: x\r\n"])
    def test_a_silent_connection_is_closed_after_the_idle_timeout(self, http_port,
                                                                  sent):
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", http_port), timeout=5) as sock:
            sock.sendall(sent)
            # A server that keeps the socket open makes this raise a timeout.
            assert sock.recv(65536) == b""
        assert IDLE_TIMEOUT_S - 0.5 < time.monotonic() - started < 4.5

    def test_a_body_at_the_cap_is_read(self, connect):
        body = b'{"name": "' + b"x" * (MAX_BODY_BYTES - 12) + b'"}'
        assert len(body) == MAX_BODY_BYTES
        conn = connect()
        conn.send(create_head(len(body)), body)
        assert conn.reply()[0] == 201

    def test_requests_on_one_connection_get_their_replies_in_order(self, connect):
        body = b'{"name": "lucky"}'
        read = f"GET /pet/1 HTTP/1.1\r\nHost: x\r\napi_key: {token('9', {'G22'})}"
        # An HTTP/1.0 client keeps the connection only when it asks to.
        read_1_0 = (read.replace("HTTP/1.1", "HTTP/1.0")
                    + "\r\nConnection: keep-alive\r\n\r\n")
        conn = connect()
        # Pipelined: the read arrives before the create is answered.
        conn.send(create_head(len(body)), body + read_1_0.encode())
        replies = [conn.reply(), conn.reply()]
        conn.send(read)
        replies.append(conn.reply())
        assert [(status, json.loads(reply)) for status, _, reply in replies] == \
            [(201, {"id": 1, "name": "lucky"})] + \
            [(200, {"id": 1, "name": "lucky"})] * 2
        assert [headers["connection"] for _, headers, _ in replies] == \
            ["keep-alive"] * 3

    def test_a_204_carries_no_content_length(self, connect):
        conn = connect()
        conn.send(create_head(2), b"{}")
        assert conn.reply()[0] == 201
        conn.send(f"DELETE /pet/1 HTTP/1.1\r\nHost: x\r\n"
                  f"api_key: {token('123', {'G21'})}")
        status, headers, body = conn.reply()
        assert (status, body) == (204, b"")
        assert "content-length" not in headers
        assert headers["connection"] == "keep-alive"
        conn.send(create_head(2), b"{}")
        status, _, reply = conn.reply()
        assert (status, json.loads(reply)) == (201, {"id": 2})

    def test_one_empty_line_before_a_request_line_is_skipped(self, connect):
        # RFC 9112 §2.2: a client may send a stray CRLF after a POST body.
        read = f"GET /pet HTTP/1.1\r\nHost: x\r\napi_key: {token('9', {'G22'})}"
        conn = connect()
        conn.send(create_head(2), b"{}\r\n" + read.encode() + b"\r\n\r\n")
        assert [conn.reply()[0], conn.reply()[0]] == [201, 200]
        # A second empty line in a row still ends the connection.
        conn.sock.sendall(b"\r\n\r\n" + read.encode() + b"\r\n\r\n")
        assert conn.rest() == b""

    @pytest.mark.parametrize("request_line, header", [
        ("GET /pet HTTP/1.0", ""),
        ("GET /pet HTTP/1.1", "Connection: close\r\n"),
        ("GET /pet", ""),
    ])
    def test_a_request_that_asks_for_close_gets_its_reply_then_eof(
            self, connect, request_line, header):
        conn = connect()
        conn.send(f"{request_line}\r\nHost: x\r\n{header}"
                  f"api_key: {token('9', {'G22'})}")
        status, headers, reply = conn.reply()
        assert (status, json.loads(reply)) == (200, [])
        assert headers["connection"] == "close"
        assert conn.rest() == b""

    def test_an_idle_kept_alive_connection_is_closed_after_the_idle_timeout(
            self, connect):
        probe = f"GET /pet HTTP/1.1\r\nHost: x\r\napi_key: {token('9', {'G22'})}"
        idle = connect()
        idle.send(probe)
        assert idle.reply()[0] == 200
        started = time.monotonic()
        assert idle.rest(wait=IDLE_TIMEOUT_S + 2.5) == b""
        assert IDLE_TIMEOUT_S - 0.5 < time.monotonic() - started \
            < IDLE_TIMEOUT_S + 2.5
        fresh = connect()
        fresh.send(probe)
        assert fresh.reply()[0] == 200

    @pytest.mark.parametrize("head, status, reason", [
        ("GET /" + "a" * 65536 + " HTTP/1.1", 414, "request_line_too_long"),
        ("GET /pet HTTP/1.1\r\nX-Note: " + "a" * 65536, 431,
         "header_line_too_long"),
        ("GET /pet HTTP/1.1" + "\r\nX-Note: a" * 100, 431, "too_many_header_lines"),
        ("GET /pet HTTP/1.x", 400, "invalid_version"),
        ("GET /pet HTTP/1", 400, "invalid_version"),
        ("GET /a b HTTP/1.1", 400, "invalid_request_line"),
        ("GET", 400, "invalid_request_line"),
        ("POST /pet", 400, "invalid_request_line"),
        ("GET /pet HTTP/2.0", 505, "version_not_supported"),
        ("PATCH /pet HTTP/1.1", 501, "method_not_implemented"),
        ("get /pet HTTP/1.1", 501, "method_not_implemented"),
    ], ids=["long-request-line", "long-header-line", "100-header-lines",
            "bad-version", "version-without-minor", "four-words", "one-word",
            "http-0.9-post", "http-2", "patch", "lower-case-get"])
    def test_a_request_the_adapter_does_not_take_is_refused_then_eof(
            self, connect, head, status, reason):
        assert self._refused(connect(), head, b"", status) == \
            {"code": status, "reason": reason}

    def test_ninety_nine_header_lines_are_read(self, connect):
        conn = connect()
        conn.send(f"GET /pet HTTP/1.1\r\napi_key: {token('9', {'G22'})}"
                  + "\r\nX-Note: a" * 98)
        assert conn.reply()[0] == 200

    def test_a_head_request_is_501_without_a_body(self, connect):
        conn = connect()
        conn.send("HEAD /pet HTTP/1.1\r\nHost: x")
        status, headers, body = conn.reply()
        assert (status, body) == (501, b"")
        assert int(headers["content-length"]) > 0
        assert headers["connection"] == "close"
        assert conn.rest() == b""

    @pytest.mark.parametrize("first, second", [("garbage", "valid"),
                                               ("valid", "garbage")])
    def test_differing_duplicate_api_keys_are_400_then_eof(self, connect,
                                                           first, second):
        # Were either header believed, the order of the two would decide.
        tokens = {"garbage": "garbage", "valid": token("9", {"G22"})}
        head = (f"GET /pet HTTP/1.1\r\nHost: x\r\napi_key: {tokens[first]}"
                f"\r\nApi_Key: {tokens[second]}")
        assert self._refused(connect(), head, b"", 400) == \
            {"code": 400, "reason": "invalid_header"}

    def test_identical_duplicate_api_keys_count_as_one(self, connect):
        tok = token("9", {"G22"})
        conn = connect()
        conn.send(f"GET /pet HTTP/1.1\r\napi_key: {tok}\r\nAPI_KEY:  {tok} ")
        assert conn.reply()[0] == 200

    @pytest.mark.parametrize("request_line, header, connection", [
        ("GET /pet HTTP/1.1", "Connection: close, te", "close"),
        ("GET /pet HTTP/1.1", "Connection: TE,\tClose", "close"),
        ("GET /pet HTTP/1.1", "Connection: te\r\nConnection: close", "close"),
        ("GET /pet HTTP/1.0", "Connection: te, Keep-Alive", "keep-alive"),
    ])
    def test_connection_is_read_as_a_token_list(self, connect, request_line,
                                                header, connection):
        conn = connect()
        head = f"{request_line}\r\n{header}\r\napi_key: {token('9', {'G22'})}"
        conn.send(head)
        status, headers, _ = conn.reply()
        assert (status, headers["connection"]) == (200, connection)
        if connection == "close":
            assert conn.rest() == b""
        else:
            conn.send(head)
            assert conn.reply()[0] == 200

    @pytest.mark.parametrize("value, status", [
        ("a" + " " * 60000 + "\rZ", 400),
        (" " * 60000 + "\rZ", 400),
        ("a" + " " * 60000 + "b", 200),
    ], ids=["bare-cr", "leading-run-bare-cr", "well-formed"])
    def test_a_long_whitespace_run_in_a_value_is_read_in_linear_time(
            self, connect, value, status):
        # A regex that pads a lazy value group backtracks cubically here,
        # holding the GIL: one request would stall every connection.
        conn = connect()
        started = time.monotonic()
        conn.send(f"GET /pet HTTP/1.1\r\napi_key: {token('9', {'G22'})}\r\n"
                  f"X-Note: {value}")
        assert conn.reply()[0] == status
        assert time.monotonic() - started < IDLE_TIMEOUT_S / 2

    def test_a_leading_double_slash_collapses(self, connect):
        conn = connect()
        conn.send(f"GET ///pet HTTP/1.1\r\napi_key: {token('9', {'G22'})}")
        status, _, reply = conn.reply()
        assert (status, json.loads(reply)) == (200, [])

    @pytest.mark.parametrize("sent", [
        b"\r\n",
        b"GET /pet HTTP/1.1\r\nHost: x\r\n",
        (create_head(10) + "\r\n\r\n{}").encode(),
    ], ids=["blank-request-line", "inside-the-headers", "inside-the-body"])
    def test_a_request_cut_short_is_closed_without_a_reply(self, connect, sent):
        conn = connect()
        conn.sock.sendall(sent)
        conn.sock.shutdown(socket.SHUT_WR)
        assert conn.rest() == b""

    @pytest.mark.parametrize("sent", [
        b"POST /pet HTTP/1.1\r\nHost: x\r\n",
        (create_head(1000) + "\r\n\r\n{").encode(),
    ], ids=["inside-the-headers", "inside-the-body"])
    def test_a_client_that_resets_is_dropped_without_a_traceback(
            self, http_server, connect, monkeypatch, sent):
        errors, closed = [], threading.Semaphore(0)
        shutdown_request = http_server.shutdown_request

        def shutdown(request):
            shutdown_request(request)
            closed.release()
        monkeypatch.setattr(http_server, "handle_error",
                            lambda request, address: errors.append(sys.exc_info()))
        monkeypatch.setattr(http_server, "shutdown_request", shutdown)
        with socket.create_connection(http_server.server_address, timeout=5) as sock:
            sock.sendall(sent)
            time.sleep(0.1)  # the server now waits for the rest
            # Linger 0: close sends a reset, not a FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        assert closed.acquire(timeout=5)
        assert errors == []
        probe = connect()
        probe.send(f"GET /pet HTTP/1.1\r\napi_key: {token('9', {'G22'})}")
        assert probe.reply()[0] == 200


# ---------------------------------------------------------------------------
# Generated requests at the socket

TCHARS = "!#$%&'*+-.^_`|~" + string.digits + string.ascii_letters
PCHARS = string.ascii_letters + string.digits + "-._~!$&'()*+,;=:@%"
# Visible ASCII and obs-text, less U+0085, at which the stdlib's email
# parser (str.splitlines) splits a line.
VCHARS = "".join(map(chr, [*range(0x21, 0x7F), *range(0x80, 0x85),
                           *range(0x86, 0x100)]))
# The replies the adapter and the service give; a 500 is a fault.
DOCUMENTED = {100, 200, 201, 204, 400, 401, 403, 404, 405, 408, 413, 414,
              431, 501, 505}
SHARED_SERVER = settings(derandomize=True, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])  # one server serves every example


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw``, end the sending side, and return all that comes back
    before the server closes the connection."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=IDLE_TIMEOUT_S + 1) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # a close that leaves request bytes unread is a reset
    return b"".join(chunks)


def replies(data: bytes) -> list[tuple[int, bytes]]:
    """The (status, body) of each reply in ``data``; a reply cut short is
    kept with the body bytes that arrived."""
    found = []
    while data:
        head, blank, data = data.partition(b"\r\n\r\n")
        assert blank, head
        status_line, *fields = head.split(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        length = dict(f.lower().split(b": ", 1) for f in fields).get(
            b"content-length", b"0")
        body, data = data[:int(length)], data[int(length):]
        found.append((int(status_line.split()[1]), body))
    return found


@st.composite
def well_formed_requests(draw):
    """A request with fields of any token name but the four the adapter
    reads itself: (its bytes, its request line and header block)."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]))
    segments = draw(st.lists(st.text(PCHARS, min_size=1, max_size=8), max_size=4))
    target = "/" + "/".join(segments)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    name = st.text(TCHARS, min_size=1, max_size=10).filter(
        lambda n: n.lower() not in
        {"content-length", "transfer-encoding", "expect", TOKEN_HEADER})
    value = st.text(VCHARS + " \t", max_size=20).map(lambda v: v.strip(" \t"))
    fields = draw(st.lists(st.tuples(name, value), max_size=8))
    body = draw(st.binary(max_size=40))
    if body or draw(st.booleans()):
        fields.insert(draw(st.integers(0, len(fields))),
                      ("Content-Length", str(len(body))))
    ows, eol = st.sampled_from(["", " ", "\t", " \t "]), st.sampled_from(["\r\n", "\n"])
    head = (f"{method} {target} {version}\r\n" + "".join(
        f"{n}:{draw(ows)}{v}{draw(ows)}{draw(eol)}" for n, v in fields) + "\r\n")
    return head.encode("latin-1") + body, head.encode("latin-1")


MUTATED_FIELDS = [
    b"Content-Length: 3", b"Content-Length: 99", b"Content-Length: -1",
    b"Content-Length: +17", b"Content-Length: 0x11", b"Content-Length: 17, 17",
    b"Content-Length: \xd9\xa5", b"Content-Length: " + b"1" * 30,
    b"Transfer-Encoding: chunked", b"transfer-encoding:identity",
    b"Transfer-Encoding : chunked", b"Expect: 100-continue", b"api_key: garbage",
    b"Connection: close, te", b" folded", b"X-Note", b"X-Note: a\rb",
    b"X-Note: \xff\xfe",
]


@st.composite
def mutated_requests(draw):
    """A valid create, then some of: fields added, duplicated or dropped,
    and bytes cut, inserted or replaced."""
    body = b'{"name": "lucky"}'
    lines = [b"POST /pet HTTP/1.1", b"Host: x",
             f"api_key: {token('123', {'G21'})}".encode(),
             b"Content-Length: %d" % len(body)]
    for _ in range(draw(st.integers(0, 3))):
        if len(lines) > 1 and draw(st.booleans()):
            del lines[draw(st.integers(1, len(lines) - 1))]
        else:
            lines.insert(draw(st.integers(1, len(lines))),
                         draw(st.sampled_from(MUTATED_FIELDS + lines[1:])))
    raw = b"\r\n".join(lines) + b"\r\n\r\n" + body
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(raw)))
        edit = draw(st.sampled_from(["cut", "insert", "replace", "bare-lf",
                                     "bare-cr"]))
        if edit == "cut":
            raw = raw[:at]
        elif edit in ("bare-lf", "bare-cr"):
            end = raw.find(b"\r\n", at)
            lone = b"\n" if edit == "bare-lf" else b"\r"
            raw = raw if end < 0 else raw[:end] + lone + raw[end + 2:]
        else:
            byte = bytes([draw(st.integers(0, 255))])
            raw = raw[:at] + byte + raw[at + (edit == "replace"):]
    return raw


class TestGeneratedRequests:
    @settings(SHARED_SERVER, max_examples=150)
    @given(well_formed_requests())
    def test_the_adapter_reads_what_the_stdlib_reads(self, http_server,
                                                     monkeypatch, generated):
        raw, head = generated
        calls = []

        def record(method, url, headers, body):
            calls.append((method, url, headers, body))
            return Response(200, b"[]")
        monkeypatch.setattr(http_server.RequestHandlerClass.service,
                            "handle_request", record)
        assert [status for status, _ in
                replies(exchange(http_server.server_address[1], raw))] == [200]

        request_line, _, block = head.partition(b"\r\n")
        method, target, _ = request_line.decode("latin-1").split()
        message = http.client.parse_headers(io.BytesIO(block))
        # RFC 9112 §5 drops the whitespace after a value; the stdlib keeps it.
        headers = {name.lower(): value.rstrip(" \t")
                   for name, value in message.items()}
        body = raw[len(head):][:int(message.get("Content-Length", 0))]
        assert calls == [(method, target, headers, body)]

    @settings(SHARED_SERVER, max_examples=250)
    @given(mutated_requests())
    def test_mutated_bytes_get_a_documented_reply_or_a_close(
            self, http_server, monkeypatch, raw):
        errors = []
        monkeypatch.setattr(http_server, "handle_error",
                            lambda request, address: errors.append(sys.exc_info()))
        port = http_server.server_address[1]
        started = time.monotonic()
        answered = replies(exchange(port, raw))
        assert time.monotonic() - started < IDLE_TIMEOUT_S + 0.5
        for status, body in answered:
            assert status in DOCUMENTED
            if status >= 400 and body:
                assert json.loads(body)["code"] == status
        probe = (f"GET /pet HTTP/1.1\r\napi_key: {token('123', {'G21'})}\r\n"
                 f"\r\n").encode()
        [(status, body)] = replies(exchange(port, probe))
        assert status == 200 and isinstance(json.loads(body), list)
        assert errors == []


def test_the_package_loads_no_stdlib_http_server_client_or_email():
    import bola_guard

    code = ("import sys, bola_guard; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'email' or m in ('http.server', 'http.client')))")
    env = {**os.environ, "PYTHONPATH": str(Path(bola_guard.__file__).parents[1])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded == "[]\n"
