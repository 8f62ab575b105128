import itertools
import random

import pytest
from hypothesis import given, strategies as st

from bola_guard import (
    AccessControlEntry,
    AclStore,
    Action,
    AuthToken,
    AuthzDecision,
    AuthzEngine,
    DecisionReason,
    DuplicateObjectError,
    GroupRule,
    GroupRuleSet,
    NoSuchObjectError,
    NotOwnerError,
    default_rule_set,
)
from bola_guard.acl import apply_grant

from oracle import default_rule_rows, oracle_access, oracle_create


def claims(user_id, groups):
    return AuthToken(user_id=user_id, user_name=user_id, groups=frozenset(groups),
                     expiry=2_000_000_000.0)


@pytest.fixture
def engine(tmp_path):
    store = AclStore.open(tmp_path / "acl.ndjson")
    yield AuthzEngine(default_rule_set(), store)
    store.close()


class TestAuthorizeCreate:
    """A creation: ``authorize_access`` with ``Action.CREATE`` and no id."""

    def test_group_with_create_action_is_allowed(self, engine):
        decision = engine.authorize_access(claims("123", {"G11"}), "/user",
                                           Action.CREATE, None)
        assert decision.allowed
        assert decision.reason is DecisionReason.GROUP_GRANT
        assert decision.matched_rule.group == "G11"

    def test_read_only_group_cannot_create(self, engine):
        decision = engine.authorize_access(claims("123", {"G22"}), "/pet",
                                           Action.CREATE, None)
        assert not decision.allowed
        assert decision.reason is DecisionReason.NO_GROUP_RULE

    def test_empty_groups_are_denied(self, engine):
        assert not engine.authorize_access(claims("123", set()), "/pet",
                                           Action.CREATE, None).allowed

    def test_an_own_only_create_rule_grants_without_an_acl_lookup(
            self, engine, monkeypatch):
        def fail(path, object_id):
            raise AssertionError("ACL lookup")

        monkeypatch.setattr(engine.store, "get", fail)
        decision = engine.authorize_access(claims("123", {"G21"}), "/pet",
                                           Action.CREATE, None)
        assert decision.reason is DecisionReason.GROUP_GRANT
        assert decision.matched_rule.ownership_required


class TestRecordCreation:
    def test_entry_matches_creator(self, engine):
        ace = engine.record_creation(claims("123", {"G21"}), "/pets", 152)
        assert ace == AccessControlEntry(
            id=152, path="/pets", owner="123", users_ro=(), users_rw=("123",))

    def test_duplicate_key_is_rejected(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 1)
        with pytest.raises(DuplicateObjectError):
            engine.record_creation(claims("456", {"G21"}), "/pet", 1)

    def test_two_objects_same_owner(self, engine):
        first = engine.record_creation(claims("123", {"G21"}), "/pet", 1)
        second = engine.record_creation(claims("123", {"G21"}), "/pet", 2)
        assert first.owner == second.owner == "123"
        assert len(engine.store.entries()) == 2


class TestAuthorizeAccess:
    def test_owner_updates_own_object(self, engine):
        engine.record_creation(claims("123", {"G11"}), "/user", 7)
        decision = engine.authorize_access(claims("123", {"G11"}), "/user",
                                           Action.UPDATE, 7)
        assert decision.allowed
        assert decision.reason is DecisionReason.OWNERSHIP_GRANT

    def test_delete_anything_group_skips_the_acl(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 7)
        decision = engine.authorize_access(claims("999", {"G23"}), "/pet",
                                           Action.DELETE, 7)
        assert decision.allowed
        assert decision.reason is DecisionReason.GROUP_GRANT

    def test_non_owner_without_listing_is_denied(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 7)
        decision = engine.authorize_access(claims("999", {"G21"}), "/pet",
                                           Action.READ, 7)
        assert not decision.allowed
        assert decision.reason is DecisionReason.NOT_OWNER

    def test_missing_entry_under_ownership_requirement_denies(self, engine):
        decision = engine.authorize_access(claims("123", {"G21"}), "/pet",
                                           Action.READ, 404)
        assert not decision.allowed
        assert decision.reason is DecisionReason.NO_SUCH_OBJECT

    def test_missing_entry_under_waiver_still_allows(self, engine):
        decision = engine.authorize_access(claims("123", {"G22"}), "/pet",
                                           Action.READ, 404)
        assert decision.allowed
        assert decision.reason is DecisionReason.GROUP_GRANT

    def test_ro_listing_grants_read_but_not_update(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 7)
        engine.grant("123", 7, "/pet", "456", "ro")
        read = engine.authorize_access(claims("456", {"G21"}), "/pet",
                                       Action.READ, 7)
        assert read.allowed and read.reason is DecisionReason.ACL_GRANT
        update = engine.authorize_access(claims("456", {"G21"}), "/pet",
                                         Action.UPDATE, 7)
        assert not update.allowed and update.reason is DecisionReason.NOT_OWNER

    def test_rw_listing_grants_update(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 7)
        engine.grant("123", 7, "/pet", "456", "rw")
        update = engine.authorize_access(claims("456", {"G21"}), "/pet",
                                         Action.UPDATE, 7)
        assert update.allowed and update.reason is DecisionReason.ACL_GRANT

    def test_create_action_is_refused_here(self, engine):
        with pytest.raises(ValueError, match="a creation has no object id"):
            engine.authorize_access(claims("1", {"G21"}), "/pet",
                                    Action.CREATE, 1)


class TestAuthorizeListing:
    """``object_id`` None: a read of every object of the path."""

    @pytest.mark.parametrize("groups, reason, rule_group", [
        ({"G23"}, DecisionReason.NO_GROUP_RULE, None),
        (set(), DecisionReason.NO_GROUP_RULE, None),
        ({"G22"}, DecisionReason.GROUP_GRANT, "G22"),
        ({"G21", "G22"}, DecisionReason.GROUP_GRANT, "G22"),
        ({"G21"}, DecisionReason.OWNERSHIP_GRANT, "G21"),
    ])
    def test_the_rules_alone_decide_a_listing(self, engine, groups, reason,
                                              rule_group):
        decision = engine.authorize_access(claims("123", groups), "/pet",
                                           Action.READ, None)
        assert decision.reason is reason
        assert decision.allowed is (reason is not DecisionReason.NO_GROUP_RULE)
        assert getattr(decision.matched_rule, "group", None) == rule_group

    def test_an_own_only_listing_looks_up_no_entry(self, engine, monkeypatch):
        def fail(path, object_id):
            raise AssertionError("ACL lookup")

        monkeypatch.setattr(engine.store, "get", fail)
        decision = engine.authorize_access(claims("123", {"G21"}), "/pet",
                                           Action.READ, None)
        assert decision.reason is DecisionReason.OWNERSHIP_GRANT

    @pytest.mark.parametrize("action", [Action.UPDATE, Action.DELETE])
    def test_a_write_needs_an_object_id(self, engine, action):
        with pytest.raises(ValueError, match="needs an object id"):
            engine.authorize_access(claims("123", {"G21", "G23"}), "/pet",
                                    action, None)


class TestAuthorizeAdmin:
    @pytest.mark.parametrize("groups, allowed, reason", [
        ({"admin"}, True, DecisionReason.GROUP_GRANT),
        ({"admin", "G21"}, True, DecisionReason.GROUP_GRANT),
        ({"G11", "G21", "G22", "G23"}, False, DecisionReason.NO_GROUP_RULE),
        (set(), False, DecisionReason.NO_GROUP_RULE),
    ])
    def test_only_the_admin_group_inspects_the_acl(self, engine, groups,
                                                   allowed, reason):
        decision = engine.authorize_admin(claims("0", groups))
        assert (decision.allowed, decision.reason) == (allowed, reason)
        assert decision.matched_rule is None

    def test_the_rule_table_cannot_grant_inspection(self, tmp_path):
        rules = GroupRuleSet([GroupRule("/admin/acl", "G21", frozenset(Action),
                                        ownership_required=False)])
        with AclStore.open(tmp_path / "acl.ndjson") as store:
            decision = AuthzEngine(rules, store).authorize_admin(
                claims("0", {"G21"}))
        assert not decision.allowed


class TestGrant:
    def test_owner_grants_ro(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 152)
        ace = engine.grant("123", 152, "/pet", "456", "ro")
        assert ace.users_ro == ("456",)
        assert engine.store.get("/pet", 152).users_ro == ("456",)

    def test_non_owner_cannot_grant(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 152)
        with pytest.raises(NotOwnerError):
            engine.grant("456", 152, "/pet", "789", "ro")

    def test_grant_to_self_is_idempotent(self, engine):
        before = engine.record_creation(claims("123", {"G21"}), "/pet", 152)
        after = engine.grant("123", 152, "/pet", "123", "rw")
        assert after == before

    def test_owner_cannot_be_downgraded(self, engine):
        before = engine.record_creation(claims("123", {"G21"}), "/pet", 152)
        after = engine.grant("123", 152, "/pet", "123", "ro")
        assert after == before
        assert after.owner in after.users_rw

    def test_ro_to_rw_moves_between_lists(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 152)
        engine.grant("123", 152, "/pet", "456", "ro")
        ace = engine.grant("123", 152, "/pet", "456", "rw")
        assert "456" not in ace.users_ro
        assert "456" in ace.users_rw

    def test_grant_on_missing_object(self, engine):
        with pytest.raises(NoSuchObjectError):
            engine.grant("123", 999, "/pet", "456", "ro")

    def test_bad_level_rejected(self, engine):
        engine.record_creation(claims("123", {"G21"}), "/pet", 152)
        with pytest.raises(ValueError):
            engine.grant("123", 152, "/pet", "456", "admin")


class TestEntryInvariants:
    def test_the_owner_is_always_in_the_rw_list(self):
        ace = AccessControlEntry(id=1, path="/pet", owner="123",
                                 users_ro=("7",), users_rw=("9",))
        assert ace.users_rw == ("123", "9")
        assert AccessControlEntry.for_new_object(1, "/pet", "123").users_rw == ("123",)
        assert ace.can_read("123") and ace.can_write("123")
        assert ace.can_read("7") and not ace.can_write("7")

    @pytest.mark.parametrize("fields, message", [
        (dict(id=-1), "non-negative"),
        (dict(id=1, users_ro=("9",), users_rw=("9",)), "disjoint"),
        (dict(id=1, users_ro=("123",)), "disjoint"),
    ])
    def test_an_invalid_entry_is_refused(self, fields, message):
        with pytest.raises(ValueError, match=message):
            AccessControlEntry(path="/pet", owner="123", **fields)

    @pytest.mark.parametrize("object_id", ["7", True, 2.9])
    def test_a_record_id_must_be_an_int(self, object_id):
        record = {"id": object_id, "path": "/pet", "owner": "123"}
        with pytest.raises(ValueError, match="id must be an integer"):
            AccessControlEntry.from_record(record)


    def test_an_allow_needs_an_allow_reason(self):
        with pytest.raises(ValueError, match="cannot accompany an allow"):
            AuthzDecision(True, DecisionReason.NOT_OWNER)


class TestDecision:
    def test_allowed_agrees_exactly_with_the_grant_reasons(self):
        grants = {"group_grant", "ownership_grant", "acl_grant"}
        for reason in DecisionReason:
            granted = reason.value in grants
            assert AuthzDecision(granted, reason).allowed is granted
            with pytest.raises(ValueError, match="cannot accompany"):
                AuthzDecision(not granted, reason)


class TestCreationLinkage:
    def test_owner_can_update_what_they_created(self, engine):
        for group, path in (("G11", "/user"), ("G21", "/pet")):
            token = claims("123", {group})
            assert engine.authorize_access(token, path, Action.CREATE,
                                           None).allowed
            ace = engine.record_creation(token, path, 5)
            decision = engine.authorize_access(token, path, Action.UPDATE, ace.id)
            assert decision.allowed


class TestOracleEquivalence:
    """Every decision over a small universe must agree with the naive oracle."""

    GROUPS = ["G11", "G21", "G22", "G23"]
    PATHS = ["/pet", "/user"]
    USERS = ["u1", "u2", "u3"]

    def test_exhaustive_agreement(self, engine):
        rows = default_rule_rows()
        subsets = [set(c) for r in (0, 1, 2)
                   for c in itertools.combinations(self.GROUPS, r)]
        checked = 0
        for groups, path, user in itertools.product(subsets, self.PATHS,
                                                    self.USERS):
            token = claims(user, groups)
            expected = oracle_create(rows, groups, path)
            assert engine.authorize_access(token, path, Action.CREATE,
                                           None).allowed == expected
            checked += 1

            for action, owner_is_requester, membership, present in \
                    itertools.product(
                        [Action.READ, Action.UPDATE, Action.DELETE],
                        [True, False], ["none", "ro", "rw"], [True, False]):
                owner = user if owner_is_requester else "someone-else"
                object_id = 1 if present else 2
                store = engine.store
                existing = store.get(path, 1)
                if existing is not None:
                    store.delete(path, 1)
                ace = AccessControlEntry.for_new_object(1, path, owner)
                if membership != "none" and user != owner:
                    ace = apply_grant(ace, owner, user, membership)
                store.put(ace)

                got = engine.authorize_access(token, path, action, object_id)
                record = ace.to_record() if present else None
                expected = oracle_access(rows, groups, path, action.value,
                                         user, record)
                assert got.allowed == expected, (
                    groups, path, action, user, owner, membership, present)
                checked += 1
        assert checked > 2000


class TestDenyByDefault:
    def test_random_probes_on_empty_rules_never_allow(self, tmp_path):
        store = AclStore.open(tmp_path / "empty.ndjson")
        engine = AuthzEngine(GroupRuleSet(), store)
        rng = random.Random(20240811)
        for _ in range(2000):
            user = f"u{rng.randrange(50)}"
            groups = {f"G{rng.randrange(9)}" for _ in range(rng.randrange(4))}
            path = rng.choice(["/pet", "/user", "/order"])
            token = claims(user, groups)
            if rng.random() < 0.25:
                assert not engine.authorize_access(token, path, Action.CREATE,
                                                   None).allowed
            else:
                action = rng.choice([Action.READ, Action.UPDATE, Action.DELETE])
                decision = engine.authorize_access(token, path, action,
                                                   rng.randrange(5))
                assert not decision.allowed
        store.close()


class TestAceIntegrity:
    @given(st.lists(st.tuples(st.sampled_from(["o", "a", "b", "c"]),
                              st.sampled_from(["ro", "rw"])), max_size=30))
    def test_invariants_survive_any_grant_sequence(self, grants):
        ace = AccessControlEntry.for_new_object(1, "/pet", "o")
        for grantee, level in grants:
            ace = apply_grant(ace, "o", grantee, level)
            assert ace.owner == "o"
            assert ace.owner in ace.users_rw
            assert not set(ace.users_ro) & set(ace.users_rw)
