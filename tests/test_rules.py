import pytest
import yaml
from hypothesis import given, strategies as st

from bola_guard import (
    Action,
    GroupRule,
    GroupRuleSet,
    RuleSetError,
    default_rule_set,
    load_rules,
    matching_rule,
)

from oracle import oracle_access

CRUD = frozenset(Action)


class TestMatchingRule:
    def test_own_only_when_every_match_requires_ownership(self):
        rules = default_rule_set()
        assert matching_rule(rules, {"G21"}, "/pet",
                             Action.READ).ownership_required

    def test_ownership_waiver_overrides_own_only(self):
        rules = default_rule_set()
        assert not matching_rule(rules, {"G21", "G22"}, "/pet",
                                 Action.READ).ownership_required

    def test_no_matching_rule_denies(self):
        rules = default_rule_set()
        assert matching_rule(rules, {"G23"}, "/pet", Action.UPDATE) is None

    def test_empty_groups_deny(self):
        assert matching_rule(default_rule_set(), set(), "/pet",
                             Action.READ) is None

    def test_override_is_per_action(self):
        # The read waiver of G22 must not widen update.
        rules = default_rule_set()
        assert matching_rule(rules, {"G21", "G22"}, "/pet",
                             Action.UPDATE).ownership_required

    def test_resolved_rule_prefers_the_waiving_rule(self):
        rules = default_rule_set()
        rule = matching_rule(rules, {"G21", "G22"}, "/pet", Action.READ)
        assert rule.group == "G22"
        assert not rule.ownership_required


class TestRuleSet:
    def test_duplicate_path_group_pair_rejected(self):
        rules = GroupRuleSet([GroupRule("/pet", "G21", CRUD, True)])
        with pytest.raises(RuleSetError):
            rules.add(GroupRule("/pet", "G21", frozenset({Action.READ}), False))

    def test_empty_actions_rejected(self):
        with pytest.raises(RuleSetError):
            GroupRule("/pet", "G21", frozenset(), True)

    def test_path_must_start_with_slash(self):
        with pytest.raises(RuleSetError):
            GroupRule("pet", "G21", CRUD, True)

    def test_default_rule_set_is_the_documented_table(self):
        rules = default_rule_set()
        assert len(rules) == 4
        table = {(r.path, r.group): (set(a.value for a in r.actions),
                                     r.ownership_required) for r in rules}
        assert table[("/user", "G11")] == (
            {"create", "read", "update", "delete"}, True)
        assert table[("/pet", "G21")] == (
            {"create", "read", "update", "delete"}, True)
        assert table[("/pet", "G22")] == ({"read"}, False)
        assert table[("/pet", "G23")] == ({"delete"}, False)


class TestRuleFiles:
    def test_load_dump_round_trip(self, tmp_path):
        path = tmp_path / "rules.yaml"
        rows = [{"path": r.path, "group": r.group,
                 "actions": sorted(a.value for a in r.actions),
                 "ownership": r.ownership_required}
                for r in default_rule_set()]
        path.write_text(yaml.safe_dump(rows, sort_keys=False), encoding="utf-8")
        loaded = load_rules(path)
        assert {(r.path, r.group, r.actions, r.ownership_required)
                for r in loaded} == \
               {(r.path, r.group, r.actions, r.ownership_required)
                for r in default_rule_set()}

    def test_load_json_list_works(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('[{"path": "/pet", "group": "G21", '
                        '"actions": ["read"], "ownership": false}]',
                        encoding="utf-8")
        rules = load_rules(path)
        assert not matching_rule(rules, {"G21"}, "/pet",
                                 Action.READ).ownership_required

    def test_unknown_action_name_rejected(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("- path: /pet\n  group: G21\n  actions: [browse]\n",
                        encoding="utf-8")
        with pytest.raises(RuleSetError, match="browse"):
            load_rules(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("- path: /pet\n  actions: [read]\n", encoding="utf-8")
        with pytest.raises(RuleSetError, match="group"):
            load_rules(path)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("path: /pet\n", encoding="utf-8")
        with pytest.raises(RuleSetError):
            load_rules(path)

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("- path: /pet\n  actions: [read\n", encoding="utf-8")
        with pytest.raises(RuleSetError, match="malformed"):
            load_rules(path)

    def test_empty_file_is_an_empty_rule_set(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("", encoding="utf-8")
        assert len(load_rules(path)) == 0

    def test_non_mapping_entry_rejected(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("- path: /pet\n  group: G21\n  actions: [read]\n"
                        "- /user\n", encoding="utf-8")
        with pytest.raises(RuleSetError, match="#1 must be a mapping"):
            load_rules(path)

    @pytest.mark.parametrize("field, message", [
        ("actions: 5", "actions must be a list"),
        ("actions: read", "actions must be a list"),
        ("actions: [5]", "actions must be strings"),
        ("actions: [[read]]", "actions must be strings"),
        ("path: 5", "path must be a str"),
        ("group: [1]", "group must be a str"),
        ("group: 21", "group must be a str"),
        ("ownership: 'false'", "ownership must be a bool"),
        ("ownership: null", "ownership must be a bool"),
        ("ownership: 0", "ownership must be a bool"),
    ])
    def test_an_ill_typed_field_is_a_rule_set_error(self, tmp_path, field,
                                                     message):
        rule = {"path": "path: /pet", "group": "group: G21",
                "actions": "actions: [read]"}
        rule[field.partition(":")[0]] = field
        path = tmp_path / "rules.yaml"
        path.write_text("- " + "\n  ".join(rule.values()) + "\n",
                        encoding="utf-8")
        with pytest.raises(RuleSetError, match=f"#0: {message}"):
            load_rules(path)


def _width(rule):
    """How far a matching rule lets the groups in: none, own only, any."""
    if rule is None:
        return 0
    return 1 if rule.ownership_required else 2


rule_strategy = st.builds(
    GroupRule,
    path=st.sampled_from(["/pet", "/user"]),
    group=st.sampled_from(["G11", "G21", "G22", "G23", "G31"]),
    actions=st.frozensets(st.sampled_from(list(Action)), min_size=1),
    ownership_required=st.booleans(),
)


@st.composite
def rule_sets(draw):
    rules = draw(st.lists(rule_strategy, max_size=8))
    unique = {}
    for rule in rules:
        unique.setdefault((rule.path, rule.group), rule)
    return GroupRuleSet(unique.values())


class TestMonotonicity:
    @given(rule_sets(),
           st.frozensets(st.sampled_from(["G11", "G21", "G22", "G23", "G31"]),
                         max_size=3),
           st.sampled_from(["G11", "G21", "G22", "G23", "G31"]),
           st.sampled_from(["/pet", "/user"]),
           st.sampled_from(list(Action)))
    def test_adding_a_group_never_narrows_permission(self, rules, groups, extra,
                                                     path, action):
        before = matching_rule(rules, groups, path, action)
        after = matching_rule(rules, groups | {extra}, path, action)
        assert _width(after) >= _width(before)


class TestResolvedRule:
    @given(rule_sets(),
           st.frozensets(st.sampled_from(["G11", "G21", "G22", "G23", "G31"]),
                         max_size=4),
           st.sampled_from(["/pet", "/user"]),
           st.sampled_from(list(Action)))
    def test_permission_matches_oracle_and_rule_is_the_first_widest(
            self, rules, groups, path, action):
        rule = matching_rule(rules, groups, path, action)
        rows = [{"path": r.path, "group": r.group,
                 "actions": {a.value for a in r.actions},
                 "ownership": r.ownership_required} for r in rules]
        # An own-only rule lets the owner in and no one else; a waiving one
        # lets anyone in; no rule no one.
        ace = {"owner": "owner", "users_ro": [], "users_rw": ["owner"]}
        for user, allowed in (("owner", _width(rule) >= 1),
                              ("stranger", _width(rule) == 2)):
            assert oracle_access(rows, set(groups), path, action.value, user,
                                 ace) is allowed
        matching = [r for r in rules if r.path == path and r.group in groups
                    and action in r.actions]
        waiving = [r for r in matching if not r.ownership_required]
        expected = (waiving or matching or [None])[0]
        assert rule is expected
