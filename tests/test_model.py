import json
import math
import sys
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from bola_guard import (
    Action,
    CyclicRefError,
    DanglingRefError,
    DocumentSyntaxError,
    Placement,
    SchemeKind,
    StructureError,
    emit_document,
    parse_document,
    resolve_ref,
)
from bola_guard import model
from bola_guard.model import (
    MAX_DEPTH,
    _load_yaml,
    _loader_for,
    build_document,
    canonicalize_tree,
    decode,
    scheme_for_ref,
)

from conftest import CORPUS, FIXTURES, fixture_doc, fixture_text


class TestParse:
    def test_scheme_only_document_types_the_auth_scheme(self, scheme_only_doc):
        scheme = scheme_only_doc.security_schemes["X-objectAuthScheme"]
        assert scheme.kind is SchemeKind.OBJECT_AUTH
        assert scheme.location == "header"
        assert scheme.x_groups == "string"
        assert scheme.x_user_id == "string"
        assert scheme_only_doc.security_schemes["api_key"].kind is SchemeKind.API_KEY

    def test_document_without_extensions_parses_with_no_bindings(self):
        doc = fixture_doc("no_ess_plain")
        assert doc.bindings() == []
        assert doc.paths["/pet"].x_objects_ref is None

    def test_root_level_path_links_to_schema_binding(self, root_doc):
        item = root_doc.paths["/pet"]
        assert item.x_objects_ref == "#/components/schemas/Pet/x-objectAuth"
        binding = item.binding
        assert binding is root_doc.schemas["Pet"]
        assert binding.object_id_ref == "#/components/schemas/Pet/properties/id"
        assert binding.placement is Placement.ROOT_LEVEL

    def test_root_level_scopes_cover_all_four_actions(self, root_doc):
        binding = root_doc.paths["/pet"].binding
        assert {a.value for a in binding.actions} == {
            "create", "read", "update", "delete"}
        assert binding.groups == "string"
        assert binding.user_id == "string"

    def test_method_level_bindings_have_method_placement(self, method_doc):
        bindings = method_doc.bindings()
        assert bindings and all(
            b.placement is Placement.METHOD_LEVEL for b in bindings)
        binding = method_doc.paths["/pet"].binding
        assert binding is method_doc.paths["/pet"].method_bindings["post"]
        assert binding.token.location == "header"
        assert binding.scheme_ref is None

    def test_root_level_bindings_have_root_placement(self):
        doc = fixture_doc("two_path_root_level")
        assert all(b.placement is Placement.ROOT_LEVEL for b in doc.bindings())

    def test_extension_keys_match_case_insensitively(self):
        text = fixture_text("petstore_root_level") \
            .replace("x-objects:", "X-Objects:") \
            .replace("x-objectAuth", "X-OBJECTAUTH") \
            .replace("x-groups", "X-Groups")
        doc = parse_document(text)
        assert doc.paths["/pet"].binding is doc.schemas["Pet"]
        assert doc.security_schemes["X-objectAuthScheme"].x_groups == "string"

    def test_swagger_2_documents_are_rejected(self):
        with pytest.raises(StructureError, match="swagger"):
            parse_document("swagger: '2.0'\npaths: {}\n")

    def test_non_3x_openapi_version_is_rejected(self):
        with pytest.raises(StructureError, match="expected 3.x"):
            parse_document("openapi: 4.0.0\npaths: {}\n")

    def test_malformed_yaml_raises_syntax_error(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document("paths: [unclosed")

    def test_malformed_json_raises_syntax_error(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document('{"paths": ', format="json")

    def test_non_mapping_root_is_rejected(self):
        with pytest.raises(StructureError):
            parse_document("- just\n- a\n- list\n")

    def test_path_not_starting_with_slash_is_rejected(self):
        with pytest.raises(StructureError, match="begin with"):
            parse_document("paths:\n  pet:\n    get: {}\n")

    def test_dangling_x_objects_ref_fails_fast(self):
        text = fixture_text("petstore_root_level").replace(
            "'#/components/schemas/Pet/x-objectAuth'",
            "'#/components/schemas/Ghost/x-objectAuth'")
        with pytest.raises(DanglingRefError):
            parse_document(text)


class TestResolveRef:
    def test_scheme_ref_resolves_to_scheme_node(self, root_doc):
        node = resolve_ref(
            root_doc, "#/components/securitySchemes/X-objectAuthScheme")
        assert node["type"] == "apiKey"
        assert node["x-groups"] == "string"

    def test_root_pointer_is_identity(self, root_doc):
        assert resolve_ref(root_doc, "#/") is root_doc.raw
        assert resolve_ref(root_doc, "#") is root_doc.raw

    def test_missing_node_raises_dangling(self, root_doc):
        with pytest.raises(DanglingRefError):
            resolve_ref(root_doc, "#/components/schemas/Missing")

    def test_chained_refs_are_followed(self):
        doc = build_document(yaml.safe_load(
            "a:\n  $ref: '#/b'\nb:\n  value: 42\n"))
        assert resolve_ref(doc, "#/a") == {"value": 42}

    def test_cyclic_chain_raises(self):
        doc = build_document(yaml.safe_load(
            "a:\n  $ref: '#/b'\nb:\n  $ref: '#/a'\n"))
        with pytest.raises(CyclicRefError):
            resolve_ref(doc, "#/a")

    def test_relative_ref_resolves_from_base(self, method_doc):
        node = resolve_ref(
            method_doc,
            "post/responses/201/content/application~1json/schema/properties/identifier",
            base="#/paths/~1pet")
        assert node == {"type": "integer", "format": "int64"}

    def test_relative_ref_without_base_raises(self, method_doc):
        with pytest.raises(DanglingRefError):
            resolve_ref(method_doc, "post/responses/201")

    @pytest.mark.parametrize("ref", [5, None, [1], {"$ref": "#/info"}])
    def test_a_ref_that_is_not_a_string_dangles(self, root_doc, ref):
        with pytest.raises(DanglingRefError):
            resolve_ref(root_doc, ref)

    def test_escaped_path_segment(self, root_doc):
        node = resolve_ref(root_doc, "#/paths/~1pet/put")
        assert "responses" in node

    def test_refs_discovered_at_parse_are_resolvable(self):
        for name in CORPUS:
            doc = fixture_doc(name)
            for binding in doc.bindings():
                for ref in (binding.scheme_ref, binding.groups_ref,
                            binding.user_id_ref):
                    if ref is not None:
                        resolve_ref(doc, ref)


class TestEmit:
    @pytest.mark.parametrize("name", CORPUS)
    @pytest.mark.parametrize("fmt", ["yaml", "json"])
    def test_parse_emit_parse_is_identity(self, name, fmt):
        doc = fixture_doc(name)
        again = parse_document(emit_document(doc, fmt), fmt)
        assert doc == again

    def test_empty_document_round_trips(self):
        doc = parse_document("{}")
        assert doc.paths == {}
        assert parse_document(emit_document(doc)) == doc

    def test_emission_restores_canonical_key_casing(self):
        text = fixture_text("petstore_root_level") \
            .replace("x-objects:", "X-OBJECTS:") \
            .replace("x-objectAuth", "x-objectauth") \
            .replace("x-user_id", "X-USER_ID")
        emitted = emit_document(parse_document(text))
        assert "x-objects:" in emitted
        assert "x-objectAuth:" in emitted
        assert "x-user_id: string" in emitted
        assert "X-OBJECTS" not in emitted
        assert "x-objectauth:" not in emitted

    def test_method_level_emission_keeps_capitalized_key(self, method_doc):
        emitted = emit_document(method_doc)
        assert "X-objectAuth:" in emitted

    def test_unknown_format_rejected(self, root_doc):
        with pytest.raises(ValueError):
            emit_document(root_doc, "toml")


class TestRefWalking:
    LISTED = """
openapi: 3.0.3
paths:
  /pet:
    get:
      parameters:
        - name: id
          in: query
      responses:
        200:
          description: unquoted status key
"""

    def test_an_unquoted_integer_key_is_reached_by_its_digits(self):
        doc = parse_document(self.LISTED)
        assert resolve_ref(doc, "#/paths/~1pet/get/responses/200") == \
            {"description": "unquoted status key"}

    def test_list_items_are_reached_by_index(self):
        doc = parse_document(self.LISTED)
        assert resolve_ref(doc, "#/paths/~1pet/get/parameters/0/in") == "query"

    @pytest.mark.parametrize("ref", [
        "#/paths/~1pet/get/parameters/1",        # past the end of the list
        "#/paths/~1pet/get/parameters/first",    # not an index
        "#/paths/~1pet/get/parameters/0/in/x",   # into a scalar
        "#/paths/~1pet/get/responses/404",       # an integer key that is absent
        "#/paths/~1pet/get/parameters/00",       # RFC 6901: no leading zero
        "#/paths/~1pet/get/responses/0200",      # not the key's spelling
        "#/paths/~1pet/get/parameters/\u00b2",   # a digit to isdigit, not to int
        "#/paths/~1pet/get/responses/\u00b2",
        "#/paths/~1pet/get/parameters/\u0660",   # a non-ASCII decimal
        pytest.param("#/paths/~1pet/get/responses/" + "9" * 5000,
                     id="key-past-int-digit-limit"),
        pytest.param("#/paths/~1pet/get/parameters/" + "9" * 5000,
                     id="index-past-int-digit-limit"),
    ])
    def test_a_pointer_that_leaves_the_tree_dangles(self, ref):
        with pytest.raises(DanglingRefError):
            resolve_ref(parse_document(self.LISTED), ref)

    def test_an_extension_segment_matches_any_casing(self, root_doc):
        node = resolve_ref(root_doc, "#/components/securitySchemes/"
                                     "x-objectauthscheme/X-GROUPS")
        assert node == "string"

    @pytest.mark.parametrize("ref", ["https://example.com/spec.yaml#/a",
                                     "other.yaml#/components/schemas/Pet"])
    def test_a_remote_ref_dangles(self, root_doc, ref):
        with pytest.raises(DanglingRefError, match="remote|relative"):
            resolve_ref(root_doc, ref)


class TestSchemeForRef:
    ALIASED = fixture_text("petstore_root_level").replace(
        "    X-objectAuthScheme:\n      type: apiKey\n      name: api_key\n"
        "      in: header\n",
        "    Alias:\n      $ref: '#/components/securitySchemes/X-objectAuthScheme'\n"
        "    X-objectAuthScheme:\n      type: apiKey\n      name: api_key\n"
        "      in: query\n")

    def test_an_alias_chain_lands_on_the_scheme_it_names(self):
        doc = parse_document(self.ALIASED)
        scheme = scheme_for_ref(doc, "#/components/securitySchemes/Alias")
        assert scheme is doc.security_schemes["X-objectAuthScheme"]
        assert scheme.location == "query"

    def test_a_casing_of_the_extension_name_lands_on_the_scheme(self, root_doc):
        scheme = scheme_for_ref(root_doc,
                                "#/components/securitySchemes/x-objectauthscheme")
        assert scheme.name == "X-objectAuthScheme"

    def test_a_node_that_is_not_a_scheme_is_none(self, root_doc):
        assert scheme_for_ref(root_doc, "#/components/schemas/Pet") is None

    def test_dangling_and_cyclic_chains_raise(self):
        doc = parse_document(self.ALIASED.replace(
            "    Alias:\n      $ref: '#/components/securitySchemes/X-objectAuthScheme'\n",
            "    Alias:\n      $ref: '#/components/securitySchemes/Loop'\n"
            "    Loop:\n      $ref: '#/components/securitySchemes/Alias'\n"))
        with pytest.raises(CyclicRefError):
            scheme_for_ref(doc, "#/components/securitySchemes/Alias")
        with pytest.raises(DanglingRefError):
            scheme_for_ref(doc, "#/components/securitySchemes/Ghost")


class TestStructureErrors:
    @pytest.mark.parametrize("text, message", [
        ("components: [a]", "'components' must be a mapping"),
        ("components: {securitySchemes: [a]}",
         "'components.securitySchemes' must be a mapping"),
        ("components: {securitySchemes: {S: 5}}", "security scheme 'S' must be"),
        ("components: {schemas: [a]}", "'components.schemas' must be a mapping"),
        ("paths: [a]", "'paths' must be a mapping"),
        ("paths: {/pet: [get]}", "path item '/pet' must be a mapping"),
        ("paths: {/pet: {x-objects: 5}}", "must be a \\$ref"),
        ("components: {schemas: {Pet: {x-objectAuth: [a]}}}",
         "binding must be a mapping"),
        ("paths: {/pet: {get: {X-objectAuth: true}}}", "binding must be a mapping"),
    ])
    def test_each_unusable_section_is_a_structure_error(self, text, message):
        with pytest.raises(StructureError, match=message):
            parse_document("openapi: 3.0.3\n" + text)

    def test_an_unknown_input_format_is_a_value_error(self):
        with pytest.raises(ValueError, match="format"):
            parse_document("{}", "toml")

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "null\n"])
    def test_an_empty_document_is_an_empty_model(self, text):
        doc = parse_document(text)
        assert (doc.paths, doc.security_schemes, doc.schemas, doc.raw) == \
            ({}, {}, {}, {})


class TestParseDetails:
    def test_a_scheme_of_another_type_is_other(self):
        doc = parse_document("components: {securitySchemes: {bearer: {type: http}}}")
        assert doc.security_schemes["bearer"].kind is SchemeKind.OTHER

    @pytest.mark.parametrize("declared, descriptor", [
        ("string", "string"), ("5", "5"), ("{type: integer}", "integer"),
        ("{format: uuid}", "{'format': 'uuid'}"), ("null", None),
        ("{$ref: '#/x'}", None),
    ])
    def test_claim_descriptors_of_every_shape(self, declared, descriptor):
        doc = parse_document("components: {securitySchemes: {S: {type: apiKey, "
                   f"x-groups: {declared}, x-user_id: string}}}}}}")
        assert doc.security_schemes["S"].x_groups == descriptor

    def test_an_operation_that_is_not_a_mapping_carries_no_binding(self):
        doc = parse_document("paths: {/pet: {get: null, post: {responses: {}}}}")
        item = doc.paths["/pet"]
        assert tuple(item.operations) == ("get", "post")
        assert item.method_bindings == {}

    def test_x_objects_may_be_a_bare_ref_string(self, root_doc):
        text = fixture_text("petstore_root_level").replace(
            "    x-objects:\n      $ref: '#/components/schemas/Pet/x-objectAuth'",
            "    x-objects: '#/components/schemas/Pet/x-objectAuth'")
        doc = parse_document(text)
        assert doc.paths["/pet"].binding is doc.schemas["Pet"]
        assert doc.paths["/pet"].binding == root_doc.paths["/pet"].binding

    def test_x_objects_on_a_node_that_is_not_a_binding_binds_nothing(self):
        text = fixture_text("petstore_root_level").replace(
            "'#/components/schemas/Pet/x-objectAuth'",
            "'#/components/schemas/Pet/properties/id'").replace(
            "  schemas:\n", "  schemas:\n    Tag: 5\n")
        item = parse_document(text).paths["/pet"]
        assert item.x_objects_ref == "#/components/schemas/Pet/properties/id"
        assert item.binding is None

    def test_a_document_never_equals_another_type(self, root_doc):
        assert root_doc.__eq__(root_doc.raw) is NotImplemented
        assert root_doc != root_doc.raw


class TestScopeShapes:
    def _scopes(self, scopes: str):
        doc = parse_document("openapi: 3.0.3\npaths:\n  /pet:\n    post:\n"
                   "      X-objectAuth:\n        scopes: " + scopes + "\n")
        return doc.paths["/pet"].method_bindings["post"]

    def test_scopes_that_are_not_a_mapping_grant_nothing(self):
        binding = self._scopes("[C, R]")
        assert binding.actions == ()
        assert binding.invalid_scope_keys == ()

    def test_the_per_action_shape_skips_claim_refs_and_keeps_odd_keys(self):
        binding = self._scopes(
            "{groups: {$ref: '#/g'}, user_id: {$ref: '#/u'}, C: null, "
            "R: {groups: {type: string}}, X: {}, 7: {}}")
        assert binding.actions == (Action.CREATE, Action.READ)
        assert binding.invalid_scope_keys == ("X", "7")
        assert (binding.groups_ref, binding.user_id_ref) == ("#/g", "#/u")
        # A declared claim wins over the ref; the dangling ref gives none.
        assert (binding.groups, binding.user_id) == ("string", None)

    def test_the_shared_shape_keeps_odd_keys_and_shares_its_claims(self):
        binding = self._scopes(
            "{groups: string, methods: {post: null, PATCH: {}, r: {}}}")
        assert binding.actions == (Action.CREATE, Action.READ)
        assert (binding.groups, binding.user_id) == ("string", None)
        assert binding.invalid_scope_keys == ("PATCH",)

    def test_a_dangling_claim_ref_resolves_to_no_claim(self, root_doc):
        text = fixture_text("petstore_root_level").replace(
            "X-objectAuthScheme/x-groups'", "X-objectAuthScheme/x-missing'")
        doc = parse_document(text)
        binding = doc.paths["/pet"].binding
        assert (binding.groups, binding.user_id) == (None, "string")


    @pytest.mark.parametrize("scopes, groups", [
        # The last body for an action wins, at the action's first place.
        ("{C: {groups: a}, R: {groups: b}, post: {}}", "b"),
        ("{R: {groups: b}, C: {groups: a}}", "b"),
        # An empty descriptor is skipped; with none declared, the ref decides.
        ("{C: {groups: ''}, R: {groups: b}}", "b"),
        ("{groups: {$ref: '#/components/g'}, C: {groups: ''}}", "integer"),
        ("{groups: {$ref: 5}, C: {}}", None),
    ])
    def test_a_claim_is_the_first_declared_else_its_ref_target(self, scopes,
                                                               groups):
        doc = parse_document("openapi: 3.0.3\ncomponents: {g: {type: integer}}\n"
                             "paths:\n  /pet:\n    post:\n      X-objectAuth:\n"
                             "        scopes: " + scopes + "\n")
        assert doc.paths["/pet"].binding.groups == groups


class TestCanonicalization:
    def test_the_scheme_name_gets_its_canonical_spelling(self):
        text = fixture_text("petstore_root_level").replace(
            "X-objectAuthScheme", "x-OBJECTauthscheme")
        tree = canonicalize_tree(parse_document(text).raw)
        assert list(tree["components"]["securitySchemes"]) == \
            ["api_key", "X-objectAuthScheme"]
        auth = tree["components"]["schemas"]["Pet"]["x-objectAuth"]
        assert auth["schema"] == \
            {"$ref": "#/components/securitySchemes/X-objectAuthScheme"}

    def test_refs_inside_lists_are_canonicalized(self):
        doc = parse_document("paths:\n  /pet:\n    get:\n      responses:\n"
                   "        '200':\n          content:\n            a/b:\n"
                   "              schema:\n                oneOf:\n"
                   "                  - $ref: '#/components/schemas/Pet/X-OBJECTAUTH'\n"
                   "                  - 5\n")
        one_of = canonicalize_tree(doc.raw)["paths"]["/pet"]["get"]["responses"][
            "200"]["content"]["a/b"]["schema"]["oneOf"]
        assert one_of == [{"$ref": "#/components/schemas/Pet/x-objectAuth"}, 5]
        # The model's own tree keeps the document's spelling.
        assert "X-OBJECTAUTH" in doc.raw["paths"]["/pet"]["get"]["responses"][
            "200"]["content"]["a/b"]["schema"]["oneOf"][0]["$ref"]


LOADERS = [pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml"),
           pytest.param(yaml.SafeLoader, id="pure")]


def _comparable(node):
    """``node`` with NaN, which equals nothing, spelled as a string."""
    if isinstance(node, float) and math.isnan(node):
        return "NaN"
    if isinstance(node, dict):
        return {_comparable(k): _comparable(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_comparable(v) for v in node]
    return node


# Texts on which libyaml and the pure loader part: (text, and for each of
# libyaml and the pure loader the tree it loads or the error it raises).
_PARTING = [
    ("key: value\t\n", {"key": "value"}, yaml.YAMLError),
    ("!\n", "", None),
    ("a: |#c\n  x\n", {"a": "x\n"}, yaml.YAMLError),
    ("a: |-#c\n  x\n", {"a": "x"}, yaml.YAMLError),
    ("a: >2#c\n  x\n", {"a": "x\n"}, yaml.YAMLError),
    ("a: b\n\ufeffc: d\n", yaml.YAMLError, {"a": "b", "\ufeffc": "d"}),
]


def _both_loaders(text):
    return (_comparable(yaml.load(text, Loader=yaml.CSafeLoader)),
            _comparable(yaml.load(text, Loader=yaml.SafeLoader)))


# Plain scalars whose type the YAML 1.1 resolver decides: booleans, nulls,
# base-prefixed and sexagesimal numbers, special floats and timestamps.
_TRICKY_SCALARS = ["yes", "No", "on", "OFF", "y", "n", "true", "False", "null",
                   "Null", "~", "", "0x1F", "0o17", "017", "0b101", "1_000",
                   "+12", "-0", "1e3", "1.5e-3", ".5", ".inf", "-.Inf", ".NaN",
                   "190:20:30", "1:30.5", "2001-12-14", "2001-12-14t21:59:43.10-05:00",
                   "'quoted yes'", '"esc\\u00e9"', "!!str 12", "plain text", "/pet"]

_keys = st.text(alphabet="abcxyz_", min_size=1, max_size=6)
_scalars = st.sampled_from(_TRICKY_SCALARS)


@st.composite
def _merged_documents(draw):
    """Mappings built from tricky scalars, with anchored bases that later
    entries reuse by alias and by merge key (``<<``)."""
    lines = []
    bases = []
    for i in range(draw(st.integers(0, 3))):
        lines.append(f"base{i}: &b{i}")
        for key in draw(st.lists(_keys, min_size=1, max_size=4, unique=True)):
            lines.append(f"  {key}: {draw(_scalars)}")
        bases.append(i)
    for key in draw(st.lists(_keys, max_size=6, unique=True)):
        kind = draw(st.sampled_from(["scalar", "alias", "merge", "list"]))
        if kind == "alias" and bases:
            lines.append(f"{key}: *b{draw(st.sampled_from(bases))}")
        elif kind == "merge" and bases:
            merged = draw(st.lists(st.sampled_from(bases), min_size=1, unique=True))
            lines.append(f"{key}:")
            lines.append("  <<: [" + ", ".join(f"*b{i}" for i in merged) + "]")
            lines.append(f"  {draw(_keys)}: {draw(_scalars)}")
        elif kind == "list":
            lines.append(f"{key}:")
            lines.extend(f"  - {draw(_scalars)}"
                         for _ in range(draw(st.integers(0, 3))))
        else:
            lines.append(f"{key}: {draw(_scalars)}")
    return "\n".join(lines) + "\n"


_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML was built without libyaml")
class TestYamlLoaders:
    """libyaml (``CSafeLoader``) and pure-Python ``SafeLoader`` must build the
    same tree wherever either is used."""

    @pytest.mark.parametrize("name", CORPUS + ["generated_from_manifest.golden"])
    def test_fixtures_load_to_equal_trees(self, name):
        libyaml, pure = _both_loaders(fixture_text(name))
        assert libyaml == pure

    @settings(max_examples=150, deadline=None)
    @given(_merged_documents())
    def test_anchors_merge_keys_and_tricky_scalars_agree(self, text):
        libyaml, pure = _both_loaders(text)
        assert libyaml == pure

    @settings(max_examples=150, deadline=None)
    @given(_trees, st.sampled_from([None, False, True]))
    def test_emitted_documents_agree(self, tree, flow):
        shared = [tree, tree]       # a repeated node is emitted as an alias
        text = yaml.safe_dump({"doc": tree, "shared": shared},
                              default_flow_style=flow, allow_unicode=True)
        libyaml, pure = _both_loaders(text)
        assert libyaml == pure

    def test_merge_key_and_yes_on_null_resolve_the_same(self):
        text = ("base: &b {a: yes, b: on, c: null}\n"
                "derived:\n  <<: *b\n  b: off\n")
        expected = {"base": {"a": True, "b": True, "c": None},
                    "derived": {"a": True, "b": False, "c": None}}
        assert _both_loaders(text) == (expected, expected)

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text", [
        "openapi: 3.0.3\npaths: {/pet: [\n",       # unclosed flow collection
        "a: b: c\n",                               # mapping in a plain scalar
        "a:\n  - x\n - y\n",                       # bad indentation
        "a: *nowhere\n",                           # undefined alias
        "a: 'unterminated\n",
        "key: \"bad \\q escape\"\n",
        "a: \ud800\n",                              # lone surrogate
    ])
    def test_malformed_text_is_a_syntax_error(self, monkeypatch, loader, text):
        monkeypatch.setattr(yaml, "CSafeLoader", loader)
        with pytest.raises(DocumentSyntaxError):
            parse_document(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.characters(), max_size=40))
    @example("a: \udc80")                         # libyaml cannot encode it
    @example("key: value\t")                      # only libyaml accepts it
    @example("a: 2001-13-45")                     # a timestamp with no date
    def test_any_text_decodes_or_raises_a_syntax_error(self, text):
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            with mock.patch.object(yaml, "CSafeLoader", loader):
                try:
                    decode(text)
                except DocumentSyntaxError:
                    pass

    @pytest.mark.parametrize("name", CORPUS)
    def test_fixtures_parse_without_libyaml(self, monkeypatch, name):
        with_libyaml = fixture_doc(name)
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert parse_document(fixture_text(name)) == with_libyaml

    @pytest.mark.parametrize("text, libyaml, pure", _PARTING)
    def test_known_edge_cases_where_the_loaders_part(self, text, libyaml, pure):
        for loader, expected in ((yaml.CSafeLoader, libyaml),
                                 (yaml.SafeLoader, pure)):
            if expected is yaml.YAMLError:
                with pytest.raises(yaml.YAMLError):
                    yaml.load(text, Loader=loader)
            else:
                assert yaml.load(text, Loader=loader) == expected

    @pytest.mark.parametrize("text", [text for text, _, _ in _PARTING])
    def test_where_the_loaders_part_the_verdict_is_the_same_on_every_build(
            self, monkeypatch, text):
        def verdict():
            try:
                return _load_yaml(text)
            except yaml.YAMLError as exc:
                return type(exc)

        with_libyaml = verdict()
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert verdict() == with_libyaml



# One text for each reason the event builder leaves a text to ``yaml.load``.
_DEFERRED = [
    "base: &b {a: 1}\nd:\n  <<: *b\n  c: 2\n",  # a merge key
    "a: =\n",                                   # a tag with no constructor
    "=: a\n",
    "a: !!str 12\n",                            # an explicit tag
    "a: !!map {b: 1}\n",
    "a: &x [1, *x]\n",                          # an alias to an open anchor
    "a: *nowhere\n",                            # to an undefined one
    "a: &x 1\nb: &x 2\n",                       # a repeated anchor
    "a: &x {b: 1}\nc: &x [2]\n",
    "a: &x [&x 1]\n",                           # one inside its namesake
    "? [a]\n: b\n",                             # a collection as a key
    "a: &x [1]\n*x : b\n",
    "a: 1\n---\nb: 2\n",                        # a second document
    "a: 2001-13-45\nb: [\n",                    # a scalar with no such date
    "a: [1\n",                                  # malformed text
]
# Without and with libyaml, as ``yaml.CSafeLoader``, where ``_load_yaml``
# looks for it.
_BUILDS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader")
                               else [])


def _outcome(load, text):
    """What ``load(text)`` gives: its tree, or its error's type and text."""
    try:
        return load(text), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _assert_same_tree(built, loaded):
    """``built`` is ``loaded`` node for node, with the same types (True is no
    1) and the same sharing: one collection reached twice in one tree is one
    collection reached twice in the other."""
    twins: dict[int, object] = {}       # id of a collection -> its twin

    def walk(a, b):
        assert type(a) is type(b), (a, b)
        if not isinstance(a, (dict, list)):
            assert a == b or a != a and b != b, (a, b)      # NaN is NaN
            return
        if id(a) in twins or id(b) in twins:
            assert twins.get(id(a)) is b and twins.get(id(b)) is a
            return                      # seen, as a recursive one will be
        twins[id(a)], twins[id(b)] = b, a
        assert len(a) == len(b)
        if isinstance(a, dict):
            for (key_a, value_a), (key_b, value_b) in zip(a.items(), b.items()):
                walk(key_a, key_b)
                walk(value_a, value_b)
        else:
            for value_a, value_b in zip(a, b):
                walk(value_a, value_b)
    walk(built, loaded)


def _assert_decodes_as_yaml_load(text):
    for libyaml in _BUILDS:
        with mock.patch.object(yaml, "CSafeLoader", libyaml, create=True):
            loader = _loader_for(text)
            built, error = _outcome(_load_yaml, text)
            loaded, expected = _outcome(
                lambda t: yaml.load(t, Loader=loader), text)
        assert error == expected
        _assert_same_tree(built, loaded)


_PUNCTUATION = st.text(alphabet="[]{}:,-?&*!|>'\"#%@`~ \n\tab01.", max_size=40)


class TestEventBuilder:
    """``_load_yaml`` builds from the parser's events the tree, or raises the
    error, that ``yaml.load`` does with the loader it picks, on every build."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.yaml")))
    def test_fixtures_decode_as_yaml_load_does(self, name):
        _assert_decodes_as_yaml_load(fixture_text(name))

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML was built without libyaml")
    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.yaml")),
                             ids=lambda path: path.stem)
    def test_no_fixture_composes_a_node_graph(self, path):
        with mock.patch.object(model.yaml, "load", wraps=yaml.load) as load:
            parse_document(path.read_text(encoding="utf-8"))
        assert load.call_count == 0

    @pytest.mark.parametrize("text", _DEFERRED)
    def test_what_the_builder_leaves_yaml_load_decides(self, text):
        _assert_decodes_as_yaml_load(text)
        with mock.patch.object(model.yaml, "load", wraps=yaml.load) as load:
            _outcome(_load_yaml, text)
        assert load.call_count == 1

    def test_an_alias_is_the_object_its_anchor_names(self):
        tree = _load_yaml("a: &x {b: [1]}\nc: *x\nd: [*x]\n")
        assert tree["c"] is tree["a"] and tree["d"][0] is tree["a"]

    @settings(max_examples=150, deadline=None)
    @given(_merged_documents())
    def test_anchors_merge_keys_and_tricky_scalars(self, text):
        _assert_decodes_as_yaml_load(text)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_scalars, _scalars), max_size=5),
           st.sampled_from(["{}: {}", "- {}\n- {}", "- {{{}: {}}}"]))
    def test_tricky_scalars_as_keys_and_items(self, pairs, shape):
        _assert_decodes_as_yaml_load(
            "".join(shape.format(*pair) + "\n" for pair in pairs))

    @settings(max_examples=150, deadline=None)
    @given(_trees, st.sampled_from([None, False, True]))
    def test_emitted_documents_with_a_shared_node(self, tree, flow):
        shared = [tree, tree]       # a repeated node is emitted as an alias
        _assert_decodes_as_yaml_load(yaml.safe_dump(
            {"doc": tree, "shared": shared}, default_flow_style=flow,
            allow_unicode=True))

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=30) | _PUNCTUATION)
    @example("a: \udc80")                         # libyaml cannot encode it
    @example("a: 2001-13-45")                     # a timestamp with no date
    def test_any_short_text(self, text):
        _assert_decodes_as_yaml_load(text)


def _nested(depth: int, inner="[]") -> str:
    """A flow collection nested ``depth`` deep: lists around ``inner``."""
    return "[" * (depth - 1) + inner + "]" * (depth - 1)


def _accepts(text, format="yaml") -> bool:
    try:
        decode(text, format)
    except DocumentSyntaxError:
        return False
    return True


class TestNestingDepth:
    """Collections nested over ``MAX_DEPTH`` deep are a DocumentSyntaxError in
    both formats, on every build and at any recursion limit, raised before a
    recursive loader sees a YAML text."""

    @pytest.mark.parametrize("libyaml", _BUILDS)
    def test_the_bound_is_the_deepest_a_yaml_text_nests(self, libyaml):
        with mock.patch.object(yaml, "CSafeLoader", libyaml, create=True):
            deepest = decode(_nested(MAX_DEPTH))
            for _ in range(MAX_DEPTH - 1):
                deepest = deepest[0]
            assert deepest == []
            with pytest.raises(DocumentSyntaxError,
                               match=f"nested over {MAX_DEPTH} deep"):
                decode(_nested(MAX_DEPTH + 1))

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5000])
    def test_the_bound_is_the_deepest_a_json_text_nests(self, depth):
        assert decode(_nested(MAX_DEPTH, "{}"), "json") is not None
        with pytest.raises(DocumentSyntaxError):
            decode(_nested(depth, "{}"), "json")

    def test_a_wide_json_text_is_no_deep_one(self):
        wide = "[" + ", ".join(["[[]]"] * MAX_DEPTH) + "]"
        assert len(decode(wide, "json")) == MAX_DEPTH

    def test_the_bound_holds_past_a_deferral(self):
        with pytest.raises(DocumentSyntaxError, match="nested over"):
            decode("a: {<<: {c: 1}}\nb: " + _nested(5000) + "\n")

    @pytest.mark.parametrize("libyaml", _BUILDS)
    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
    def test_a_merge_key_and_nesting_get_one_verdict_on_every_build(
            self, libyaml, depth):
        # The root mapping is the first level.
        text = "m: {<<: {a: 1}}\nx: " + _nested(depth - 1) + "\n"
        with mock.patch.object(yaml, "CSafeLoader", libyaml, create=True):
            assert _accepts(text) == (depth == MAX_DEPTH)

    def test_an_alias_that_nests_its_anchor_deeper_is_refused(self):
        half = MAX_DEPTH // 2 + 1
        text = f"a: &a {_nested(half)}\nb: {_nested(half, '*a')}\n"
        with pytest.raises(DocumentSyntaxError, match="nested over"):
            decode(text)
        tree = decode(f"a: &a {_nested(half)}\nb: [*a, *a]\n")
        assert tree["b"][0] is tree["b"][1] is tree["a"]

    @pytest.mark.parametrize("text", ["a: &x [1, *x]\n", "a: &x {b: *x}\n"])
    def test_a_recursive_alias_nests_without_end(self, text):
        with pytest.raises(DocumentSyntaxError, match="nested over"):
            decode(text)

    @pytest.mark.parametrize("text, format", [
        (_nested(MAX_DEPTH), "yaml"), (_nested(MAX_DEPTH + 1), "yaml"),
        (_nested(MAX_DEPTH), "json"), (_nested(MAX_DEPTH + 1), "json"),
        (_nested(2000), "json"),
        ("m: {<<: {a: 1}}\nx: " + _nested(MAX_DEPTH - 1) + "\n", "yaml"),
    ])
    def test_a_verdict_does_not_hang_on_the_recursion_limit(self, text, format):
        default = _accepts(text, format)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(5000)
        try:
            assert _accepts(text, format) == default
        finally:
            sys.setrecursionlimit(limit)

    def test_a_recursive_loaders_recursion_error_is_a_syntax_error(self):
        # A real one would stop the tracer under .github/untested_lines.py;
        # test_cli's TestDeepNesting runs one in a child process.
        with mock.patch.object(model.yaml, "load", side_effect=RecursionError):
            with pytest.raises(DocumentSyntaxError):
                decode("a: !!str x\n")


class TestDecode:
    """``decode`` is the one reader of outside text: its one error is a
    DocumentSyntaxError, which is also a ValueError."""

    @pytest.mark.parametrize("text, format", [
        (b"a: caf\xe9\n", "yaml"),               # not UTF-8
        (b'{"a": "caf\xe9"}', "json"),
        ("a: 2001-13-45\n", "yaml"),              # no such date
        ("a: 2021-02-30\n", "yaml"),
        ("a: " + "9" * 5000 + "\n", "yaml"),       # past int()'s digit limit
        ('{"a": ' + "9" * 5000 + "}", "json"),
        ("a: \ud800\n", "yaml"),                  # a lone surrogate
        ("a: [1\n", "yaml"),
        ('{"a": ', "json"),
    ])
    def test_what_is_refused_is_one_error(self, text, format):
        with pytest.raises(DocumentSyntaxError) as refused:
            decode(text, format)
        assert isinstance(refused.value, ValueError)

    def test_bytes_are_read_as_utf_8(self):
        assert decode("a: caf\u00e9\n".encode()) == {"a": "caf\u00e9"}
        assert decode(json.dumps({"a": [1]}).encode(), "json") == {"a": [1]}

    def test_an_unknown_format_is_a_value_error(self):
        with pytest.raises(ValueError, match="format"):
            decode("{}", "toml")
