import copy
import json

import pytest

from bola_guard import Finding, parse_document, validate, classify_design
from bola_guard.validator import has_errors, render_json, render_text

from conftest import CORPUS, fixture_doc, mutate


class TestValidate:
    def test_combined_root_level_document_is_clean(self, root_doc):
        assert validate(root_doc) == []

    def test_method_level_document_is_clean(self, method_doc):
        assert validate(method_doc) == []

    def test_scheme_missing_user_id_yields_single_incomplete_finding(
            self, scheme_only_doc):
        broken = mutate(scheme_only_doc, lambda t: t["components"]
                        ["securitySchemes"]["X-objectAuthScheme"].pop("x-user_id"))
        findings = validate(broken)
        assert [f.code for f in findings] == ["E-SCHEME-INCOMPLETE"]
        assert findings[0].severity == "error"
        assert "x-user_id" in findings[0].message

    def test_same_mutation_on_bound_document_also_dangles_the_claim_ref(
            self, root_doc):
        broken = mutate(root_doc, lambda t: t["components"]
                        ["securitySchemes"]["X-objectAuthScheme"].pop("x-user_id"))
        codes = sorted(f.code for f in validate(broken))
        assert codes == ["E-DANGLING-REF", "E-SCHEME-INCOMPLETE"]

    def test_unbound_path_referencing_schema_warns(self, root_doc):
        unbound = mutate(root_doc, lambda t: t["paths"]["/pet"].pop("x-objects"))
        findings = validate(unbound)
        assert [f.code for f in findings] == ["W-BOLA-UNBOUND"]
        assert findings[0].severity == "warning"
        assert findings[0].path_context == "#/paths/~1pet"
        assert "Pet" in findings[0].message

    def test_unbound_path_without_schema_references_is_silent(self):
        doc = parse_document(
            "openapi: 3.0.3\npaths:\n  /ping:\n    get:\n      responses: {}\n")
        assert validate(doc) == []

    def test_scheme_ref_to_plain_api_key_scheme_is_flagged(self, root_doc):
        wrong = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                       ["x-objectAuth"]["schema"].update(
                           {"$ref": "#/components/securitySchemes/api_key"}))
        codes = [f.code for f in validate(wrong)]
        assert codes == ["E-SCHEME-KIND"]

    def test_binding_without_scheme_or_token_is_flagged(self, root_doc):
        bare = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                      ["x-objectAuth"].pop("schema"))
        codes = [f.code for f in validate(bare)]
        assert codes == ["E-SCHEME-KIND"]

    def test_object_ref_to_non_primitive_is_flagged(self, root_doc):
        wrong = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                       ["x-objectAuth"]["object"].update(
                           {"$ref": "#/components/schemas/Pet"}))
        codes = [f.code for f in validate(wrong)]
        assert codes == ["E-OBJECT-REF"]

    def test_missing_object_ref_is_flagged(self, root_doc):
        bare = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                      ["x-objectAuth"].pop("object"))
        codes = [f.code for f in validate(bare)]
        assert codes == ["E-OBJECT-REF"]

    def test_dangling_object_ref_is_flagged(self, root_doc):
        broken = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                        ["x-objectAuth"]["object"].update(
                            {"$ref": "#/components/schemas/Pet/properties/absent"}))
        codes = [f.code for f in validate(broken)]
        assert codes == ["E-DANGLING-REF"]

    @pytest.mark.parametrize("segments, codes", [
        ("x-ids/0", []), ("x-ids/00", ["E-DANGLING-REF"]),
        ("x-codes/200", []), ("x-codes/0200", ["E-DANGLING-REF"]),
    ])
    def test_an_index_or_integer_key_is_reached_only_by_its_spelling(
            self, root_doc, segments, codes):
        def point_at_copies_of_id(tree):
            pet = tree["components"]["schemas"]["Pet"]
            pet["x-ids"] = [dict(pet["properties"]["id"])]
            pet["x-codes"] = {200: dict(pet["properties"]["id"])}
            pet["x-objectAuth"]["object"]["$ref"] = \
                f"#/components/schemas/Pet/{segments}"
        doc = mutate(root_doc, point_at_copies_of_id)
        assert [f.code for f in validate(doc)] == codes

    def test_invalid_scope_action_key_is_flagged(self, root_doc):
        def add_patch(tree):
            methods = tree["components"]["schemas"]["Pet"]["x-objectAuth"][
                "scopes"]["methods"]
            methods["patch"] = {"description": "partial update"}
        findings = validate(mutate(root_doc, add_patch))
        assert [f.code for f in findings] == ["E-SCOPE-ACTION"]
        assert "patch" in findings[0].message

    def test_binding_without_any_action_is_flagged(self, root_doc):
        def clear(tree):
            tree["components"]["schemas"]["Pet"]["x-objectAuth"]["scopes"][
                "methods"] = {}
        findings = validate(mutate(root_doc, clear))
        assert [f.code for f in findings] == ["E-SCOPE-ACTION"]

    def test_identical_method_level_repeats_warn_as_duplicates(self, method_doc):
        def copy_binding_to_put(tree):
            op = tree["paths"]["/pet"]["post"]
            tree["paths"]["/pet"]["put"] = {
                "responses": op["responses"],
                "X-objectAuth": copy.deepcopy(op["X-objectAuth"]),
            }
        doubled = mutate(method_doc, copy_binding_to_put)
        findings = validate(doubled)
        assert [f.code for f in findings] == ["W-ESS-DUPLICATE"]
        assert findings[0].severity == "warning"

    def test_root_binding_shadowed_by_method_binding_is_conflict(self, root_doc):
        def add_method_binding(tree):
            tree["paths"]["/pet"]["post"]["X-objectAuth"] = {
                "object": {"$ref": "#/components/schemas/Pet/properties/id"},
                "token": {"type": "JWT", "in": "header"},
                "scopes": {"C": {"groups": {"type": "string"},
                                 "user_id": {"type": "string"}}},
            }
        findings = validate(mutate(root_doc, add_method_binding))
        assert "E-OBJECT-REF" in [f.code for f in findings]

    @pytest.mark.parametrize("ref", [
        "#/components/securitySchemes/Ghost",           # dangling
        "#/components/securitySchemes/Loop",            # cyclic alias chain
    ])
    def test_a_scheme_ref_that_lands_nowhere_dangles(self, root_doc, ref):
        def point(tree):
            schemes = tree["components"]["securitySchemes"]
            schemes["Loop"] = {"$ref": "#/components/securitySchemes/Loop2"}
            schemes["Loop2"] = {"$ref": "#/components/securitySchemes/Loop"}
            tree["components"]["schemas"]["Pet"]["x-objectAuth"]["schema"] = \
                {"$ref": ref}
        findings = validate(mutate(root_doc, point))
        assert [(f.code, f.path_context) for f in findings] == \
            [("E-DANGLING-REF", "#/components/schemas/Pet/x-objectAuth")]
        assert "scheme reference" in findings[0].message

    def test_a_scheme_ref_to_a_node_that_is_no_scheme_is_a_kind_error(
            self, root_doc):
        wrong = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                       ["x-objectAuth"]["schema"].update(
                           {"$ref": "#/components/schemas/Pet/properties/id"}))
        findings = validate(wrong)
        assert [f.code for f in findings] == ["E-SCHEME-KIND"]
        assert "does not target a security scheme" in findings[0].message

    def test_a_scheme_ref_through_an_alias_is_clean(self, root_doc):
        def alias(tree):
            schemes = tree["components"]["securitySchemes"]
            schemes["Alias"] = {
                "$ref": "#/components/securitySchemes/X-objectAuthScheme"}
            tree["components"]["schemas"]["Pet"]["x-objectAuth"]["schema"] = \
                {"$ref": "#/components/securitySchemes/Alias"}
        assert validate(mutate(root_doc, alias)) == []

    def test_a_relative_object_ref_resolves_from_its_own_path_item(self):
        # /a's ref lands in /a; /x/y has no 201 response, so its ref dangles.
        # A schema's binding has no path item to resolve from.
        binding = ("object: {$ref: 'post/responses/201/id'}, "
                   "token: {in: header}, scopes: ")
        doc = parse_document(
            "openapi: 3.0.3\npaths:\n"
            "  /a:\n    post:\n      responses: {'201': {id: {type: integer}}}\n"
            "      X-objectAuth: {" + binding + "{C: {}}}\n"
            "  /x/y:\n    post:\n      responses: {}\n"
            "      X-objectAuth: {" + binding + "{R: {}}}\n"
            "components:\n  schemas:\n    Thing:\n"
            "      x-objectAuth: {" + binding + "{methods: {post: {}}}}\n")
        findings = validate(doc)
        assert [(f.code, f.path_context) for f in findings] == [
            ("E-DANGLING-REF", "#/components/schemas/Thing/x-objectAuth"),
            ("E-DANGLING-REF", "#/paths/~1x~1y/post/X-objectAuth")]
        assert {f.message for f in findings} == \
            {"object reference 'post/responses/201/id' resolves to nothing"}

    @pytest.mark.parametrize("where", ["object", "schema", "groups", "alias"])
    @pytest.mark.parametrize("ref", [5, [1], {}, True])
    def test_a_ref_that_is_not_a_string_dangles(self, root_doc, where, ref):
        def point(tree):
            auth = tree["components"]["schemas"]["Pet"]["x-objectAuth"]
            if where == "alias":
                tree["components"]["securitySchemes"]["Alias"] = {"$ref": ref}
                auth["schema"] = {"$ref": "#/components/securitySchemes/Alias"}
            else:
                (auth["scopes"] if where == "groups" else auth)[where] = {"$ref": ref}
        findings = validate(mutate(root_doc, point))
        assert [(f.code, f.path_context) for f in findings] == \
            [("E-DANGLING-REF", "#/components/schemas/Pet/x-objectAuth")]

    @pytest.mark.parametrize("declared", [["integer", "null"], {}, 5, None])
    def test_an_object_id_type_that_is_not_a_string_is_not_primitive(
            self, root_doc, declared):
        wrong = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                       ["properties"]["id"].update({"type": declared}))
        assert [f.code for f in validate(wrong)] == ["E-OBJECT-REF"]

    def test_x_objects_on_a_node_that_is_not_a_binding_is_flagged(self, root_doc):
        wrong = mutate(root_doc, lambda t: t["paths"]["/pet"]["x-objects"].update(
            {"$ref": "#/components/schemas/Pet/properties/id"}))
        findings = validate(wrong)
        assert [(f.code, f.path_context) for f in findings] == \
            [("E-OBJECT-REF", "#/paths/~1pet")]
        assert "x-objects reference" in findings[0].message

    def test_divergent_method_level_bindings_on_one_path_conflict(self, method_doc):
        def diverge(tree):
            op = tree["paths"]["/pet"]["post"]
            binding = copy.deepcopy(op["X-objectAuth"])
            binding["scopes"] = {"U": binding["scopes"]["U"]}
            tree["paths"]["/pet"]["put"] = {"responses": op["responses"],
                                            "X-objectAuth": binding}
        findings = validate(mutate(method_doc, diverge))
        assert [(f.code, f.path_context) for f in findings] == \
            [("E-OBJECT-REF", "#/paths/~1pet/put/X-objectAuth")]
        assert "conflicting method-level bindings" in findings[0].message

    def test_schema_refs_inside_lists_count_as_handled_objects(self):
        doc = parse_document(
            "openapi: 3.0.3\npaths:\n  /pet:\n    get:\n      responses:\n"
            "        '200':\n          content:\n            a/b:\n"
            "              schema:\n                oneOf:\n"
            "                  - $ref: '#/components/schemas/Pet'\n"
            "                  - $ref: '#/components/schemas/Tag'\n"
            "components:\n  schemas:\n    Pet: {type: object}\n"
            "    Tag: {type: object}\n")
        [finding] = validate(doc)
        assert finding.code == "W-BOLA-UNBOUND"
        assert "Pet, Tag" in finding.message

    def test_a_finding_code_outside_the_catalog_is_refused(self):
        with pytest.raises(ValueError, match="unknown finding code"):
            Finding("error", "E-NOT-A-CODE", "#/", "message")

    def test_findings_are_deterministic_and_sorted(self, root_doc):
        broken = mutate(root_doc, lambda t: (
            t["components"]["securitySchemes"]["X-objectAuthScheme"].pop("x-user_id"),
            t["components"]["schemas"]["Pet"]["x-objectAuth"].pop("object"),
        ))
        first = validate(broken)
        second = validate(broken)
        assert first == second
        assert first == sorted(first, key=lambda f: (f.path_context, f.code,
                                                     f.message))

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_has_no_error_findings(self, name):
        assert not has_errors(validate(fixture_doc(name)))


class TestClassify:
    def test_root_level(self, root_doc):
        assert classify_design(root_doc) == "root_level"

    def test_method_level(self, method_doc):
        assert classify_design(method_doc) == "method_level"

    def test_mixed(self):
        assert classify_design(fixture_doc("mixed_design")) == "mixed"

    def test_none(self):
        assert classify_design(fixture_doc("no_ess_plain")) == "none"
        assert classify_design(fixture_doc("ess_scheme_only")) == "none"


class TestRendering:
    def test_text_rendering_one_line_per_finding(self, root_doc):
        broken = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                        ["x-objectAuth"].pop("object"))
        findings = validate(broken)
        text = render_text(findings)
        assert len(text.splitlines()) == len(findings)
        assert "E-OBJECT-REF" in text

    def test_json_rendering_parses_back(self, root_doc):
        broken = mutate(root_doc, lambda t: t["components"]["schemas"]["Pet"]
                        ["x-objectAuth"].pop("object"))
        payload = json.loads(render_json(validate(broken)))
        assert payload[0]["code"] == "E-OBJECT-REF"
        assert set(payload[0]) == {"severity", "code", "path_context", "message"}
