import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bola_guard import (
    MarkerSyntaxError,
    NoStubFoundError,
    StubInconsistentError,
    emit_document,
    parse_document,
    roundtrip_check,
    spec_to_stub,
    stub_to_spec,
    validate,
)
from bola_guard.errors import ValidationFailedError
from bola_guard.generator import (
    MANIFEST_NAME,
    MARKER_LIKE_RE,
    ObjectAuthAttachment,
    RouteSpec,
    StubManifest,
    document_from_manifest,
    ess_facts,
    manifest_from_document,
    recover_document,
    render_stub,
    stub_matches_spec,
)
from bola_guard.validator import classify_design, has_errors

from conftest import CORPUS, FIXTURES, fixture_doc, mutate

X_HEADER = ObjectAuthAttachment("X-objectAuthScheme", "header", "string",
                                "string", "id")


class TestManifest:
    def test_root_level_manifest_content(self, root_doc):
        manifest = manifest_from_document(root_doc)
        payload = json.loads(manifest.to_json())
        assert payload["routes"] == [{
            "path": "/pet",
            "methods": ["post", "put"],
            "object_auth": {
                "scheme_name": "X-objectAuthScheme",
                "token_location": "header",
                "groups_claim": "string",
                "user_id_claim": "string",
                "object_id_property": "id",
            },
        }]
        assert payload["module_includes"] == ["privilege_provider"]

    def test_document_without_bindings_has_no_attachments(self):
        manifest = manifest_from_document(fixture_doc("no_ess_plain"))
        assert all(r.object_auth is None for r in manifest.routes)
        assert manifest.module_includes == ()

    def test_method_level_manifest_equals_equivalent_root_level(self):
        from_method = manifest_from_document(fixture_doc("petstore_method_level"))
        from_root = manifest_from_document(fixture_doc("single_route_root_level"))
        assert from_method.to_json() == from_root.to_json()

    def test_manifest_json_round_trip(self, root_doc):
        manifest = manifest_from_document(root_doc)
        assert StubManifest.from_json(manifest.to_json()) == manifest

    def test_body_token_location_is_carried(self):
        manifest = manifest_from_document(fixture_doc("body_token_method_level"))
        assert manifest.routes[0].object_auth.token_location == "body"


def _auth(tree):
    return tree["components"]["schemas"]["Pet"]["x-objectAuth"]


class TestSchemeWiring:
    """The stub wires the scheme the validator checked."""

    def test_an_alias_is_wired_as_the_scheme_it_names(self, root_doc):
        direct = mutate(root_doc, lambda t: t["components"]["securitySchemes"][
            "X-objectAuthScheme"].update({"in": "query"}))

        def alias(tree):
            tree["components"]["securitySchemes"]["Alias"] = {
                "$ref": "#/components/securitySchemes/X-objectAuthScheme"}
            _auth(tree)["schema"] = {"$ref": "#/components/securitySchemes/Alias"}
        aliased = mutate(direct, alias)
        assert validate(aliased) == []
        [route] = manifest_from_document(aliased).routes
        assert (route.object_auth.scheme_name, route.object_auth.token_location) \
            == ("X-objectAuthScheme", "body")
        assert manifest_from_document(aliased) == manifest_from_document(direct)
        assert ess_facts(aliased) == ess_facts(direct)
        assert roundtrip_check(aliased)

    def test_a_casing_of_the_extension_name_is_wired_as_the_scheme(self, root_doc):
        recased = mutate(root_doc, lambda t: _auth(t).update({"schema": {
            "$ref": "#/components/securitySchemes/x-objectauthscheme"}}))
        assert validate(recased) == []
        assert manifest_from_document(recased) == manifest_from_document(root_doc)

    @pytest.mark.parametrize("ref", [5, [1], None])
    def test_an_object_ref_that_is_not_a_string_is_wired_as_id(self, root_doc,
                                                               ref):
        doc = mutate(root_doc, lambda t: _auth(t).update({"object": {"$ref": ref}}))
        assert has_errors(validate(doc))
        assert ess_facts(doc) == ess_facts(root_doc)
        [route] = manifest_from_document(doc).routes
        assert route.object_auth.object_id_property == "id"

    @pytest.mark.parametrize("ref, token, token_in", [
        ("#/components/securitySchemes/Ghost", None, "header"),
        ("#/components/securitySchemes/Loop", None, "header"),
        ("#/components/schemas/Pet", None, "header"),
        ("#/components/securitySchemes/Ghost", {"in": "body"}, "body"),
        ("#/components/securitySchemes/Loop", {"in": "query"}, "body"),
        ("#/components/schemas/Pet", {"in": "header"}, "header"),
    ])
    def test_a_ref_that_lands_on_no_scheme_is_wired_from_the_inline_token(
            self, root_doc, tmp_path, ref, token, token_in):
        def point(tree):
            tree["components"]["securitySchemes"]["Loop"] = {
                "$ref": "#/components/securitySchemes/Loop"}
            _auth(tree)["schema"] = {"$ref": ref}
            if token is not None:
                _auth(tree)["token"] = token
        doc = mutate(root_doc, point)
        assert has_errors(validate(doc))
        assert ess_facts(doc) == {"/pet": '# @object_privilege(path="/pet", '
                                  f'token_in="{token_in}", groups=true, user_id=true)'}
        [route] = manifest_from_document(doc).routes
        assert route.object_auth.scheme_name == "X-objectAuthScheme"
        spec_to_stub(root_doc, tmp_path)
        assert stub_matches_spec(doc, tmp_path) is (token_in == "header")


class TestSpecToStub:
    def test_generated_tree_layout(self, root_doc, tmp_path):
        spec_to_stub(root_doc, tmp_path)
        assert (tmp_path / MANIFEST_NAME).is_file()
        assert (tmp_path / "handlers" / "pet.stub").is_file()
        assert (tmp_path / "privilege_provider" / "provider.descriptor").is_file()

    def test_marker_above_every_handler_of_a_bound_path(self, root_doc, tmp_path):
        spec_to_stub(root_doc, tmp_path)
        lines = (tmp_path / "handlers" / "pet.stub").read_text().splitlines()
        marker = ('# @object_privilege(path="/pet", token_in="header", '
                  'groups=true, user_id=true)')
        handler_indexes = [i for i, l in enumerate(lines)
                           if l.startswith("def handle_")]
        assert len(handler_indexes) == 2
        for idx in handler_indexes:
            assert lines[idx - 1] == marker

    def test_unbound_paths_get_no_markers_or_provider(self, tmp_path):
        spec_to_stub(fixture_doc("no_ess_plain"), tmp_path)
        for stub in (tmp_path / "handlers").glob("*.stub"):
            assert "@object_privilege" not in stub.read_text()
        assert not (tmp_path / "privilege_provider").exists()

    def test_generation_is_deterministic(self, root_doc, tmp_path):
        spec_to_stub(root_doc, tmp_path / "a")
        spec_to_stub(root_doc, tmp_path / "b")
        for name in (MANIFEST_NAME, "handlers/pet.stub",
                     "privilege_provider/provider.descriptor"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_documents_with_error_findings_are_refused(self, root_doc, tmp_path):
        import copy
        from bola_guard.model import build_document
        tree = copy.deepcopy(root_doc.raw)
        del tree["components"]["schemas"]["Pet"]["x-objectAuth"]["object"]
        with pytest.raises(ValidationFailedError):
            spec_to_stub(build_document(tree), tmp_path)

    def test_descriptor_lists_the_matched_configuration(self, root_doc, tmp_path):
        import yaml
        spec_to_stub(root_doc, tmp_path)
        descriptor = yaml.safe_load(
            (tmp_path / "privilege_provider" / "provider.descriptor").read_text())
        assert descriptor["provider"] == "object-privilege"
        assert descriptor["configurations"] == [
            {"token_in": "header", "groups": True, "user_id": True}]


class TestStubToSpec:
    def test_round_trip_validates_cleanly_and_is_root_level(self, root_doc,
                                                            tmp_path):
        spec_to_stub(root_doc, tmp_path)
        recovered = stub_to_spec(tmp_path)
        assert validate(recovered) == []
        assert classify_design(recovered) == "root_level"

    def test_markerless_stub_recovers_plain_paths(self, tmp_path):
        spec_to_stub(fixture_doc("no_ess_plain"), tmp_path)
        recovered = stub_to_spec(tmp_path)
        assert set(recovered.paths) == {"/pet", "/health"}
        assert recovered.bindings() == []

    def test_body_marker_recovers_body_scheme(self, tmp_path):
        handlers = tmp_path / "handlers"
        handlers.mkdir()
        (handlers / "order.stub").write_text(
            "# route: /order\n"
            "\n"
            '# @object_privilege(path="/order", token_in="body", '
            'groups=true, user_id=true)\n'
            "def handle_post(request):\n"
            "    raise NotImplementedError\n",
            encoding="utf-8")
        recovered = stub_to_spec(tmp_path)
        scheme = recovered.security_schemes["X-objectAuthScheme"]
        assert scheme.location == "body"

    def test_scan_without_manifest_uses_headers_and_handlers(self, root_doc,
                                                             tmp_path):
        spec_to_stub(root_doc, tmp_path)
        (tmp_path / MANIFEST_NAME).unlink()
        recovered = stub_to_spec(tmp_path)
        assert set(recovered.paths) == {"/pet"}
        assert tuple(recovered.paths["/pet"].operations) == ("post", "put")
        assert recovered.paths["/pet"].binding is not None

    def test_malformed_marker_reports_file_and_line(self, tmp_path):
        handlers = tmp_path / "handlers"
        handlers.mkdir()
        stub = handlers / "pet.stub"
        stub.write_text(
            "# route: /pet\n"
            '# @object_privilege(path="/pet", token="header")\n'
            "def handle_post(request):\n"
            "    raise NotImplementedError\n",
            encoding="utf-8")
        with pytest.raises(MarkerSyntaxError) as exc:
            stub_to_spec(tmp_path)
        assert exc.value.file == str(stub)
        assert exc.value.line_no == 2

    def test_a_marker_in_a_file_without_a_route_header_is_refused(self, tmp_path):
        handlers = tmp_path / "handlers"
        handlers.mkdir()
        (handlers / "pet.stub").write_text(
            f"{X_HEADER.marker('/pet')}\ndef handle_get(request):\n    pass\n",
            encoding="utf-8")
        with pytest.raises(StubInconsistentError, match="no '# route:' header"):
            stub_to_spec(tmp_path)

    def test_a_file_without_a_route_header_or_marker_is_ignored(self, root_doc,
                                                                  tmp_path):
        spec_to_stub(root_doc, tmp_path)
        (tmp_path / MANIFEST_NAME).unlink()
        (tmp_path / "handlers" / "notes.stub").write_text(
            "def handle_get(request):\n    pass\n", encoding="utf-8")
        recovered = stub_to_spec(tmp_path)
        assert set(recovered.paths) == {"/pet"}
        assert ess_facts(recovered) == ess_facts(root_doc)

    def test_conflicting_markers_in_one_file_are_refused(self, root_doc, tmp_path):
        spec_to_stub(root_doc, tmp_path)
        (tmp_path / MANIFEST_NAME).unlink()
        stub = tmp_path / "handlers" / "pet.stub"
        stub.write_text(stub.read_text().replace(
            'token_in="header"', 'token_in="body"', 1), encoding="utf-8")
        with pytest.raises(StubInconsistentError, match="conflicting markers"):
            stub_to_spec(tmp_path)

    @pytest.mark.parametrize("groups, user_id", [(None, "string"),
                                                 ("string", None), (None, None)])
    def test_a_null_claim_is_left_out_of_the_recovered_document(self, groups,
                                                                user_id):
        attachment = ObjectAuthAttachment("X-objectAuthScheme", "header",
                                          groups, user_id, "id")
        doc = document_from_manifest(StubManifest(
            (RouteSpec("/pet", ("post",), attachment),)))
        scopes = _auth(doc.raw)["scopes"]
        scheme = doc.raw["components"]["securitySchemes"]["X-objectAuthScheme"]
        declared = (groups is not None, user_id is not None)
        assert ("groups" in scopes, "user_id" in scopes) == declared
        assert ("x-groups" in scheme, "x-user_id" in scheme) == declared
        assert ess_facts(doc) == {"/pet": attachment.marker("/pet")}

    @pytest.mark.parametrize("prop, segment", [("pet/id", "pet~1id"),
                                               ("a~b", "a~0b"),
                                               ("a%2Fb", "a%252Fb")])
    def test_the_recovered_object_ref_escapes_the_id_property(
            self, root_doc, tmp_path, prop, segment):
        def rename(tree):
            pet = tree["components"]["schemas"]["Pet"]
            pet["properties"][prop] = pet["properties"].pop("id")
            _auth(tree)["object"] = {
                "$ref": f"#/components/schemas/Pet/properties/{segment}"}
        doc = mutate(root_doc, rename)
        assert validate(doc) == []
        spec_to_stub(doc, tmp_path)
        recovered = stub_to_spec(tmp_path)
        assert validate(recovered) == []
        assert _auth(recovered.raw)["object"]["$ref"].endswith(f"/{segment}")
        assert manifest_from_document(recovered) == manifest_from_document(doc)

    def test_empty_directory_raises_no_stub_found(self, tmp_path):
        with pytest.raises(NoStubFoundError):
            stub_to_spec(tmp_path)

    def test_marker_attribute_disagreement_with_manifest(self, root_doc,
                                                         tmp_path):
        spec_to_stub(root_doc, tmp_path)
        stub = tmp_path / "handlers" / "pet.stub"
        stub.write_text(stub.read_text().replace(
            'token_in="header"', 'token_in="body"'), encoding="utf-8")
        with pytest.raises(StubInconsistentError):
            stub_to_spec(tmp_path)

    def test_marker_for_unbound_route_is_a_disagreement(self, tmp_path):
        spec_to_stub(fixture_doc("no_ess_plain"), tmp_path)
        stub = tmp_path / "handlers" / "health.stub"
        stub.write_text(stub.read_text() + X_HEADER.marker("/health") + "\n",
                        encoding="utf-8")
        with pytest.raises(StubInconsistentError):
            stub_to_spec(tmp_path)

    def test_never_fabricates_a_binding_without_a_marker(self, tmp_path):
        for name in CORPUS:
            out = tmp_path / name
            spec_to_stub(fixture_doc(name), out)
            # strip every marker and the manifest's attachments
            manifest = StubManifest.from_json(
                (out / MANIFEST_NAME).read_text(encoding="utf-8"))
            stripped = StubManifest(tuple(RouteSpec(r.path, r.methods, None)
                                          for r in manifest.routes))
            (out / MANIFEST_NAME).write_text(stripped.to_json(), encoding="utf-8")
            for stub in (out / "handlers").glob("*.stub"):
                lines = [l for l in stub.read_text().splitlines()
                         if "@object_privilege" not in l]
                stub.write_text("\n".join(lines), encoding="utf-8")
            recovered = stub_to_spec(out)
            assert recovered.bindings() == []


def _handlers(files: dict[str, str]) -> list[tuple[str, str]]:
    return sorted((relpath, text) for relpath, text in files.items()
                  if relpath.startswith("handlers/"))


def _keeps_facts(doc, manifest_text, handlers) -> bool:
    """True iff the stub recovers to a document with the facts of ``doc``."""
    try:
        recovered = recover_document(manifest_text, handlers)
    except StubInconsistentError:
        return False
    return ess_facts(recovered) == ess_facts(doc)


X_BODY = ObjectAuthAttachment("X-objectAuthScheme", "body", "string", "string",
                              "id")
X_MANIFEST = StubManifest((RouteSpec("/x", ("get",), X_BODY),)).to_json()


class TestStubReader:
    """One scan reads each handler file, with a manifest and without."""

    @pytest.mark.parametrize("manifest_text", [None, X_MANIFEST],
                             ids=["no_manifest", "manifest"])
    def test_a_marker_that_names_another_path_is_refused(self, manifest_text):
        text = f"# route: /x\n{X_BODY.marker('/y')}\ndef handle_get(request):\n"
        with pytest.raises(StubInconsistentError, match="under '# route: /x'"):
            recover_document(manifest_text, [("handlers/x.stub", text)])

    @pytest.mark.parametrize("manifest_text", [None, X_MANIFEST],
                             ids=["no_manifest", "manifest"])
    def test_a_marker_without_a_handler_is_refused(self, manifest_text):
        text = f"# route: /x\n{X_BODY.marker('/x')}\n"
        with pytest.raises(StubInconsistentError,
                           match=r"1 marker\(s\) for 0 handler\(s\)"):
            recover_document(manifest_text, [("handlers/x.stub", text)])

    @pytest.mark.parametrize("manifest_text", [None, X_MANIFEST],
                             ids=["no_manifest", "manifest"])
    def test_a_route_header_keeps_no_trailing_whitespace(self, manifest_text):
        # A hand-edited header: the path ends at its last visible character.
        text = f"# route: /x \t\n{X_BODY.marker('/x')}\ndef handle_get(request):\n"
        recovered = recover_document(manifest_text, [("handlers/x.stub", text)])
        assert set(recovered.paths) == {"/x"}
        assert ess_facts(recovered) == {"/x": X_BODY.marker("/x")}

    @pytest.mark.parametrize("spelling", ['"/x\\/y"', '"\\u002fx/y"'])
    def test_markers_that_spell_one_path_two_ways_agree(self, spelling):
        other = X_BODY.marker("/x/y").replace('"/x/y"', spelling)
        text = (f"# route: /x/y\n{X_BODY.marker('/x/y')}\ndef handle_get(request):\n"
                f"{other}\ndef handle_put(request):\n")
        recovered = recover_document(None, [("handlers/x_y.stub", text)])
        assert ess_facts(recovered) == {"/x/y": X_BODY.marker("/x/y")}

    def test_a_header_only_file_recovers_a_path_without_operations(self):
        recovered = recover_document(None, [("handlers/x.stub", "# route: /x\n")])
        assert set(recovered.paths) == {"/x"}
        assert recovered.paths["/x"].operations == {}
        assert recovered.bindings() == []

    def test_a_helper_named_like_a_handler_is_no_method(self):
        text = (f"# route: /x\n{X_BODY.marker('/x')}\n"
                "def handle_get(request):\n    return handle_errors(request)\n"
                "def handle_errors(request):\n    pass\n")
        recovered = recover_document(None, [("handlers/x.stub", text)])
        assert list(recovered.raw["paths"]["/x"]) == ["get", "x-objects"]
        assert ess_facts(recovered) == {"/x": '# @object_privilege(path="/x", '
                                        'token_in="body", groups=true, user_id=true)'}

    def test_a_renamed_handler_disagrees_with_the_manifest(self, root_doc):
        _, files = render_stub(root_doc)
        files["handlers/pet.stub"] = files["handlers/pet.stub"].replace(
            "def handle_put(", "def handle_patch(")
        with pytest.raises(StubInconsistentError, match="post/put with"):
            recover_document(files[MANIFEST_NAME], _handlers(files))
        recovered = recover_document(None, _handlers(files))
        assert tuple(recovered.paths["/pet"].operations) == ("post", "patch")

    def test_a_bound_path_without_operations_round_trips_through_the_manifest(
            self, root_doc):
        bare = mutate(root_doc, lambda t: [t["paths"]["/pet"].pop(verb)
                                           for verb in ("post", "put")])
        assert validate(bare) == []
        _, files = render_stub(bare)
        assert "@object_privilege" not in files["handlers/pet.stub"]
        assert _keeps_facts(bare, files[MANIFEST_NAME], _handlers(files))
        assert roundtrip_check(bare)

    def test_the_manifest_names_each_recovered_scheme(self):
        manifest = StubManifest(tuple(
            RouteSpec(path, ("get",), ObjectAuthAttachment(
                scheme, location, "string", "string", "id"))
            for path, scheme, location in [("/pet", "MyScheme", "header"),
                                           ("/toy", "a/b~c d%41", "body")]))
        _, files = render_stub(document_from_manifest(manifest))
        recovered = recover_document(files[MANIFEST_NAME], _handlers(files))
        assert list(recovered.raw["components"]["securitySchemes"]) == \
            ["MyScheme", "a/b~c d%41"]
        assert validate(recovered) == []
        assert manifest_from_document(recovered) == manifest
        # Markers alone name no scheme, so each gets the canonical name.
        marked = recover_document(None, _handlers(files))
        assert list(marked.raw["components"]["securitySchemes"]) == \
            ["X-objectAuthScheme", "X-objectAuthScheme_2"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_round_trips(self, name, tmp_path):
        doc = fixture_doc(name)
        spec_to_stub(doc, tmp_path)
        assert stub_matches_spec(doc, tmp_path)

    def test_document_without_bindings_round_trips(self, tmp_path):
        doc = fixture_doc("ess_scheme_only")
        spec_to_stub(doc, tmp_path)
        assert stub_matches_spec(doc, tmp_path)

    def test_deleting_one_marker_breaks_the_round_trip(self, root_doc, tmp_path):
        spec_to_stub(root_doc, tmp_path)
        assert stub_matches_spec(root_doc, tmp_path)
        stub = tmp_path / "handlers" / "pet.stub"
        lines = stub.read_text().splitlines()
        first_marker = next(i for i, l in enumerate(lines)
                            if "@object_privilege" in l)
        del lines[first_marker]
        stub.write_text("\n".join(lines), encoding="utf-8")
        assert not stub_matches_spec(root_doc, tmp_path)

    def test_round_tripped_documents_validate_cleanly(self, tmp_path):
        for name in CORPUS:
            out = tmp_path / name
            spec_to_stub(fixture_doc(name), out)
            assert validate(stub_to_spec(out)) == []

    # The marker writes the path as a JSON string literal, and the route
    # header holds it to the end of its line.
    @pytest.mark.parametrize("path", ["/a b", '/a"b', "/a\\b", "/a\tb",
                                      "/p\u00e9t"])
    def test_a_bound_path_that_validates_round_trips(self, path, tmp_path):
        doc = document_from_manifest(StubManifest((_bound(path),)))
        assert validate(doc) == []
        assert roundtrip_check(doc)
        spec_to_stub(doc, tmp_path)
        assert stub_matches_spec(doc, tmp_path)

    # A line break would cut the route header, and its trailing whitespace
    # is trimmed on reading.
    @pytest.mark.parametrize("path", ["/a\nb", "/a\rb", "/a\x0cb", "/a\x85b",
                                      "/a ", "/a\t"])
    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "unbound"])
    def test_a_path_the_route_header_cannot_carry_is_an_error(self, path, bound):
        route = _bound(path) if bound else RouteSpec(path, ("get",), None)
        doc = document_from_manifest(StubManifest((route,)))
        assert [(f.severity, f.code) for f in validate(doc)] == \
            [("error", "E-PATH-KEY")]
        with pytest.raises(ValidationFailedError):
            roundtrip_check(doc)


def _bound(path: str) -> RouteSpec:
    return RouteSpec(path, ("post", "get"), X_HEADER)


# Every fixture, plus documents whose stubs are edge cases: two paths whose
# handler files share a slug, bound or not, and documents with no bound route
# or no route at all.
IN_MEMORY_CASES = {
    **{name: (lambda name=name: fixture_doc(name)) for name in CORPUS},
    "slug_collision_bound": lambda: document_from_manifest(StubManifest(
        (_bound("/a-b"), _bound("/a_b")))),
    "slug_collision_unbound": lambda: document_from_manifest(StubManifest(
        (RouteSpec("/a-b", ("get",), None), _bound("/a_b")))),
    "no_bound_route": lambda: document_from_manifest(StubManifest(
        (RouteSpec("/a-b", ("get",), None), RouteSpec("/a_b", ("put",), None)))),
    "no_route": lambda: parse_document("openapi: 3.0.3\npaths: {}\n"),
}


def _tree_bytes(root):
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


class TestInMemoryStub:
    @pytest.mark.parametrize("case", IN_MEMORY_CASES)
    def test_rendered_map_is_the_written_tree(self, case, tmp_path):
        doc = IN_MEMORY_CASES[case]()
        manifest, files = render_stub(doc)
        assert spec_to_stub(doc, tmp_path) == manifest
        assert _tree_bytes(tmp_path) == \
            {relpath: text.encode("utf-8") for relpath, text in files.items()}
        assert (tmp_path / "handlers").is_dir()

    @pytest.mark.parametrize("case", IN_MEMORY_CASES)
    def test_in_memory_round_trip_agrees_with_disk(self, case, tmp_path):
        doc = IN_MEMORY_CASES[case]()
        spec_to_stub(doc, tmp_path)
        assert roundtrip_check(doc) == stub_matches_spec(doc, tmp_path)

    def test_paths_whose_slugs_collide_get_a_file_each(self, tmp_path):
        doc = document_from_manifest(StubManifest(
            (_bound("/a-b"), _bound("/a_b"), _bound("/a_b_2"))))
        _, files = render_stub(doc)
        # The first free ``_<n>`` suffix from ``_2`` on, in path order.
        assert [p for p in files if p.startswith("handlers/")] == \
            ["handlers/a_b.stub", "handlers/a_b_2.stub", "handlers/a_b_2_2.stub"]
        assert "# route: /a_b\n" in files["handlers/a_b_2.stub"]
        for manifest_text in (files[MANIFEST_NAME], None):
            recovered = recover_document(manifest_text, _handlers(files))
            assert ess_facts(recovered) == ess_facts(doc)
        assert roundtrip_check(doc)
        spec_to_stub(doc, tmp_path)
        assert set(stub_to_spec(tmp_path).paths) == {"/a-b", "/a_b", "/a_b_2"}
        assert stub_matches_spec(doc, tmp_path)

    def test_round_trip_writes_nothing(self, root_doc, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the in-memory round trip touched the disk")
        for name in ("write_text", "write_bytes", "mkdir", "open"):
            monkeypatch.setattr(Path, name, refuse)
        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        assert roundtrip_check(root_doc)


class TestGoldenEmission:
    def test_manifest_built_document_matches_golden(self, root_doc):
        manifest = manifest_from_document(root_doc)
        emitted = emit_document(document_from_manifest(manifest), "yaml")
        golden = (FIXTURES / "generated_from_manifest.golden.yaml").read_text()
        assert emitted == golden

    def test_golden_contains_binding_under_the_schema(self):
        golden = (FIXTURES / "generated_from_manifest.golden.yaml").read_text()
        assert "x-objectAuth" in golden
        doc = parse_document(golden)
        assert doc.paths["/pet"].binding is doc.schemas["Pet"]


attachment_strategy = st.one_of(
    st.none(),
    st.builds(
        ObjectAuthAttachment,
        scheme_name=st.just("X-objectAuthScheme"),
        token_location=st.sampled_from(["header", "body"]),
        groups_claim=st.just("string"),
        user_id_claim=st.just("string"),
        object_id_property=st.sampled_from(["id", "identifier", "pet/id", "a~b",
                                            "a%2Fb"]),
    ),
)


@st.composite
def manifests(draw):
    paths = draw(st.lists(st.sampled_from(["/pet", "/user", "/order", "/toy",
                                           "/a-b", "/a_b"]),
                          unique=True, min_size=1, max_size=6))
    routes = []
    for path in sorted(paths):
        methods = tuple(sorted(
            draw(st.sets(st.sampled_from(["post", "get", "put", "delete"]),
                         min_size=1)),
            key=["post", "get", "put", "delete"].index))
        routes.append(RouteSpec(path=path, methods=methods,
                                object_auth=draw(attachment_strategy)))
    return StubManifest(tuple(routes))


class TestGeneratedDocumentProperties:
    @given(manifests())
    def test_built_documents_emit_and_reparse_identically(self, manifest):
        doc = document_from_manifest(manifest)
        for fmt in ("yaml", "json"):
            assert parse_document(emit_document(doc, fmt), fmt) == doc

    @given(manifests())
    def test_built_documents_preserve_manifest_facts(self, manifest):
        doc = document_from_manifest(manifest)
        facts = ess_facts(doc)
        for route in manifest.routes:
            assert facts[route.path] == (None if route.object_auth is None else
                                         route.object_auth.marker(route.path))

    @given(manifests())
    def test_built_documents_validate_cleanly(self, manifest):
        assert validate(document_from_manifest(manifest)) == []

    @given(manifests())
    def test_markers_recover_the_facts_with_or_without_the_manifest(self,
                                                                    manifest):
        doc = document_from_manifest(manifest)
        _, files = render_stub(doc)
        handlers = _handlers(files)
        for manifest_text in (files[MANIFEST_NAME], None):
            assert _keeps_facts(doc, manifest_text, handlers)
            for index, (label, text) in enumerate(handlers):
                lines = text.splitlines()
                for at, line in enumerate(lines):
                    if MARKER_LIKE_RE.match(line):
                        edited = list(handlers)
                        edited[index] = (label, "\n".join(lines[:at] + lines[at + 1:]))
                        assert not _keeps_facts(doc, manifest_text, edited)
