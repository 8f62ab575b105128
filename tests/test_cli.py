import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import bola_guard
from bola_guard import (DocumentSyntaxError, RuleSetError, ServiceConfig,
                        emit_document, load_rules, parse_document, verify_token)
from bola_guard import service
from bola_guard.cli import main
from bola_guard.generator import MANIFEST_NAME, render_stub
from bola_guard.model import MAX_DEPTH

from conftest import CORPUS, FIXTURES, fixture_doc


GOOD_SPEC = str(FIXTURES / "petstore_root_level.yaml")


@pytest.fixture
def broken_spec(tmp_path):
    text = (FIXTURES / "ess_scheme_only.yaml").read_text()
    target = tmp_path / "broken.yaml"
    target.write_text(text.replace("      x-user_id: string\n", ""),
                      encoding="utf-8")
    return str(target)


class TestValidateCommand:
    def test_clean_document_quiet_mode(self, capsys):
        assert main(["validate", GOOD_SPEC, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_broken_document_prints_finding_and_exits_1(self, broken_spec,
                                                        capsys):
        assert main(["validate", broken_spec]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "E-SCHEME-INCOMPLETE" in out

    def test_json_output(self, broken_spec, capsys):
        assert main(["validate", broken_spec, "--json"]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert findings[0]["code"] == "E-SCHEME-INCOMPLETE"

    def test_missing_file_exits_3(self, capsys):
        assert main(["validate", "/nonexistent.yaml"]) == 3

    def test_malformed_document_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("paths: [unclosed", encoding="utf-8")
        assert main(["validate", str(bad)]) == 3

    @pytest.mark.parametrize("segment", ["\u00b2", "9" * 5000],
                             ids=["superscript-two", "past-int-digit-limit"])
    def test_a_ref_segment_that_int_refuses_draws_a_finding(self, tmp_path,
                                                            capsys, segment):
        spec = tmp_path / "spec.yaml"
        spec.write_text(Path(GOOD_SPEC).read_text().replace(
            "'#/components/schemas/Pet/properties/id'",
            f"'#/components/schemas/Pet/properties/{segment}'"), encoding="utf-8")
        assert main(["validate", str(spec)]) == 1
        captured = capsys.readouterr()
        assert "E-DANGLING-REF" in captured.out and captured.err == ""

    def test_non_utf8_document_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(b"openapi: 3.0.3\ninfo: {title: caf\xe9}\npaths: {}\n")
        assert main(["validate", str(bad)]) == 3
        assert "utf-8" in capsys.readouterr().err


class TestClassifyCommand:
    def test_plain_output(self, capsys):
        assert main(["classify", GOOD_SPEC]) == 0
        assert capsys.readouterr().out.strip() == "root_level"

    def test_json_output(self, capsys):
        assert main(["classify", GOOD_SPEC, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"design": "root_level"}


class TestGeneratorCommands:
    def test_gen_stub_then_gen_spec(self, tmp_path, capsys):
        out_dir = tmp_path / "stub"
        assert main(["gen-stub", GOOD_SPEC, "-o", str(out_dir)]) == 0
        assert (out_dir / "manifest.json").is_file()
        out_file = tmp_path / "recovered.yaml"
        assert main(["gen-spec", str(out_dir), "-o", str(out_file)]) == 0
        assert "x-objectAuth" in out_file.read_text()
        assert main(["validate", str(out_file), "--quiet"]) == 0

    def test_gen_spec_json_names_the_output_and_its_paths(self, tmp_path, capsys):
        out_dir = tmp_path / "stub"
        assert main(["gen-stub", GOOD_SPEC, "-o", str(out_dir)]) == 0
        capsys.readouterr()
        out_file = tmp_path / "recovered.json"
        assert main(["gen-spec", str(out_dir), "-o", str(out_file), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == \
            {"out": str(out_file), "paths": ["/pet"]}
        assert "x-objectAuth" in json.loads(out_file.read_text())["components"][
            "schemas"]["Pet"]

    def test_gen_stub_json_prints_manifest(self, tmp_path, capsys):
        assert main(["gen-stub", GOOD_SPEC, "-o", str(tmp_path / "s"),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routes"][0]["path"] == "/pet"

    def test_roundtrip_ok(self, capsys):
        assert main(["roundtrip", GOOD_SPEC]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_roundtrip_json(self, capsys):
        assert main(["roundtrip", GOOD_SPEC, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"roundtrip": True}

    def test_gen_spec_without_stub_exits_1(self, tmp_path, capsys):
        assert main(["gen-spec", str(tmp_path), "-o",
                     str(tmp_path / "x.yaml")]) == 1

    @pytest.mark.parametrize("manifest", [
        pytest.param('{"routes": [', id="not_json"),
        pytest.param('[]', id="root_is_a_list"),
        pytest.param('{"routes": ["/pet"]}', id="route_is_a_string"),
        pytest.param('{"routes": [{"methods": ["get"]}]}', id="route_without_path"),
        pytest.param('{"routes": [{"path": "/pet"}]}', id="route_without_methods"),
        pytest.param('{"routes": [{"path": "/pet", "methods": ["fetch"]}]}',
                     id="unknown_method"),
        pytest.param('{"routes": [{"path": "/pet", "methods": ["get"], '
                     '"object_auth": {"token_location": "header"}}]}',
                     id="object_auth_without_scheme_name"),
        pytest.param('{"routes": [{"path": "/pet", "methods": ["get"], '
                     '"object_auth": {"scheme_name": "X-objectAuthScheme"}}]}',
                     id="object_auth_without_token_location"),
        pytest.param('{"routes": [{"path": "/pet", "methods": ["get"], '
                     '"object_auth": {"scheme_name": "X-objectAuthScheme", '
                     '"token_location": "query"}}]}', id="token_location_query"),
    ])
    def test_a_malformed_manifest_exits_3_with_one_error_line(self, tmp_path,
                                                             capsys, manifest):
        (tmp_path / "manifest.json").write_text(manifest, encoding="utf-8")
        assert main(["gen-spec", str(tmp_path), "-o",
                     str(tmp_path / "x.yaml")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: manifest.json: ") and err.count("\n") == 1
        assert not (tmp_path / "x.yaml").exists()


    @pytest.mark.parametrize("field", ["scheme_name", "object_id_property"])
    def test_a_lone_surrogate_in_the_manifest_exits_3(self, tmp_path, capsys,
                                                      field):
        main(["gen-stub", GOOD_SPEC, "-o", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["routes"][0]["object_auth"][field] = "a\ud800"
        # Valid JSON: the surrogate is written as an escape.
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["gen-spec", str(tmp_path), "-o",
                     str(tmp_path / "x.yaml")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.yaml").exists()

    @pytest.mark.parametrize("ref", ["5", "[1]", "'#/components/schemas/Ghost'"])
    def test_an_x_objects_ref_that_dangles_exits_1(self, tmp_path, capsys, ref):
        spec = tmp_path / "spec.yaml"
        spec.write_text(Path(GOOD_SPEC).read_text().replace(
            "'#/components/schemas/Pet/x-objectAuth'", ref), encoding="utf-8")
        for command in ("validate", "classify", "roundtrip"):
            assert main([command, str(spec)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: unresolvable reference: ")
            assert err.count("\n") == 1


    @pytest.mark.parametrize("path, code", [("/a\nb", 1), ("/a\t", 1),
                                            ("/a b", 0)])
    def test_gen_stub_and_roundtrip_refuse_a_path_a_stub_cannot_carry(
            self, tmp_path, capsys, path, code):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.3", "info": {"title": "t", "version": "1"},
            "paths": {path: {"get": {"responses": {"200": {
                "description": "ok"}}}}}}), encoding="utf-8")
        assert main(["roundtrip", str(spec)]) == code
        assert main(["gen-stub", str(spec), "-o", str(tmp_path / "stub")]) == code
        assert "Traceback" not in capsys.readouterr().err


class TestTokenCommand:
    def test_issue_with_key_flag(self, tmp_path, capsys):
        key_file = tmp_path / "signing.key"
        key_file.write_bytes(b"cli-test-key")
        assert main(["token", "issue", "--user", "123", "--name", "alice",
                     "--groups", "G11,G21", "--ttl", "60",
                     "--key", str(key_file)]) == 0
        raw = capsys.readouterr().out.strip()
        claims = verify_token(raw, b"cli-test-key", now=__import__("time").time())
        assert claims.user_id == "123"
        assert claims.groups == frozenset({"G11", "G21"})

    def test_issue_with_env_key(self, tmp_path, capsys, monkeypatch):
        key_file = tmp_path / "signing.key"
        key_file.write_bytes(b"env-key")
        monkeypatch.setenv("BOLA_GUARD_KEY", str(key_file))
        assert main(["token", "issue", "--user", "1", "--name", "x",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        verify_token(payload["token"], b"env-key", now=0)

    def test_issue_without_key_exits_3(self, capsys, monkeypatch):
        monkeypatch.delenv("BOLA_GUARD_KEY", raising=False)
        assert main(["token", "issue", "--user", "1", "--name", "x"]) == 3

    @pytest.mark.parametrize("ttl", ["nan", "inf", "-inf", "-1", "0", "abc"])
    def test_ttl_must_be_positive_and_finite(self, tmp_path, capsys, ttl):
        key_file = tmp_path / "signing.key"
        key_file.write_bytes(b"cli-test-key")
        assert main(["token", "issue", "--user", "1", "--name", "x", "--json",
                     f"--ttl={ttl}", "--key", str(key_file)]) == 2
        assert capsys.readouterr().out == ""


class TestAclCommands:
    @pytest.fixture
    def journal(self, tmp_path):
        from bola_guard import AclStore, AccessControlEntry
        location = tmp_path / "acl.ndjson"
        with AclStore.open(location) as store:
            store.put(AccessControlEntry.for_new_object(152, "/pets", "123"))
            store.put(AccessControlEntry.for_new_object(7, "/pets", "456"))
            store.delete("/pets", 7)
        return str(location)

    def test_list(self, journal, capsys):
        assert main(["acl", "list", "--journal", journal]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["id"] == 152

    def test_list_json(self, journal, capsys):
        assert main(["acl", "list", "--journal", journal, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["owner"] == "123"

    def test_grant_by_owner(self, journal, capsys):
        assert main(["acl", "grant", "--journal", journal, "--path", "/pets",
                     "--object", "152", "--actor", "123",
                     "--grantee", "456", "--level", "ro"]) == 0
        assert json.loads(capsys.readouterr().out)["users_ro"] == ["456"]

    def test_regrant_of_the_same_level_appends_nothing(self, journal, capsys):
        argv = ["acl", "grant", "--journal", journal, "--path", "/pets",
                "--object", "152", "--actor", "123", "--grantee", "456",
                "--level", "rw"]
        before = Path(journal).read_bytes()
        assert main(argv) == 0
        once = Path(journal).read_bytes()
        assert once.count(b"\n") == before.count(b"\n") + 1
        assert main(argv) == 0
        assert Path(journal).read_bytes() == once
        first, second = capsys.readouterr().out.splitlines()
        assert first == second
        assert json.loads(second)["users_rw"] == ["123", "456"]

    def test_grant_by_non_owner_fails(self, journal, capsys):
        assert main(["acl", "grant", "--journal", journal, "--path", "/pets",
                     "--object", "152", "--actor", "999",
                     "--grantee", "456", "--level", "ro"]) == 1

    def test_grant_missing_object_fails(self, journal, capsys):
        assert main(["acl", "grant", "--journal", journal, "--path", "/pets",
                     "--object", "404", "--actor", "123",
                     "--grantee", "456", "--level", "ro"]) == 1

    def test_compact(self, journal, capsys, tmp_path):
        assert main(["acl", "compact", "--journal", journal, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"entries": 1}

    def test_compact_text_output(self, journal, capsys):
        assert main(["acl", "compact", "--journal", journal]) == 0
        assert capsys.readouterr().out == "compacted journal to 1 live entry\n"
        Path(journal).write_text("", encoding="utf-8")
        assert main(["acl", "compact", "--journal", journal]) == 0
        assert capsys.readouterr().out == "compacted journal to 0 live entries\n"


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["gen-stub", GOOD_SPEC]) == 2

    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2

    def test_serve_takes_no_json_flag(self, capsys):
        assert main(["serve", "--config", "service.yaml", "--json"]) == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestDeepNesting:
    """A text nested past ``MAX_DEPTH``, and past the recursion limit, is
    refused with the decoder's usual error on every decode path, where
    libyaml's composer would overflow the C stack and the pure-Python one
    and ``json`` raise RecursionError. Each runs in a child process, so a
    crash fails the test and not the run."""

    DEPTH = 50_000
    NEST = "[" * DEPTH + "]" * DEPTH
    YAML = {
        "libyaml": "openapi: 3.0.0\npaths: {}\nx: " + NEST + "\n",
        "pure": 'openapi: 3.0.0\npaths: {}\ny: "!"\nx: ' + NEST + "\n",
        "libyaml-after-a-merge-key":
            "openapi: 3.0.0\npaths: {}\nm: &b {a: 1}\nn: {<<: *b}\nx: "
            + NEST + "\n",
        # Past the pure composer's recursion limit.
        "pure-after-a-tag": "openapi: 3.0.0\npaths: {}\ny: !!str a\nx: "
                            + "[" * 900 + "]" * 900 + "\n",
    }

    @staticmethod
    def _child(code: str, argument: str) -> str:
        src = str(Path(bola_guard.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code, argument], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0 and "Traceback" not in done.stderr, \
            (done.returncode, done.stderr[-2000:])
        return done.stdout

    def _exit_codes(self, *argvs: list[str]) -> str:
        return self._child(
            "import json, sys\nfrom bola_guard.cli import main\n"
            "print([main(argv) for argv in json.loads(sys.argv[1])])",
            json.dumps(argvs))

    def _spec_exit_codes(self, spec: Path) -> str:
        return self._exit_codes(*([command, str(spec)] for command in
                                  ("validate", "classify", "roundtrip")))

    @pytest.mark.parametrize("decoder", list(YAML))
    def test_a_deep_yaml_document_exits_3(self, tmp_path, decoder):
        spec = tmp_path / "deep.yaml"
        spec.write_text(self.YAML[decoder], encoding="utf-8")
        assert self._spec_exit_codes(spec) == "[3, 3, 3]\n"

    def test_a_deep_json_document_or_manifest_exits_3(self, tmp_path):
        depth = 2 * self.DEPTH
        nest = "[" * depth + "]" * depth
        spec = tmp_path / "deep.json"
        spec.write_text('{"openapi": "3.0.0", "paths": {}, "x": ' + nest + "}",
                        encoding="utf-8")
        assert self._spec_exit_codes(spec) == "[3, 3, 3]\n"
        (tmp_path / MANIFEST_NAME).write_text('{"routes": ' + nest + "}",
                                              encoding="utf-8")
        assert self._exit_codes(["gen-spec", str(tmp_path), "-o",
                                 str(tmp_path / "out.yaml")]) == "[3]\n"

    # The pure loader's case is the CLI test's: its scanner takes about a
    # second to reach the bound.
    @pytest.mark.parametrize("decoder", ["libyaml", "libyaml-after-a-merge-key"])
    def test_a_deep_rule_file_or_config_is_their_usual_error(self, tmp_path,
                                                            decoder):
        path = tmp_path / "deep.yaml"
        path.write_text(self.YAML[decoder], encoding="utf-8")
        assert self._child(
            "import sys\nfrom bola_guard.rules import load_rules\n"
            "from bola_guard.service import ServiceConfig\n"
            "for load in (load_rules, ServiceConfig.load):\n"
            "    try:\n        load(sys.argv[1])\n"
            "    except Exception as exc:\n        print(type(exc).__name__)\n",
            str(path)) == "RuleSetError\nDocumentSyntaxError\n"


def _with_frames(count: int, call):
    """``call()`` run under ``count`` more frames."""
    return call() if count == 0 else _with_frames(count - 1, call)


class TestDeepDocuments:
    """A document nested ``MAX_DEPTH`` deep runs through every command and
    emission with frames to spare, in both formats; one level deeper is
    exit 3 in both."""

    PLACE = ("paths", "/pet", "post", "responses", "201", "x-deep")

    def _spec(self, tmp_path, depth, fmt):
        deep: list = []
        for _ in range(depth - len(self.PLACE) - 1):  # the tree's levels
            deep = [deep]
        tree = _mutated(DOCUMENTS["petstore_root_level"], self.PLACE, deep)
        spec = tmp_path / f"deep.{fmt}"
        spec.write_text(json.dumps(tree) if fmt == "json"
                        else yaml.safe_dump(tree), encoding="utf-8")
        return spec

    @pytest.mark.parametrize("fmt", ["yaml", "json"])
    def test_the_deepest_document_runs_through_every_command(self, tmp_path,
                                                            fmt):
        spec = self._spec(tmp_path, MAX_DEPTH, fmt)

        def run():
            codes = [_exit_code([command, str(spec)])
                     for command in ("validate", "classify", "roundtrip")]
            doc = parse_document(spec.read_text(encoding="utf-8"), fmt)
            again = [parse_document(emit_document(doc, out), out)
                     for out in ("yaml", "json")]
            return codes, again == [doc, doc]
        assert _with_frames(150, run) == ([0, 0, 0], True)

    @pytest.mark.parametrize("fmt", ["yaml", "json"])
    def test_a_level_deeper_exits_3(self, tmp_path, fmt):
        spec = self._spec(tmp_path, MAX_DEPTH + 1, fmt)
        assert [_exit_code([command, str(spec)]) for command in
                ("validate", "classify", "roundtrip")] == [3, 3, 3]


class TestTypedScalars:
    """A plain scalar that PyYAML's constructor refuses (a date that does not
    exist) is each reader's syntax error, not a traceback."""

    @pytest.mark.parametrize("line", ["x: 2001-13-45", "example: 2021-02-30"])
    def test_a_date_that_does_not_exist_is_malformed_text(self, tmp_path, line):
        path = tmp_path / "text.yaml"
        path.write_text(f"openapi: 3.0.0\npaths: {{}}\n{line}\n",
                        encoding="utf-8")
        assert _exit_code(["validate", str(path)]) == 3
        with pytest.raises(RuleSetError, match="month|day"):
            load_rules(path)
        with pytest.raises(DocumentSyntaxError, match="config file"):
            ServiceConfig.load(path)


class TestServeConfig:
    @pytest.mark.parametrize("text", [
        "port: [8080\n",            # malformed YAML
        "- a\n",                    # root is a list
        "port: abc\n",
        "port: 70000\n",
        "host: [127.0.0.1]\n",
    ])
    def test_bad_config_exits_3_without_binding(self, tmp_path, monkeypatch,
                                                capsys, text):
        from bola_guard import service

        def refuse(*args, **kwargs):
            raise AssertionError("bound a port for a bad config")
        monkeypatch.setattr(service, "make_server", refuse)
        config = tmp_path / "service.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["serve", "--config", str(config)]) == 3
        assert "config file" in capsys.readouterr().err

    def test_serve_runs_until_interrupted_then_closes(self, tmp_path,
                                                     monkeypatch):
        import socketserver

        served = []

        def interrupt(server, *args, **kwargs):
            served.append(server.server_address)
            raise KeyboardInterrupt
        monkeypatch.setattr(socketserver.BaseServer, "serve_forever", interrupt)
        key = tmp_path / "key"
        key.write_bytes(b"k")
        config = tmp_path / "service.yaml"
        config.write_text(f"port: 0\nkey_path: {key}\n"
                          f"journal_path: {tmp_path / 'acl.ndjson'}\n",
                          encoding="utf-8")
        assert main(["serve", "--config", str(config)]) == 0
        [(host, port)] = served
        assert host == "127.0.0.1" and port > 0
        assert (tmp_path / "acl.ndjson").is_file()
        assert (tmp_path / "acl.ndjson.objects").is_file()

    def test_an_ill_typed_rule_file_exits_1_with_one_error_line(
            self, tmp_path, monkeypatch, capsys):
        from bola_guard import service

        def refuse(*args, **kwargs):
            raise AssertionError("bound a port for a bad rule file")
        monkeypatch.setattr(service, "make_server", refuse)
        key = tmp_path / "key"
        key.write_bytes(b"k")
        rules = tmp_path / "rules.yaml"
        rules.write_text("- {path: /pet, group: G21, actions: 5}\n",
                         encoding="utf-8")
        config = tmp_path / "service.yaml"
        config.write_text(f"key_path: {key}\nrules_path: {rules}\n"
                          f"journal_path: {tmp_path / 'acl.ndjson'}\n",
                          encoding="utf-8")
        assert main(["serve", "--config", str(config)]) == 1
        assert capsys.readouterr().err == \
            "error: rule #0: actions must be a list\n"

    def test_non_utf8_config_exits_3(self, tmp_path, capsys):
        config = tmp_path / "service.yaml"
        config.write_bytes(b"host: caf\xe9\n")
        assert main(["serve", "--config", str(config)]) == 3

    def test_null_keys_take_their_defaults(self, tmp_path):
        from bola_guard.service import ServiceConfig

        config = tmp_path / "service.yaml"
        config.write_text("port: 0\nhost: null\nrules_path: null\n",
                          encoding="utf-8")
        assert ServiceConfig.load(config) == ServiceConfig(port=0)

    def test_an_empty_config_file_takes_every_default(self, tmp_path):
        from bola_guard.service import ServiceConfig

        config = tmp_path / "service.yaml"
        config.write_text("", encoding="utf-8")
        assert ServiceConfig.load(config) == ServiceConfig()


# ---------------------------------------------------------------------------
# Generated hostile input: valid documents and manifests with one value
# replaced by an ill-typed one, or one key deleted.

HOSTILE = (5, None, [1], {}, True, "", {"$ref": 5}, "a\ud800")
# Plain scalars that PyYAML types: dates that do not exist, a NaN, a
# sexagesimal integer and one past int()'s digit limit.
TYPED_SCALARS = ("2001-13-45", "2021-02-30", ".nan", "1:30", "9" * 5000)
DELETE = "<delete>"
EXIT_CODES = {0, 1, 2, 3}


def _places(node, at=()):
    """The key or index path of every node below ``node``."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield at + (key,)
        yield from _places(child, at + (key,))


def _mutated(tree, place, value):
    tree = copy.deepcopy(tree)
    node = tree
    for key in place[:-1]:
        node = node[key]
    if value == DELETE:
        del node[place[-1]]
    else:
        node[place[-1]] = copy.deepcopy(value)
    return tree


def _yaml_with(tree, place, value) -> str:
    """``tree`` as JSON, which YAML reads, with the value at ``place``
    replaced by ``value`` or deleted; a typed scalar is spelled plain."""
    if value not in TYPED_SCALARS:
        return json.dumps(_mutated(tree, place, value))
    marker = "\u0000typed"
    return json.dumps(_mutated(tree, place, marker)).replace(json.dumps(marker),
                                                             value)


def _exit_code(argv) -> int:
    """``main``'s exit code; nothing may escape it."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


DOCUMENTS = {name: fixture_doc(name).raw for name in CORPUS}
DOCUMENT_PLACES = [(name, place) for name, tree in DOCUMENTS.items()
                   for place in _places(tree)]
# Each fixture's stub, as its files: the manifest is the mutated one.
STUBS = {name: render_stub(fixture_doc(name))[1] for name in CORPUS}
MANIFEST_PLACES = [(name, place) for name, files in STUBS.items()
                   for place in _places(json.loads(files[MANIFEST_NAME]))]


RULES = [{"path": "/pet", "group": "G21", "actions": ["create", "read"],
          "ownership": True},
         {"path": "/pet", "group": "G22", "actions": ["read"]}]
RULE_PLACES = list(_places(RULES))
CONFIG_KEYS = ("port", "host", "key_path", "rules_path", "journal_path",
               "objects_path")


class _NoServer:
    """A ``make_server`` that binds nothing and whose serving ends at once."""

    server_address = ("127.0.0.1", 0)

    def __init__(self, *args):
        pass

    def serve_forever(self):
        pass

    def server_close(self):
        pass


@pytest.fixture(scope="module")
def serve_dir(tmp_path_factory):
    """A signing key, a valid rule file and the config that names them."""
    root = tmp_path_factory.mktemp("serve")
    (root / "key").write_bytes(b"k")
    (root / "rules.yaml").write_text(json.dumps(RULES), encoding="utf-8")
    config = {"port": 0, "host": "127.0.0.1", "key_path": str(root / "key"),
              "rules_path": str(root / "rules.yaml"),
              "journal_path": str(root / "acl.ndjson"),
              "objects_path": str(root / "objects.ndjson")}
    return root, config


def _serve_exit_code(config: Path) -> int:
    """``serve``'s exit code, run beside ``config``: a deleted journal path
    takes the relative default."""
    cwd = os.getcwd()
    os.chdir(config.parent)
    try:
        with mock.patch.object(service, "make_server", _NoServer):
            return _exit_code(["serve", "--config", str(config)])
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    for name, files in STUBS.items():
        for relpath, text in files.items():
            (root / name / relpath).parent.mkdir(parents=True, exist_ok=True)
            (root / name / relpath).write_text(text, encoding="utf-8")
    return root


class TestGeneratedInputs:
    """Grammar-aware mutation of the files the design-time commands read
    (Manès et al., "The Art, Science, and Engineering of Fuzzing", IEEE TSE
    2019): every result is a defined exit code, never a traceback."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(st.sampled_from(DOCUMENT_PLACES), st.sampled_from(HOSTILE + (DELETE,)))
    def test_a_mutated_document_gets_a_defined_exit_code(self, workdir, target,
                                                         value):
        name, place = target
        spec = workdir / "spec.json"
        # JSON carries every hostile value, the lone surrogate as an escape.
        spec.write_text(json.dumps(_mutated(DOCUMENTS[name], place, value)),
                        encoding="utf-8")
        for command in ("validate", "classify", "roundtrip"):
            assert _exit_code([command, str(spec)]) in EXIT_CODES

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(MANIFEST_PLACES), st.sampled_from(HOSTILE + (DELETE,)))
    def test_a_mutated_manifest_gets_a_defined_exit_code(self, workdir, target,
                                                         value):
        name, place = target
        manifest = json.loads(STUBS[name][MANIFEST_NAME])
        (workdir / name / MANIFEST_NAME).write_text(
            json.dumps(_mutated(manifest, place, value)), encoding="utf-8")
        assert _exit_code(["gen-spec", str(workdir / name), "-o",
                           str(workdir / "recovered.yaml")]) in EXIT_CODES

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(RULE_PLACES),
           st.sampled_from(HOSTILE + TYPED_SCALARS + (DELETE,)))
    def test_a_mutated_rule_file_gets_a_defined_exit_code(self, serve_dir,
                                                          place, value):
        root, config = serve_dir
        rules = root / "mutated_rules.yaml"
        rules.write_text(_yaml_with(RULES, place, value), encoding="utf-8")
        path = root / "rules_config.yaml"
        path.write_text(json.dumps({**config, "rules_path": str(rules)}),
                        encoding="utf-8")
        assert _serve_exit_code(path) in EXIT_CODES

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(CONFIG_KEYS),
           st.sampled_from(HOSTILE + TYPED_SCALARS + (DELETE,)))
    def test_a_mutated_config_gets_a_defined_exit_code(self, serve_dir, key,
                                                       value):
        root, config = serve_dir
        path = root / "config.yaml"
        path.write_text(_yaml_with(config, (key,), value), encoding="utf-8")
        assert _serve_exit_code(path) in EXIT_CODES

    def test_the_unmutated_files_serve(self, serve_dir):
        root, config = serve_dir
        path = root / "valid.yaml"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert _serve_exit_code(path) == 0
