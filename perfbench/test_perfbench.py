"""Tests of the benchmark's own correctness gate and helpers.

    python -m pytest perfbench

One test copies the package, breaks its authorization on purpose and
checks that a benchmark run on the copy aborts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import api  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

OWNER = api.User("u1", api.OWNER_GROUPS, "t1")
PROBER = api.User("u2", api.OWNER_GROUPS, "t2")


def model_with_one_pet() -> api.AuthzModel:
    model = api.AuthzModel()
    model.add(("/pet", 1), OWNER.uid, {"name": "rex"})
    return model


def test_model_denies_non_owner_and_allows_owner():
    model = model_with_one_pet()
    assert model.predict(PROBER, "GET", "/pet", 1) == (403, {"code": 403, "reason": "not_owner"})
    assert model.predict(OWNER, "GET", "/pet", 1) == (200, {"id": 1, "name": "rex"})
    reader = api.User("r1", api.READER_GROUPS, "t3")
    assert model.predict(reader, "GET", "/pet") == (200, [{"id": 1, "name": "rex"}])
    assert model.predict(reader, "PUT", "/pet", 1, {}) == (
        403, {"code": 403, "reason": "no_group_rule"})
    assert model.predict(None, "GET", "/pet", 1)[0] == 401


def test_check_reply_raises_on_a_grant_the_model_denies():
    op = api._op(model_with_one_pet(), PROBER, PROBER.token, "DELETE", "/pet", 1)
    assert op.status == 403
    with pytest.raises(api.BolaEscape):
        api.check_reply(op, 204, b"")
    assert not api.check_reply(op, 404, b"{}")
    assert api.check_reply(op, 403, json.dumps(op.expect).encode())


def test_check_reply_ignores_listing_order():
    op = api.Op("GET", "/pet", {}, None, 200, [{"id": 1}, {"id": 2}])
    assert api.check_reply(op, 200, b'[{"id": 2}, {"id": 1}]')
    assert not api.check_reply(op, 200, b'[{"id": 2}]')


class _GrantEverything(BaseHTTPRequestHandler):
    def _reply(self):
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    do_GET = do_PUT = do_DELETE = do_POST = _reply

    def log_message(self, *args):
        pass


def test_run_clients_stops_on_bola_escape():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _GrantEverything)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        op = api._op(model_with_one_pet(), PROBER, PROBER.token, "GET", "/pet", 1)
        with pytest.raises(api.BolaEscape):
            api.run_clients(server.server_address[1], [api.CycleStream([op])], 5.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    assert not thread.is_alive()


def test_check_journals_finds_an_object_without_acl_entry(tmp_path):
    from bola_guard import ObjectStore

    journal = tmp_path / "acl.ndjson"
    journal.touch()
    with ObjectStore.open(f"{journal}.objects") as objects:
        objects.put({"id": 1, "path": "/pet", "body": {"name": "rex"}})
    problems = api.check_journals(journal, model_with_one_pet())
    assert any("has no ACL entry" in p for p in problems)


def test_missing_wrap_target_is_reported_absent():
    class Layer:
        @staticmethod
        def present():
            return 1

    tracer = tracing.Tracer()
    tracer.wrap(Layer, "present", "layer.present")
    tracer.wrap(Layer, "merged_away", "layer.gone")
    assert Layer.present() == 1
    assert tracer.installed == {"layer.present"}
    assert tracer.absent == ["Layer.merged_away"]
    assert [span[3] for span in tracer.spans] == ["layer.present"]


def test_absent_layer_is_null_and_unexercised_layer_is_zero():
    import run

    installed = {span for _, _, span in run.SPEC_LAYERS} - {"model.build"}
    trace = tracing.Trace({"spans": [], "installed": sorted(installed),
                           "absent": ["model.build_document"]})
    plain = run.Phase(latencies=[0.01] * 10, elapsed=1.0)
    traced = run.Phase(latencies=[0.01] * 9, elapsed=1.0, trace=trace)
    metrics, lines = run.per_layer("spec_corpus", plain, traced)
    assert metrics["model.build.us"]["value"] is None
    assert metrics["store.get.us"]["value"] == 0.0
    assert metrics["trace.overhead_share"]["value"] == pytest.approx(0.1)
    assert any(line.startswith("model.build.us") and "absent" in line for line in lines)


def test_windows_are_left_out_only_for_steal_above_the_limit():
    import run

    calm = [run.Window([0.001], 1.0, 0.0) for _ in range(10)]
    assert run.kept_windows(calm) == calm
    stolen = calm[:9] + [run.Window([0.002], 1.0, 0.3)]
    assert run.kept_windows(stolen) == calm[:9]
    light = calm[:9] + [run.Window([0.002], 1.0, run.STEAL_LIMIT)]
    assert run.kept_windows(light) == light


def test_spec_command_checks_exit_code_and_findings():
    doc = spec.Document("d.yaml", "root_level",
                        (("warning", "W-BOLA-UNBOUND", "#/paths/~1a"),))
    validate, classify, roundtrip = spec.commands_for(doc)
    finding = {"severity": "warning", "code": "W-BOLA-UNBOUND",
               "path_context": "#/paths/~1a", "message": "any text"}
    assert validate.check(0, json.dumps([finding]))
    assert not validate.check(1, json.dumps([finding]))
    assert not validate.check(0, "[]")
    assert classify.check(0, '{"design": "root_level"}')
    assert roundtrip.check(0, '{"roundtrip": true}')


def test_benchmark_aborts_when_the_service_grants_what_the_model_denies(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests" / "fixtures", checkout / "tests" / "fixtures")
    shutil.copytree(HERE, checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = checkout / "src" / "bola_guard" / "engine.py"
    source = engine.read_text()
    denial = "return AuthzDecision(False, DecisionReason.NOT_OWNER, rule)"
    assert denial in source
    engine.write_text(source.replace(
        denial, "return AuthzDecision(True, DecisionReason.ACL_GRANT, rule)"))

    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "api_read",
                          "--seed", "1", "--seconds", "2", "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, timeout=170)
    assert run.returncode == 3, run.stderr
    assert "BOLA escape" in run.stderr
    assert '"correct"' not in run.stdout


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "api_read",
                          "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert run.returncode != 0
    assert run.stdout == ""


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import run

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    assert sorted(w["name"] for w in config["workloads"]) == sorted(run.WHY)
