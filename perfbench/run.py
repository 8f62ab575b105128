"""bola-guard benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload api_read --seed 1 --seconds 10 --trace 0

Run from the root of a bola-guard checkout; the package is imported from
``src/``. Workloads: ``api_read``, ``api_write``, ``api_list`` (closed-loop
HTTP clients against the reference service) and ``spec_corpus`` (CLI commands
on an OpenAPI corpus). ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs half the time untraced and half traced and reports the
per-layer metrics. The process under test runs apart from this one. Every
reply is checked against the benchmark's own model. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. A reply that grants what the model denies aborts the run
with exit code 3.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"

CLIENTS = 2                 # no more than the two CPUs the benchmark was sized on
SETUP_SPAWNS = 11           # set-up time is the median over this many spawns
WINDOWS = 10                # an api_* run is cut into this many windows of time
STEAL_LIMIT = 0.02          # a window with more steal than this may be left out
TAIL = {"api_read": 0.99, "api_write": 0.99, "api_list": 0.99, "spec_corpus": 0.90}
# A listing makes thousands of spans, so api_list traces one request in ten.
TRACE_SAMPLE = {"api_list": 10}
WHY = {
    "api_read": "owner reads, G22 reads, BOLA probes and bad tokens over 2,000 objects: "
                "fixed per-request costs of transport, token, rules and ACL lookup",
    "api_write": "each client creates, updates and deletes its own objects: "
                 "fsynced journal appends dominate",
    "api_list": "owners and G22 readers list /pet over 4,000 objects: "
                "the cost of scanning and authorizing every stored object",
    "spec_corpus": "validate, classify and roundtrip on fixtures plus synthetic documents "
                   "of 10-200 paths: YAML decoding, validation and stub generation",
}

END_TO_END = (("throughput_ops_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

REASONS = ("group_grant", "ownership_grant", "acl_grant", "no_group_rule", "not_owner",
           "token_invalid", "no_such_object")
API_LAYERS = (
    ("service.http.connects_per_req", "count", None),
    ("service.http.us", "us", "service.handle"),
    ("tokens.verify.us", "us", "tokens.verify"),
    ("tokens.verify.calls_per_req", "count", "tokens.verify"),
    ("tokens.verify.failed", "share", "tokens.verify"),
    ("rules.resolve.us", "us", "rules.resolve"),
    ("rules.resolve.calls_per_req", "count", "rules.resolve"),
    ("engine.authorize.us", "us", "engine.authorize"),
    ("engine.acl_lookups_per_req", "count", "engine.authorize"),
    *((f"engine.decisions.{reason}", "count", "engine.authorize") for reason in REASONS),
    ("service.handle.us", "us", "service.handle"),
    ("service.handle.self_us", "us", "service.handle"),
    *((f"service.handle.{route}.us", "us", "service.handle")
      for route in ("read", "create", "update", "delete", "list")),
    ("service.list.examined_per_result", "count", "engine.authorize"),
    ("store.entries.us", "us", "store.entries"),
    ("store.append.us", "us", "store.append"),
    ("store.appends_per_write", "count", "store.append"),
    ("store.fsyncs_per_write", "count", "os.fsync"),
    ("store.bytes_per_user_byte", "count", None),
    ("store.get.us", "us", "store.get"),
    ("store.replay.us_per_record", "us", "store.open"),
)
SPEC_LAYERS = (
    ("model.decode.us", "us", "model.parse"),
    ("model.build.us", "us", "model.build"),
    ("validator.validate.us", "us", "validator.validate"),
    ("validator.findings_per_doc", "count", "validator.validate"),
    ("generator.spec_to_stub.us", "us", "generator.spec_to_stub"),
    ("generator.stub_to_spec.us", "us", "generator.stub_to_spec"),
    ("generator.files_per_stub", "count", "generator.spec_to_stub"),
    ("cli.main.self_us", "us", "cli.main"),
)
PER_LAYER = (*API_LAYERS, *SPEC_LAYERS, ("trace.overhead_share", "share", None))


class Failure(Exception):
    """The benchmark cannot run: missing package, a crashed process."""


def steal_ticks() -> int:
    """Clock ticks the hypervisor has given to other guests, summed over CPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def steal_share(ticks: int, seconds: float) -> float:
    """Share of the machine's CPU time that ``ticks`` of steal make up."""
    return ticks / os.sysconf("SC_CLK_TCK") / seconds / (os.cpu_count() or 1)


class StealClock:
    """Reads the steal counter every 50 ms from a thread while in use."""

    def __init__(self):
        self.samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append((time.perf_counter(), steal_ticks()))
            if self._stop.wait(0.05):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), steal_ticks()))
        return False

    def ticks_at(self, moment: float) -> int:
        """The counter as last read at or before ``moment``."""
        index = bisect.bisect_right(self.samples, (moment, math.inf)) - 1
        return self.samples[max(index, 0)][1]


@dataclass
class Window:
    """One span of a run: its latencies, its length and its steal share."""

    latencies: list
    seconds: float
    steal: float


@dataclass
class Phase:
    """One server or worker lifetime: its load, timings and trace."""

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)   # in the order they were sent
    windows: list = field(default_factory=list)     # Window of each span of the run
    elapsed: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    trace: object = None

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.elapsed


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(work / "tmp")
    return env


# ---------------------------------------------------------------------------
# api_* workloads


def min_samples(workload: str) -> int:
    """Samples needed for ten to lie beyond the tail percentile."""
    return math.ceil(10 / (1 - TAIL[workload]) - 1e-9)


def spawn_server(work: Path, phase_dir: Path, key: Path, trace_sample: int, probe):
    """Start a server on the journals in ``phase_dir``, traced if
    ``trace_sample`` is not 0.

    Returns the child, its port and the set-up time: from spawn to the first
    reply that matches the model.
    """
    import api
    from procs import Child

    journal = phase_dir / "acl.ndjson"
    argv = [str(HERE / "server_main.py"), "--journal", str(journal), "--key", str(key)]
    if trace_sample:
        argv += ["--trace-out", str(phase_dir / "trace.json"),
                 "--trace-sample", str(trace_sample)]
    child = Child(argv, phase_dir, child_env(work), phase_dir / "server.log")
    try:
        word, port = child.readline().split()
        if word != "PORT":
            raise Failure(f"unexpected server greeting {word!r}")
        conn = api.Connection(int(port))
        try:
            status, data = conn.exchange(probe)
        finally:
            conn.close()
        if not api.check_reply(probe, status, data):
            raise Failure(f"set-up probe {probe.url} answered {status}")
        return child, int(port), time.perf_counter() - child.started
    except BaseException:
        child.__exit__(None, None, None)
        raise


def fresh_journals(pristine: Path, phase_dir: Path) -> Path:
    phase_dir.mkdir(parents=True)
    for source in pristine.parent.iterdir():
        shutil.copyfile(source, phase_dir / source.name)
    return phase_dir / "acl.ndjson"


def time_windows(timeline: list[tuple[float, float]], elapsed: float,
                 clock: StealClock) -> list[Window]:
    """(send time, latency) pairs cut into WINDOWS equal spans of send time."""
    origin, width = timeline[0][0], elapsed / WINDOWS
    spans = [[] for _ in range(WINDOWS)]
    for start, latency in timeline:
        spans[min(int((start - origin) / width), WINDOWS - 1)].append(latency)
    ticks = [clock.ticks_at(origin + i * width) for i in range(WINDOWS + 1)]
    return [Window(span, width, steal_share(ticks[i + 1] - ticks[i], width))
            for i, span in enumerate(spans)]


def journal_bytes(journal: Path) -> int:
    return sum(p.stat().st_size for p in (journal, Path(f"{journal}.objects")))


def run_api(workload: str, seed: int, phases: list[tuple[str, float]],
            work: Path) -> list[Phase]:
    import api

    population = api.make_population(workload, seed)
    key = work / "signing.key"
    key.write_bytes(population.key + b"\n")
    pristine = work / "pristine" / "acl.ndjson"
    pristine.parent.mkdir()
    api.preload(workload, seed, population, key, pristine)
    probe = api.probe_op(population)
    static = None
    if workload == "api_read":
        static = [api.read_ops(population, seed, c) for c in range(CLIENTS)]
    elif workload == "api_list":
        static = [api.list_ops(population, seed, c) for c in range(CLIENTS)]

    setups = []
    if len(phases) == 1:
        for spare in range(SETUP_SPAWNS - 1):
            spare_dir = work / f"setup{spare}"
            fresh_journals(pristine, spare_dir)
            child, _, setup = spawn_server(work, spare_dir, key, 0, probe)
            with child:
                child.stop()
            setups.append(setup)
    results = []
    for name, seconds in phases:
        traced = name == "traced"
        phase_dir = work / name
        journal = fresh_journals(pristine, phase_dir)
        size_before = journal_bytes(journal)
        model = population.model.copy()
        if static is None:
            streams = api.write_streams(population, model, seed, CLIENTS)
        else:
            streams = [api.CycleStream(ops) for ops in static]
        sample = TRACE_SAMPLE.get(workload, 1) if traced else 0
        floor = min_samples(workload) if len(phases) == 1 else 0
        child, port, setup = spawn_server(work, phase_dir, key, sample, probe)
        with child:
            setups.append(setup)
            warm, _ = api.run_clients(port, streams, min(1.0, seconds / 10))
            with StealClock() as clock:
                tally, elapsed = api.run_clients(port, streams, seconds, floor)
            peak = child.peak_rss_mb()
            child.stop()
        timeline = sorted(zip(tally.starts, tally.latencies))
        phase = Phase(attempted=warm.attempted + tally.attempted,
                      failed=warm.failed + tally.failed,
                      latencies=[latency for _, latency in timeline],
                      windows=time_windows(timeline, elapsed, clock), elapsed=elapsed,
                      setup_s=statistics.median(setups), peak_rss_mb=peak)
        phase.problems = api.check_journals(journal, model)
        phase.extra = {
            "requests": warm.attempted + tally.attempted,
            "connects_per_req": tally.connects / max(tally.attempted, 1),
            "acked_writes": warm.acked_writes + tally.acked_writes,
            "user_bytes": warm.user_bytes + tally.user_bytes,
            "list_results": warm.list_results + tally.list_results,
            "journal_growth": journal_bytes(journal) - size_before,
        }
        if traced:
            from tracing import Trace

            phase.trace = Trace.load(phase_dir / "trace.json")
        results.append(phase)
    return results


def api_layers(plain: Phase, traced: Phase) -> dict[str, float]:
    """Layer metrics of the traced server.

    Times of ``service.handle`` cover every request; everything below it is
    traced only in sampled requests, so counts are per sampled request, and
    a ratio of a traced count to a client-side count (results, writes)
    compares their rates per request.
    """
    trace = traced.trace
    handles = trace.spans("service.handle")
    sampled_handles = [s for s in handles if s[2] > 0]
    sampled = len(sampled_handles)
    route_of = {s[2]: s[5][0] for s in sampled_handles}
    authorize = trace.spans("engine.authorize")
    requests = traced.extra["requests"]

    def per_req(count):
        return _share(count, sampled)

    def per_client_unit(count, client_total):
        return _share(per_req(count), _share(client_total, requests))

    values = {
        "service.http.connects_per_req": plain.extra["connects_per_req"],
        "service.http.us": statistics.fmean(traced.latencies) * 1e6
        - trace.mean_us("service.handle") if handles else None,
        "tokens.verify.us": trace.mean_us("tokens.verify"),
        "tokens.verify.calls_per_req": per_req(trace.count("tokens.verify")),
        "tokens.verify.failed": _share(len(trace.spans("tokens.verify", True)),
                                       trace.count("tokens.verify")),
        "rules.resolve.us": trace.mean_us("rules.resolve"),
        "rules.resolve.calls_per_req": per_req(trace.count("rules.resolve")),
        "engine.authorize.us": trace.mean_us("engine.authorize"),
        "engine.acl_lookups_per_req": per_req(len([
            s for s in trace.with_parent("store.get", "engine.authorize")
            if s[5] == "AclStore"])),
        "service.handle.us": trace.mean_us("service.handle"),
        "service.handle.self_us": _share(sum(s[4] for s in sampled_handles) / 1e3, sampled),
        "service.list.examined_per_result": per_client_unit(
            len([s for s in authorize if route_of.get(s[2]) == "list"]),
            traced.extra["list_results"]),
        "store.entries.us": trace.mean_us("store.entries"),
        "store.append.us": trace.mean_us("store.append"),
        "store.appends_per_write": per_client_unit(trace.count("store.append"),
                                                   traced.extra["acked_writes"]),
        "store.fsyncs_per_write": per_client_unit(trace.count("os.fsync"),
                                                  traced.extra["acked_writes"]),
        "store.bytes_per_user_byte": _share(traced.extra["journal_growth"],
                                            traced.extra["user_bytes"]),
        "store.get.us": trace.mean_us("store.get"),
    }
    for reason in REASONS:
        decided = len(trace.spans("engine.authorize", reason))
        if reason == "token_invalid":
            # The service answers a missing or invalid token with 401 itself,
            # before it asks the engine, so these decisions are its 401s.
            decided += len([s for s in sampled_handles if s[5][1] == 401])
        values[f"engine.decisions.{reason}"] = per_req(decided)
    for route in ("read", "create", "update", "delete", "list"):
        spans = [s for s in handles if s[5][0] == route]
        values[f"service.handle.{route}.us"] = _share(sum(s[3] for s in spans) / 1e3,
                                                      len(spans))
    opens = trace.spans("store.open")
    records = sum(s[5][1] for s in opens)
    values["store.replay.us_per_record"] = _share(sum(s[3] for s in opens) / 1e3, records)
    return values


def _share(part: float | None, whole: float | None) -> float | None:
    """``part / whole``, or None when either is missing or ``whole`` is 0."""
    return part / whole if part is not None and whole else None


# ---------------------------------------------------------------------------
# spec_corpus


def spawn_worker(work: Path, phase_dir: Path, trace: bool, probe):
    from procs import Child

    phase_dir.mkdir(parents=True, exist_ok=True)
    argv = [str(HERE / "spec_worker.py")]
    if trace:
        argv += ["--trace-out", str(phase_dir / "trace.json")]
    child = Child(argv, work, child_env(work), phase_dir / "worker.log")
    try:
        reply = child.ask(list(probe.argv))
        if not probe.check(reply["code"], reply["stdout"]):
            raise Failure(f"set-up probe {probe.argv} answered {reply}")
        return child, time.perf_counter() - child.started
    except BaseException:
        child.__exit__(None, None, None)
        raise


def run_spec(seed: int, phases: list[tuple[str, float]], work: Path) -> list[Phase]:
    import spec

    docs = spec.build_corpus(seed, FIXTURES, work)
    commands = spec.corpus_commands(docs, seed)
    smallest = min(docs, key=lambda d: (work / d.file).stat().st_size)
    probe = spec.commands_for(smallest)[1]

    setups = []
    if len(phases) == 1:
        for spare in range(SETUP_SPAWNS - 1):
            child, setup = spawn_worker(work, work / f"setup{spare}", False, probe)
            with child:
                child.stop()
            setups.append(setup)
    results = []
    for name, seconds in phases:
        traced = name == "traced"
        phase_dir = work / name
        child, setup = spawn_worker(work, phase_dir, traced, probe)
        setups.append(setup)
        phase = Phase()
        floor = min_samples("spec_corpus") if len(phases) == 1 else 0
        with child:
            started = time.perf_counter()
            # Whole passes only, so every run measures the same command mix.
            while (time.perf_counter() - started < seconds
                   or (len(phase.latencies) < floor
                       and time.perf_counter() - started < 2 * seconds)):
                pass_started, stolen, latencies = time.perf_counter(), steal_ticks(), []
                for command in commands:
                    reply = child.ask(list(command.argv))
                    latencies.append(reply["ns"] / 1e9)
                    phase.attempted += 1
                    if not command.check(reply["code"], reply["stdout"]):
                        phase.failed += 1
                        phase.problems.append(f"{' '.join(command.argv)} exited "
                                              f"{reply['code']}: {reply['stdout'][:200]!r}")
                phase.latencies.extend(latencies)
                length = time.perf_counter() - pass_started
                phase.windows.append(Window(latencies, length,
                                            steal_share(steal_ticks() - stolen, length)))
            phase.elapsed = time.perf_counter() - started
            phase.peak_rss_mb = child.peak_rss_mb()
            child.stop()
        phase.setup_s = statistics.median(setups)
        if traced:
            from tracing import Trace

            phase.trace = Trace.load(phase_dir / "trace.json")
        results.append(phase)
    return results


def spec_layers(traced: Phase) -> dict[str, float]:
    trace = traced.trace
    validations = trace.spans("validator.validate")
    stubs = trace.spans("generator.spec_to_stub")
    return {
        "model.decode.us": trace.mean_self_us("model.parse"),
        "model.build.us": trace.mean_us("model.build"),
        "validator.validate.us": trace.mean_us("validator.validate"),
        "validator.findings_per_doc": _share(sum(s[5] for s in validations),
                                             len(validations)),
        "generator.spec_to_stub.us": trace.mean_us("generator.spec_to_stub"),
        "generator.stub_to_spec.us": trace.mean_us("generator.stub_to_spec"),
        "generator.files_per_stub": _share(sum(s[5] for s in stubs), len(stubs)),
        "cli.main.self_us": trace.mean_self_us("cli.main"),
    }


# ---------------------------------------------------------------------------
# Reporting


def environment(work: Path, seed: int) -> dict:
    import yaml

    try:
        import orjson  # noqa: F401
        has_orjson = True
    except ImportError:
        has_orjson = False
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "journal_fs": filesystem_of(work),
            "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
            "orjson": has_orjson, "seed": seed}


def filesystem_of(path: Path) -> str:
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) < 3:
                continue
            mount = fields[1].replace("\\040", " ")
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fields[2]
    return kind


def quantile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(0, math.ceil(len(ordered) * q) - 1)
    return ordered[rank], len(ordered) - rank - 1


def window_figures(workload: str, windows: list[Window],
                   everything: list[float]) -> tuple[float, float, float, str]:
    """Throughput, p50 and tail (in seconds) of ``windows``, and a note on the
    tail.

    Throughput is the windows' operations over their time. The median is the
    median of each window's median. The tail is the median of the tails of
    blocks of consecutive windows, each block just large enough for ten
    samples beyond the percentile; when the windows hold less than one block,
    the tail is taken over ``everything``.
    """
    q, size = TAIL[workload], min_samples(workload)
    blocks, block = [], []
    for window in windows:
        block = block + window.latencies
        if len(block) >= size:
            blocks.append(block)
            block = []
    if not blocks:
        blocks, block = [everything], []
    blocks[-1] = blocks[-1] + block
    tails = [quantile(block, q) for block in blocks]
    note = (f"p{round(q * 100)} of {sum(map(len, blocks))} samples in {len(blocks)} "
            f"block(s), {min(b for _, b in tails)}+ beyond it in each")
    return (sum(len(w.latencies) for w in windows) / sum(w.seconds for w in windows),
            statistics.median(statistics.median(w.latencies)
                              for w in windows if w.latencies),
            statistics.median(t for t, _ in tails), note)


def kept_windows(windows: list[Window]) -> list[Window]:
    """The windows whose figures count.

    On a shared virtual machine the hypervisor now and then gives our CPUs
    to other guests ("steal"), and the figures follow it: at a steal share
    of 0.3, api_read throughput halves. So a window whose steal share is
    above both STEAL_LIMIT and the median window's is left out, and with
    little steal every window is kept.
    """
    limit = max(STEAL_LIMIT, statistics.median(w.steal for w in windows))
    return [w for w in windows if w.steal <= limit]


def end_to_end(workload: str, phase: Phase) -> tuple[dict, list[str]]:
    kept = kept_windows(phase.windows)
    throughput, p50, tail, note = window_figures(workload, kept, phase.latencies)
    values = {
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": phase.setup_s,
        "peak_rss_mb": phase.peak_rss_mb,
    }
    notes = {"latency_tail_ms": note}
    lines = [f"{name:<18} {values[name]:>14.4f} {unit:<5} {notes.get(name, '')}".rstrip()
             for name, unit in END_TO_END]
    lines.append(f"{'failed_share':<18} {phase.failed / max(phase.attempted, 1):>14.4f} "
                 f"share ({phase.failed} of {phase.attempted})")
    lines.append(f"kept {len(kept)} of {len(phase.windows)} windows, with a steal "
                 f"share of {max(w.steal for w in kept):.3f} at most "
                 f"({max(w.steal for w in phase.windows):.3f} in all)")
    throughput, p50, tail, _ = window_figures(workload, phase.windows, phase.latencies)
    lines.append(f"all windows: throughput_ops_s {throughput:.4f}, latency_p50_ms "
                 f"{p50 * 1e3:.4f}, latency_tail_ms {tail * 1e3:.4f}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, lines


def per_layer(workload: str, plain: Phase, traced: Phase) -> tuple[dict, list[str]]:
    trace = traced.trace
    if workload == "spec_corpus":
        values, applies = spec_layers(traced), {n for n, _, _ in SPEC_LAYERS}
    else:
        values, applies = api_layers(plain, traced), {n for n, _, _ in API_LAYERS}
    values["trace.overhead_share"] = (plain.throughput - traced.throughput) / plain.throughput
    applies.add("trace.overhead_share")
    # An absent layer carries null, so that a refactor that removes a wrap
    # target never reads as a cost dropping to 0. A metric that the workload
    # does not exercise carries 0 on every commit, so it cannot move.
    metrics, lines = {}, []
    for name, unit, span in PER_LAYER:
        value = values.get(name) if name in applies else None
        if span is not None and span not in trace.installed and name in applies:
            shown = "absent (wrap target no longer exists)"
            metrics[name] = {"value": None, "unit": unit}
        else:
            shown = ("n/a (not exercised by this workload)" if value is None
                     else f"{value:.4f} {unit}")
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
        lines.append(f"{name:<36} {shown}")
    if trace.absent:
        lines.append(f"absent wrap targets: {', '.join(trace.absent)}")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bola_guard" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: {ROOT} is not a bola-guard checkout "
              f"(src/bola_guard and tests/fixtures are needed)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import api

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    (work / "tmp").mkdir()          # TMPDIR of the process under test
    phases = ([("plain", args.seconds)] if not args.trace
              else [("plain", args.seconds / 2), ("traced", args.seconds / 2)])
    started, stolen = time.perf_counter(), steal_ticks()
    try:
        env = environment(work, args.seed)
        if args.workload == "spec_corpus":
            results = run_spec(args.seed, phases, work)
        else:
            results = run_api(args.workload, args.seed, phases, work)
    except api.BolaEscape as exc:
        print(f"BOLA escape, run aborted: {exc}", file=sys.stderr)
        return 3
    except (Failure, OSError, EOFError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["steal_share"] = steal_share(steal_ticks() - stolen, time.perf_counter() - started)
    plain = results[0]
    if args.trace:
        metrics, lines = per_layer(args.workload, plain, results[1])
    else:
        metrics, lines = end_to_end(args.workload, plain)
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    problems = [problem for p in results for problem in p.problems]

    print(f"workload {args.workload} (closed loop, "
          f"{1 if args.workload == 'spec_corpus' else CLIENTS} client(s)): "
          f"{WHY[args.workload]}")
    print(f"environment {json.dumps(env)}")
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
