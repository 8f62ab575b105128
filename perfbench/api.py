"""The loopback-HTTP workloads: seeded users, tokens, preloaded state and
request streams; the authorization model that predicts every reply; the
closed-loop clients; and the journal checks made after the server stops.

Workloads (each client waits for its reply before sending the next request):

* ``api_read``: about 2,000 preloaded objects, half ``/pet`` and half
  ``/user``, owned by 200 users. Mostly owners reading their own objects,
  some G22 readers reading any pet, 10% BOLA probes by non-owners and 5%
  tampered or expired tokens. Nothing succeeds in writing and nothing lists,
  so the fixed per-request costs (transport, token, rules, ACL lookup)
  dominate, and hostile tokens keep a token cache honest.
* ``api_write``: each client creates objects and then updates, deletes and
  sometimes reads only objects it created itself, so clients never race.
  Nearly every request makes one or two fsynced journal appends, so the store
  dominates, and any cost an index or cache adds to writes shows here.
* ``api_list``: about 4,000 preloaded objects over 400 users. Mostly G21
  owners listing ``/pet`` and seeing their own five pets; one request in
  eight by G22 readers, whose listing returns every pet. Listing scans and
  authorizes every stored object today; the reader share keeps an
  O(results) listing honest. It is a workload of its own so that listings
  do not swamp the per-request layers that ``api_read`` isolates.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

DIRS = ("/pet", "/user")
OWNER_GROUPS = frozenset({"G11", "G21"})
READER_GROUPS = frozenset({"G22"})
TOKEN_TTL_S = 6 * 3600
CRUD = frozenset({"create", "read", "update", "delete"})

# The service's built-in rule table, written out here independently of it.
RULE_ROWS = (
    {"path": "/user", "group": "G11", "actions": CRUD, "ownership": True},
    {"path": "/pet", "group": "G21", "actions": CRUD, "ownership": True},
    {"path": "/pet", "group": "G22", "actions": frozenset({"read"}), "ownership": False},
    {"path": "/pet", "group": "G23", "actions": frozenset({"delete"}), "ownership": False},
)
VERB_ACTIONS = {"POST": "create", "GET": "read", "PUT": "update", "DELETE": "delete"}

# (owners, objects per owner and directory, readers, requests per client stream)
SHAPES = {
    "api_read": (200, 5, 20, 6000),
    "api_write": (20, 5, 0, 0),
    "api_list": (400, 5, 40, 400),
}


class BolaEscape(Exception):
    """The service answered 2xx where the model says 401 or 403."""


@dataclass(frozen=True)
class User:
    uid: str
    groups: frozenset
    token: str


@dataclass(frozen=True)
class Op:
    """One request and the reply the model predicts for it."""

    method: str
    url: str
    headers: dict
    body: bytes | None
    status: int
    expect: object                  # parsed JSON body, or None for an empty body
    write: bool = False             # an acknowledged write when it succeeds
    results: int = 0                # items a listing returns


def _denial(status: int, reason: str) -> dict:
    return {"code": status, "reason": reason}


class AuthzModel:
    """Brute-force authorization model of the reference service.

    It reads the rule rows directly: no matching row denies; a row that
    waives ownership allows; otherwise only the object's owner is allowed.
    No workload grants access to other users, so an object's ACL is its
    owner alone.
    """

    def __init__(self):
        self.bodies: dict[tuple[str, int], dict] = {}
        self.owners: dict[tuple[str, int], str] = {}
        self.lock = threading.Lock()

    def copy(self) -> "AuthzModel":
        twin = AuthzModel()
        twin.owners.update(self.owners)
        twin.bodies.update(self.bodies)
        return twin

    def add(self, key: tuple[str, int], owner: str, body: dict) -> None:
        with self.lock:
            self.owners[key] = owner
            self.bodies[key] = body

    def remove(self, key: tuple[str, int]) -> None:
        with self.lock:
            del self.owners[key]
            del self.bodies[key]

    def decide(self, user: User, path: str, action: str,
               object_id: int | None) -> tuple[bool, str]:
        rows = [row for row in RULE_ROWS if row["path"] == path
                and row["group"] in user.groups and action in row["actions"]]
        if not rows:
            return False, "no_group_rule"
        if any(not row["ownership"] for row in rows):
            return True, "group_grant"
        if object_id is None:
            return True, "group_grant"
        owner = self.owners.get((path, object_id))
        if owner is None:
            return False, "no_such_object"
        if owner == user.uid:
            return True, "ownership_grant"
        return False, "not_owner"

    def predict(self, user: User | None, method: str, path: str,
                object_id: int | None = None, doc: dict | None = None):
        """(status, parsed body) of a request; ``user`` None is a bad token."""
        if user is None:
            return 401, _denial(401, "token_invalid")
        allowed, reason = self.decide(user, path, VERB_ACTIONS[method], object_id)
        if not allowed:
            return 403, _denial(403, "no_group_rule" if object_id is None else reason)
        if object_id is None:
            if method == "POST":
                return 201, dict(doc)
            return 200, [{"id": key[1], **body} for key, body in sorted(self.bodies.items())
                         if key[0] == path and self.decide(user, path, "read", key[1])[0]]
        body = self.bodies.get((path, object_id))
        if body is None:
            return 404, _denial(404, "no_such_object")
        if method == "GET":
            return 200, {"id": object_id, **body}
        if method == "PUT":
            return 200, {"id": object_id, **doc}
        return 204, None


def check_reply(op: Op, status: int, data: bytes) -> bool:
    """Whether a reply matches the model; raises :class:`BolaEscape`."""
    if 200 <= status < 300 and op.status in (401, 403):
        raise BolaEscape(f"{op.method} {op.url} was answered {status}; "
                         f"the model expects {op.status}")
    if status != op.status:
        return False
    if op.expect is None:
        return not data
    try:
        got = json.loads(data)
        if isinstance(got, list):
            got.sort(key=lambda item: item["id"])
    except (ValueError, KeyError, TypeError):
        return False
    return got == op.expect


# ---------------------------------------------------------------------------
# Seeded inputs


@dataclass
class Population:
    key: bytes
    owners: list[User]
    readers: list[User]
    hostile: list[str]              # tampered and expired tokens
    model: AuthzModel = field(default_factory=AuthzModel)


def _document(rng: random.Random) -> dict:
    return {"name": f"{rng.choice(_NAMES)}-{rng.randrange(10_000)}",
            "tag": rng.choice(_TAGS), "age": rng.randrange(1, 20)}


def make_population(workload: str, seed: int) -> Population:
    """Users, tokens and signing key of a workload; no state is written yet."""
    from bola_guard import issue_token

    rng = random.Random(f"{seed}:{workload}:population")
    key = rng.randbytes(32).hex().encode()
    owners_n, _, readers_n, _ = SHAPES[workload]
    now = time.time()

    def user(uid, groups):
        return User(uid, groups, issue_token(uid, uid, groups, TOKEN_TTL_S, key, now).raw)

    owners = [user(f"u{i:04d}", OWNER_GROUPS) for i in range(owners_n)]
    readers = [user(f"r{i:03d}", READER_GROUPS) for i in range(readers_n)]
    hostile = []
    for i in range(20):
        victim = owners[rng.randrange(len(owners))]
        header, claims, signature = victim.token.split(".")
        at = rng.randrange(len(claims))
        flipped = "A" if claims[at] != "A" else "B"
        hostile.append(f"{header}.{claims[:at]}{flipped}{claims[at + 1:]}.{signature}")
        hostile.append(issue_token(victim.uid, victim.uid, OWNER_GROUPS, 60, key,
                                   now - 3600).raw)
    return Population(key, owners, readers, hostile)


def preload(workload: str, seed: int, population: Population, key_path: Path,
            journal: Path) -> None:
    """Create the preloaded objects through the service's public API."""
    from bola_guard.service import ReferenceService, ServiceConfig

    _, per_dir, _, _ = SHAPES[workload]
    rng = random.Random(f"{seed}:{workload}:preload")
    service = ReferenceService.from_config(
        ServiceConfig(key_path=str(key_path), journal_path=str(journal)))
    try:
        for _ in range(per_dir):
            for owner in population.owners:
                for path in DIRS:
                    doc = _document(rng)
                    reply = service.handle_request(
                        "POST", path, {"api_key": owner.token}, json.dumps(doc).encode())
                    if reply.status != 201:
                        raise RuntimeError(f"preload POST {path} answered {reply.status}")
                    population.model.add((path, reply.body["id"]), owner.uid, doc)
    finally:
        service.close()


def _op(model: AuthzModel, user: User | None, token: str, method: str, path: str,
        object_id: int | None = None, doc: dict | None = None) -> Op:
    status, expect = model.predict(user, method, path, object_id, doc)
    url = path if object_id is None else f"{path}/{object_id}"
    body = json.dumps(doc).encode() if doc is not None else None
    results = len(expect) if isinstance(expect, list) else 0
    return Op(method, url, {"api_key": token, "Content-Type": "application/json"},
              body, status, expect,
              write=method != "GET" and 200 <= status < 300, results=results)


def probe_op(population: Population) -> Op:
    """A read the model allows: the first operation that proves set-up is done."""
    key = min(population.model.owners)
    owner = next(u for u in population.owners if u.uid == population.model.owners[key])
    return _op(population.model, owner, owner.token, "GET", key[0], key[1])


def _stratified(rng: random.Random, block: dict[str, int], count: int) -> list[str]:
    """``count`` request kinds drawn in shuffled blocks, so that every prefix
    of the stream holds close to the block's proportions."""
    kinds = [kind for kind, n in block.items() for _ in range(n)]
    drawn = []
    while len(drawn) < count:
        rng.shuffle(kinds)
        drawn.extend(kinds)
    return drawn[:count]


# Kinds of request in each block of twenty in api_read, and of eight in
# api_list. A G22 listing takes about twice as long as an owner's, and twice
# as long again when the other client lists for G22 at the same time. With
# one reader in eight those overlaps are about 2.5% of requests, so the p99
# lies well inside them; with one in ten it would sit at their edge and jump
# between runs.
READ_MIX = {"owner": 14, "reader": 3, "probe": 2, "hostile": 1}
LIST_MIX = {"owner": 7, "reader": 1}


def read_ops(population: Population, seed: int, client: int) -> list[Op]:
    rng = random.Random(f"{seed}:api_read:client{client}")
    model = population.model
    by_owner: dict[str, list] = {}
    for key, owner in model.owners.items():
        by_owner.setdefault(owner, []).append(key)
    keys = sorted(model.owners)
    pets = [k for k in keys if k[0] == "/pet"]
    ops = []
    for kind in _stratified(rng, READ_MIX, SHAPES["api_read"][3]):
        if kind == "owner":
            owner = rng.choice(population.owners)
            path, oid = rng.choice(by_owner[owner.uid])
            ops.append(_op(model, owner, owner.token, "GET", path, oid))
        elif kind == "reader":
            reader = rng.choice(population.readers)
            path, oid = rng.choice(pets)
            ops.append(_op(model, reader, reader.token, "GET", path, oid))
        elif kind == "probe":
            prober = rng.choice(population.owners)
            path, oid = rng.choice(keys)
            while model.owners[(path, oid)] == prober.uid:
                path, oid = rng.choice(keys)
            method = rng.choice(("GET", "PUT", "DELETE"))
            doc = _document(rng) if method == "PUT" else None
            ops.append(_op(model, prober, prober.token, method, path, oid, doc))
        else:
            path, oid = rng.choice(keys)
            ops.append(_op(model, None, rng.choice(population.hostile), "GET", path, oid))
    return ops


def list_ops(population: Population, seed: int, client: int) -> list[Op]:
    rng = random.Random(f"{seed}:api_list:client{client}")
    cache: dict[str, Op] = {}
    ops = []
    for kind in _stratified(rng, LIST_MIX, SHAPES["api_list"][3]):
        user = rng.choice(population.readers if kind == "reader" else population.owners)
        if user.uid not in cache:
            cache[user.uid] = _op(population.model, user, user.token, "GET", "/pet")
        ops.append(cache[user.uid])
    return ops


class CycleStream:
    """A fixed request list replayed in a loop; the state never changes."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.at = 0

    def next_op(self) -> Op:
        op = self.ops[self.at]
        self.at = (self.at + 1) % len(self.ops)
        return op

    def settle(self, op: Op, status: int, data: bytes) -> bool:
        return check_reply(op, status, data)


class WriteStream:
    """A client that creates objects and then works only on its own ones."""

    MIN_LIVE, MAX_LIVE = 4, 24

    def __init__(self, user: User, model: AuthzModel, rng: random.Random):
        self.user, self.model, self.rng = user, model, rng
        self.live: list[tuple[str, int]] = []

    def next_op(self) -> Op:
        rng, live = self.rng, self.live
        draw = rng.random()
        if len(live) < self.MIN_LIVE or (len(live) < self.MAX_LIVE and draw < 0.35):
            return _op(self.model, self.user, self.user.token, "POST",
                       rng.choice(DIRS), doc=_document(rng))
        path, oid = live[rng.randrange(len(live))]
        if draw < 0.65:
            return _op(self.model, self.user, self.user.token, "PUT", path, oid,
                       _document(rng))
        method = "DELETE" if draw < 0.90 else "GET"
        return _op(self.model, self.user, self.user.token, method, path, oid)

    def settle(self, op: Op, status: int, data: bytes) -> bool:
        if op.method == "POST":
            return self._settle_create(op, status, data)
        if not check_reply(op, status, data):
            return False
        path, _, tail = op.url.rpartition("/")
        key = (path, int(tail))
        if op.method == "PUT":
            self.model.add(key, self.user.uid, json.loads(op.body))
        elif op.method == "DELETE":
            self.model.remove(key)
            self.live.remove(key)
        return True

    def _settle_create(self, op: Op, status: int, data: bytes) -> bool:
        if status != op.status:
            check_reply(op, status, data)
            return False
        try:
            got = json.loads(data)
            object_id = got.pop("id")
        except (ValueError, KeyError, TypeError, AttributeError):
            return False
        key = (op.url, object_id)
        if not isinstance(object_id, int) or got != op.expect or key in self.model.owners:
            return False
        self.model.add(key, self.user.uid, op.expect)
        self.live.append(key)
        return True


def write_streams(population: Population, model: AuthzModel, seed: int,
                  clients: int) -> list[WriteStream]:
    from bola_guard import issue_token

    streams = []
    for client in range(clients):
        uid = f"w{client:02d}"
        user = User(uid, OWNER_GROUPS, issue_token(uid, uid, OWNER_GROUPS, TOKEN_TTL_S,
                                                   population.key, time.time()).raw)
        rng = random.Random(f"{seed}:api_write:client{client}")
        streams.append(WriteStream(user, model, rng))
    return streams


# ---------------------------------------------------------------------------
# Closed-loop clients


class Connection:
    """One persistent client connection that reconnects whenever the server
    has closed it, counting every connect."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.connects = 0

    def _connect(self) -> None:
        self.conn.connect()
        self.connects += 1

    def exchange(self, op: Op) -> tuple[int, bytes]:
        reused = self.conn.sock is not None
        if not reused:
            self._connect()
        try:
            return self._send(op)
        except ConnectionError:
            self.conn.close()
            if not reused:
                raise
        # The server dropped an idle kept-alive connection: retry once.
        self._connect()
        return self._send(op)

    def _send(self, op: Op) -> tuple[int, bytes]:
        self.conn.request(op.method, op.url, body=op.body, headers=op.headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    acked_writes: int = 0
    user_bytes: int = 0
    list_results: int = 0
    connects: int = 0
    starts: list = field(default_factory=list)      # perf_counter() at send
    latencies: list = field(default_factory=list)   # seconds until the reply

    def merge(self, other: "Tally") -> None:
        for name in ("attempted", "failed", "acked_writes", "user_bytes",
                     "list_results", "connects"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.starts.extend(other.starts)
        self.latencies.extend(other.latencies)


def run_clients(port: int, streams, seconds: float,
                min_samples: int = 0) -> tuple[Tally, float]:
    """Drive every stream from its own thread and connection for ``seconds``,
    and on until ``min_samples`` requests are done (at most twice as long),
    so that a slow system still yields enough samples for its tail.

    Returns the merged tally and the wall time from start until the last
    client finished. A :class:`BolaEscape` in any client stops all of them
    and is re-raised.
    """
    stop = threading.Event()
    errors: list[BaseException] = []
    tallies = [Tally() for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)

    def client(stream, tally: Tally) -> None:
        conn = Connection(port)
        starts, latencies = tally.starts, tally.latencies
        try:
            barrier.wait()
            deadline = time.perf_counter() + seconds
            cutoff = deadline + seconds
            while not stop.is_set():
                op = stream.next_op()
                started = time.perf_counter()
                if started >= deadline and (
                        started >= cutoff
                        or sum(t.attempted for t in tallies) >= min_samples):
                    break
                try:
                    status, data = conn.exchange(op)
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                latencies.append(time.perf_counter() - started)
                starts.append(started)
                tally.attempted += 1
                if 0 < status < 500 and stream.settle(op, status, data):
                    if op.write:
                        tally.acked_writes += 1
                        tally.user_bytes += len(op.body or b"")
                    tally.list_results += op.results
                else:
                    tally.failed += 1
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)
            stop.set()
        finally:
            tally.connects = conn.connects
            conn.close()

    threads = [threading.Thread(target=client, args=(s, t), daemon=True)
               for s, t in zip(streams, tallies)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(2 * seconds + 60)
    elapsed = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        stop.set()
        raise RuntimeError("a client did not finish in time")
    if errors:
        raise errors[0]
    total = Tally()
    for tally in tallies:
        total.merge(tally)
    return total, elapsed


# ---------------------------------------------------------------------------
# Journal checks


def check_journals(journal: Path, model: AuthzModel) -> list[str]:
    """Problems found on reopening both journals through the stores."""
    from bola_guard import AccessControlEntry, AclStore, ObjectStore

    with AclStore.open(journal) as acl, ObjectStore.open(f"{journal}.objects") as objects:
        live = {(o["path"], int(o["id"])) for o in objects.entries()}
        entries = {(ace.path, ace.id): ace for ace in acl.entries()}
    problems = []
    for key in sorted(live):
        ace = entries.get(key)
        if ace is None:
            problems.append(f"object {key} has no ACL entry")
        elif ace.owner != model.owners.get(key):
            problems.append(f"object {key} is owned by {ace.owner!r}, "
                            f"the model says {model.owners.get(key)!r}")
    for key in sorted(entries.keys() - live):
        problems.append(f"ACL entry {key} has no object")
    if live != set(model.owners):
        problems.append(f"live objects differ from the model: "
                        f"{len(set(model.owners) - live)} missing, "
                        f"{len(live - set(model.owners))} unexpected")
    with open(journal, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            record = json.loads(line)
            if record.get("op") == "del":
                continue
            if line != AccessControlEntry.from_record(record).to_json():
                problems.append(f"ACL journal line {number} is not ace.to_json()")
    return problems


_NAMES = ("rex", "lucky", "bella", "max", "luna", "coco", "milo", "kiwi", "nala", "ziggy")
_TAGS = ("dog", "cat", "bird", "fish", "admin", "guest", "staff")
