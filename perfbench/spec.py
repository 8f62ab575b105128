"""The ``spec_corpus`` workload: documents, the commands run on them, and the
outputs each command must produce.

The corpus is the committed ``tests/fixtures`` documents plus seeded synthetic
OpenAPI 3 documents. Synthetic sizes are fixed points on a log scale from 10
to 200 paths, so every seed yields the same size mix and only the content
varies; that keeps figures from different seeds comparable. Each synthetic
document mixes four kinds of path:

* ``root``: bound through ``x-objects`` to a schema's ``x-objectAuth``;
* ``method``: bound by an ``X-objectAuth`` node on its ``post`` operation;
* ``unbound``: handles an object schema without a binding (``W-BOLA-UNBOUND``);
* ``plain``: handles no object schema at all.

Two documents also carry a binding whose object reference dangles, which is
an ``E-DANGLING-REF`` error: ``validate`` and ``roundtrip`` must exit 1 on
them. A quarter of the synthetic documents are written as JSON. Which size
ranks carry the error and the JSON format is fixed too.

The expected outputs are derived from how each document was built, not from
running the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

SYNTHETIC_DOCS = 8
MIN_PATHS, MAX_PATHS = 10, 200
ERROR_DOC_RANKS = (2, 4)            # size ranks that carry an error binding
JSON_DOC_RANKS = (1, 6)             # size ranks written as JSON

# Expected (design, findings) of the committed fixtures; every one of them
# round-trips and has no error finding.
FIXTURES = {
    "body_token_method_level.yaml": ("method_level", []),
    "ess_scheme_only.yaml": ("none", []),
    "generated_from_manifest.golden.yaml": ("root_level", []),
    "mixed_design.yaml": ("mixed", []),
    "no_ess_plain.yaml": ("none", [("warning", "W-BOLA-UNBOUND", "#/paths/~1pet")]),
    "petstore_method_level.yaml": ("method_level", []),
    "petstore_root_level.yaml": ("root_level", []),
    "single_route_root_level.yaml": ("root_level", []),
    "two_path_root_level.yaml": ("root_level", []),
}

SCHEME = "X-objectAuthScheme"
_SCHEME_PTR = f"#/components/securitySchemes/{SCHEME}"


@dataclass(frozen=True)
class Document:
    """One corpus document and what the program must say about it."""

    file: str                       # path relative to the work directory
    design: str                     # root_level | method_level | mixed | none
    findings: tuple                 # sorted (severity, code, path_context)

    @property
    def has_errors(self) -> bool:
        return any(severity == "error" for severity, _, _ in self.findings)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    stdout: object                  # parsed JSON the command must print, or None

    def check(self, exit_code: int, stdout: str) -> bool:
        if exit_code != self.exit_code:
            return False
        if self.stdout is None:
            return not stdout.strip()
        try:
            parsed = json.loads(stdout)
        except ValueError:
            return False
        if self.argv[0] == "validate":
            if not isinstance(parsed, list):
                return False
            try:
                parsed = sorted((f["severity"], f["code"], f["path_context"])
                                for f in parsed)
            except (KeyError, TypeError):
                return False
        return parsed == self.stdout


def commands_for(doc: Document) -> list[Command]:
    validate = Command(("validate", "--json", doc.file), 1 if doc.has_errors else 0,
                       list(doc.findings))
    classify = Command(("classify", "--json", doc.file), 0, {"design": doc.design})
    roundtrip = (Command(("roundtrip", "--json", doc.file), 1, None) if doc.has_errors
                 else Command(("roundtrip", "--json", doc.file), 0, {"roundtrip": True}))
    return [validate, classify, roundtrip]


# ---------------------------------------------------------------------------
# Corpus construction


def build_corpus(seed: int, fixtures_dir: Path, work: Path) -> list[Document]:
    """Copy the fixtures and write the synthetic documents into ``work``."""
    docs = []
    corpus = work / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for name, (design, findings) in sorted(FIXTURES.items()):
        source = fixtures_dir / name
        if not source.is_file():        # a fixture removed from the repository
            continue
        (corpus / name).write_bytes(source.read_bytes())
        docs.append(Document(f"corpus/{name}", design, tuple(sorted(findings))))

    rng = random.Random(f"{seed}:spec")
    designs = ["root_level", "method_level", "mixed", "mixed"]
    for rank in range(SYNTHETIC_DOCS):
        fraction = (rank + 0.5) / SYNTHETIC_DOCS
        size = round(MIN_PATHS * (MAX_PATHS / MIN_PATHS) ** fraction)
        design = designs[rank % len(designs)]
        tree, findings = synthetic_document(rng, size, design, rank in ERROR_DOC_RANKS)
        fmt = "json" if rank in JSON_DOC_RANKS else "yaml"
        name = f"corpus/synthetic_{rank:02d}.{fmt}"
        if fmt == "json":
            text = json.dumps(tree, indent=2)
        else:
            text = yaml.dump(tree, Dumper=_DUMPER, sort_keys=False,
                             default_flow_style=False, width=100)
        (work / name).write_text(text, encoding="utf-8")
        docs.append(Document(name, design, tuple(sorted(findings))))
    return docs


_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def synthetic_document(rng: random.Random, size: int, design: str,
                       with_error: bool) -> tuple[dict, list]:
    """An OpenAPI 3 tree with ``size`` paths and the findings it must yield."""
    bound = {"root_level": ["root"], "method_level": ["method"],
             "mixed": ["root", "method"]}[design]
    kinds = [bound[i % len(bound)] for i in range(max(len(bound), size * 3 // 5))]
    while len(kinds) < size:
        kinds.append(("unbound", "plain")[len(kinds) % 2])
    rng.shuffle(kinds)
    if with_error:
        # The error binding is root-level, so it never changes the design of
        # a root_level or mixed document.
        if design == "method_level":
            raise ValueError("error documents must be root_level or mixed")
        kinds[rng.randrange(size)] = "error"

    paths, schemas, findings = {}, {}, []
    for i, kind in enumerate(kinds):
        word = rng.choice(_WORDS)
        path = f"/{word}{i}"
        schema = f"{word.capitalize()}{i}"
        item, schema_node, finding = _PATH_BUILDERS[kind](rng, path, schema, 1 + i % 3)
        paths[path] = item
        if schema_node is not None:
            schemas[schema] = schema_node
        if finding is not None:
            findings.append(finding)

    tree = {
        "openapi": "3.0.3",
        "info": {"title": f"Synthetic service with {size} paths", "version": "1.0"},
        "paths": paths,
        "components": {
            "schemas": schemas,
            "securitySchemes": {
                "api_key": {"type": "apiKey", "name": "api_key", "in": "header"},
                SCHEME: {"type": "apiKey", "name": "api_key", "in": "header",
                         "x-groups": "string", "x-user_id": "string"},
            },
        },
    }
    return tree, findings


def _object_schema(rng: random.Random, fields: int) -> dict:
    properties = {"id": {"type": "integer", "format": "int64"}}
    for field in rng.sample(_FIELDS, fields):
        properties[field] = {"type": rng.choice(("string", "integer", "boolean"))}
    return {"type": "object", "properties": properties}


def _ref_body(schema: str) -> dict:
    return {"content": {"application/json": {
        "schema": {"$ref": f"#/components/schemas/{schema}"}}}}


def _root_path(rng, path, schema, width, object_ref=None):
    node = _object_schema(rng, width)
    verbs = rng.sample(("post", "get", "put", "delete"), 1 + width)
    node["x-objectAuth"] = {
        "object": {"$ref": object_ref or f"#/components/schemas/{schema}/properties/id"},
        "schema": {"$ref": _SCHEME_PTR},
        "scopes": {
            "groups": {"$ref": f"{_SCHEME_PTR}/x-groups"},
            "user_id": {"$ref": f"{_SCHEME_PTR}/x-user_id"},
            "methods": {verb: {"description": f"{verb} one {schema}"} for verb in verbs},
        },
    }
    item = {verb: _operation(verb, schema) for verb in verbs}
    item["x-objects"] = {"$ref": f"#/components/schemas/{schema}/x-objectAuth"}
    return item, node, None


def _error_path(rng, path, schema, width):
    item, node, _ = _root_path(rng, path, schema, width,
                               f"#/components/schemas/{schema}/properties/missing")
    context = f"#/components/schemas/{schema}/x-objectAuth"
    return item, node, ("error", "E-DANGLING-REF", context)


def _method_path(rng, path, schema, width):
    letters = rng.sample("CRUD", 1 + width)
    claims = {"groups": {"type": "string"}, "user_id": {"type": "string"}}
    post = {
        "requestBody": {"content": {"application/json": {"schema": {
            "type": "object", "properties": {"name": {"type": "string"}}}}}},
        "responses": {"201": {"description": "created", "content": {
            "application/json": {"schema": {"type": "object", "properties": {
                "id": {"type": "integer", "format": "int64"}}}}}}},
        "X-objectAuth": {
            "object": {"schema": {"$ref": "post/responses/201/content/"
                                          "application~1json/schema/properties/id"}},
            # A distinct token name keeps bindings from being exact duplicates.
            "token": {"type": "JWT", "name": f"token for {path}", "in": "header"},
            "scopes": {letter: dict(claims) for letter in sorted(letters)},
        },
    }
    return {"post": post}, None, None


def _unbound_path(rng, path, schema, width):
    item = {"get": _operation("get", schema), "put": _operation("put", schema)}
    finding = ("warning", "W-BOLA-UNBOUND", "#/paths/" + path.replace("/", "~1"))
    return item, _object_schema(rng, width), finding


def _plain_path(rng, path, schema, width):
    item = {"get": {"responses": {"200": {"description": "status", "content": {
        "application/json": {"schema": {"type": "object", "properties": {
            "status": {"type": "string"}}}}}}}}}
    return item, None, None


def _operation(verb: str, schema: str) -> dict:
    if verb in ("post", "put"):
        return {"requestBody": _ref_body(schema),
                "responses": {"201" if verb == "post" else "200":
                              {"description": f"{schema} stored"}}}
    if verb == "get":
        return {"responses": {"200": {"description": f"{schema} read",
                                      **_ref_body(schema)}}}
    return {"responses": {"204": {"description": f"{schema} deleted"}}}


_PATH_BUILDERS = {"root": _root_path, "method": _method_path, "unbound": _unbound_path,
                  "plain": _plain_path, "error": _error_path}

_WORDS = ("pet", "order", "invoice", "device", "ticket", "album", "note", "account",
          "badge", "cart", "review", "shipment", "profile", "report", "token")
_FIELDS = ("name", "tag", "status", "owner_note", "color", "size", "price",
           "created", "label", "rank")


def corpus_commands(docs: list[Document], seed: int) -> list[Command]:
    """Every command of one pass over the corpus, in a seeded order."""
    commands = [c for doc in docs for c in commands_for(doc)]
    random.Random(f"{seed}:spec-order").shuffle(commands)
    return commands

