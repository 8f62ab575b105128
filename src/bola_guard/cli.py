"""Command-line entry point.

Exit codes: 0 success, 1 validation errors / failed check, 2 usage error,
3 I/O or document error. Every subcommand accepts ``--json`` for
machine-readable output. The signing key path may come from the
``BOLA_GUARD_KEY`` environment variable instead of ``--key``.
``acl grant`` and ``acl compact`` write the single-writer ACL journal: run
them offline, never while a service holds it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    BolaGuardError,
    DocumentSyntaxError,
    StructureError,
)
from .engine import AuthzEngine
from .generator import roundtrip_check, spec_to_stub, stub_to_spec
from .model import emit_document, parse_document
from .rules import GroupRuleSet
from .service import ServiceConfig, serve
from .store import AclStore
from .tokens import issue_token
from .validator import classify_design, has_errors, render_json, render_text, validate

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _load_document(path: str):
    fmt = "json" if path.endswith(".json") else "yaml"
    text = Path(path).read_text(encoding="utf-8")
    return parse_document(text, fmt)


def _lifetime(text: str) -> float:
    """A ``--ttl`` value: seconds, positive and finite."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not (seconds > 0 and math.isfinite(seconds)):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive, finite number of seconds")
    return seconds


def _signing_key(args) -> bytes:
    key_path = args.key or os.environ.get("BOLA_GUARD_KEY")
    if not key_path:
        raise FileNotFoundError("no signing key: pass --key or set BOLA_GUARD_KEY")
    return Path(key_path).read_bytes().strip()


# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _load_document(args.spec)
    findings = validate(doc)
    if args.json:
        print(render_json(findings))
    elif findings and not args.quiet:
        print(render_text(findings))
    return EXIT_FINDINGS if has_errors(findings) else EXIT_OK


def cmd_classify(args) -> int:
    design = classify_design(_load_document(args.spec))
    print(json.dumps({"design": design}) if args.json else design)
    return EXIT_OK


def cmd_gen_stub(args) -> int:
    manifest = spec_to_stub(_load_document(args.spec), args.out)
    if args.json:
        print(manifest.to_json(), end="")
    else:
        bound = sum(1 for r in manifest.routes if r.object_auth is not None)
        print(f"wrote stub for {len(manifest.routes)} route(s) "
              f"({bound} authorization-bound) to {args.out}")
    return EXIT_OK


def cmd_gen_spec(args) -> int:
    doc = stub_to_spec(args.stub_dir)
    fmt = "json" if args.out.endswith(".json") else "yaml"
    Path(args.out).write_text(emit_document(doc, fmt), encoding="utf-8")
    if args.json:
        print(json.dumps({"out": args.out, "paths": sorted(doc.paths)}))
    else:
        print(f"wrote specification with {len(doc.paths)} path(s) to {args.out}")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    ok = roundtrip_check(_load_document(args.spec))
    if args.json:
        print(json.dumps({"roundtrip": ok}))
    else:
        print("OK" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FINDINGS


def cmd_serve(args) -> int:
    serve(ServiceConfig.load(args.config))
    return EXIT_OK


def cmd_token_issue(args) -> int:
    key = _signing_key(args)
    groups = frozenset(g for g in (args.groups or "").split(",") if g)
    token = issue_token(args.user, args.name, groups, args.ttl, key,
                        now=time.time())
    if args.json:
        print(json.dumps({"token": token.raw, "expires": token.expiry}))
    else:
        print(token.raw)
    return EXIT_OK


def cmd_acl_list(args) -> int:
    with AclStore.open(args.journal) as store:
        entries = store.entries()
        if args.json:
            print(json.dumps([a.to_record() for a in entries], indent=2))
        else:
            for ace in entries:
                print(ace.to_json())
    return EXIT_OK


def cmd_acl_grant(args) -> int:
    # Granting needs no group rules: only the entry's owner may grant.
    with AclStore.open(args.journal) as store:
        ace = AuthzEngine(GroupRuleSet(), store).grant(
            args.actor, args.object, args.path, args.grantee, args.level)
        print(json.dumps(ace.to_record()) if args.json else ace.to_json())
    return EXIT_OK


def cmd_acl_compact(args) -> int:
    with AclStore.open(args.journal) as store:
        count = store.compact()
    if args.json:
        print(json.dumps({"entries": count}))
    else:
        print(f"compacted journal to {count} live entr{'y' if count == 1 else 'ies'}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bola-guard",
        description="Object-level authorization toolkit for OpenAPI services.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("validate", help="validate extension usage in a document")
    p.add_argument("spec")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress finding output")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="report the document's binding design")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gen-stub", help="generate a server stub from a document")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_gen_stub)

    p = sub.add_parser("gen-spec", help="recover a document from a server stub")
    p.add_argument("stub_dir")
    p.add_argument("-o", "--out", required=True, help="output file (.yaml/.json)")
    common(p)
    p.set_defaults(func=cmd_gen_spec)

    p = sub.add_parser("roundtrip",
                       help="check spec -> stub -> spec preservation")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("serve", help="run the reference service")
    p.add_argument("-c", "--config", required=True)
    common(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("token", help="token utilities")
    token_sub = p.add_subparsers(dest="token_command", required=True)
    t = token_sub.add_parser("issue", help="mint a signed token")
    t.add_argument("--user", required=True, help="user id")
    t.add_argument("--name", required=True, help="display name")
    t.add_argument("--groups", default="", help="comma-separated group ids")
    t.add_argument("--ttl", type=_lifetime, default=3600.0, help="lifetime in seconds")
    t.add_argument("--key", help="signing key file (or set BOLA_GUARD_KEY)")
    common(t)
    t.set_defaults(func=cmd_token_issue)

    p = sub.add_parser("acl", help="ACL journal utilities")
    acl_sub = p.add_subparsers(dest="acl_command", required=True)

    a = acl_sub.add_parser("list", help="print live ACL entries")
    a.add_argument("--journal", required=True)
    common(a)
    a.set_defaults(func=cmd_acl_list)

    a = acl_sub.add_parser("grant", help="owner grants RO/RW access "
                                         "(run offline, like compact)")
    a.add_argument("--journal", required=True)
    a.add_argument("--path", required=True)
    a.add_argument("--object", type=int, required=True)
    a.add_argument("--actor", required=True, help="acting user id (must own)")
    a.add_argument("--grantee", required=True)
    a.add_argument("--level", choices=["ro", "rw"], required=True)
    common(a)
    a.set_defaults(func=cmd_acl_grant)

    a = acl_sub.add_parser("compact",
                           help="rewrite the journal with live entries only "
                                "(run offline; frees ids of deleted objects)")
    a.add_argument("--journal", required=True)
    common(a)
    a.set_defaults(func=cmd_acl_compact)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (OSError, UnicodeError, DocumentSyntaxError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BolaGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
