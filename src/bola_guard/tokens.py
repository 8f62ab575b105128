"""Minimal HMAC-signed bearer tokens.

Three dot-separated base64url parts (header, claims, HMAC-SHA-256 signature),
no padding. Claims are exactly ``{user_id, user_name, groups, exp}``.
Verification compares the *encoded* signature strings, so any single-byte
tamper of the serialized token is rejected, including flips that only touch
base64 slack bits. Clocks are always passed in explicitly.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import math
from dataclasses import dataclass, field

from .errors import TokenExpired, TokenInvalid
from .model import decode

_HEADER = {"alg": "HS256", "typ": "JWT"}


def _b64url(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


@dataclass(frozen=True)
class AuthToken:
    """Verified principal: who is calling and which groups they belong to."""

    user_id: str
    user_name: str
    groups: frozenset[str]
    expiry: float
    raw: str = field(default="", repr=False, compare=False)


def issue_token(user_id: str, user_name: str, groups: frozenset[str] | set[str],
                ttl: float, key: bytes, now: float) -> AuthToken:
    """Sign a token valid for ``ttl`` seconds from ``now``."""
    expiry = now + ttl
    if not (ttl > 0 and math.isfinite(expiry)):
        raise ValueError("ttl must be positive and the expiry finite")
    claims = {
        "user_id": user_id,
        "user_name": user_name,
        "groups": sorted(groups),
        "exp": expiry,
    }
    signing_input = (_b64url(json.dumps(_HEADER, separators=(",", ":")).encode())
                     + "."
                     + _b64url(json.dumps(claims, separators=(",", ":")).encode()))
    signature = hmac.new(key, signing_input.encode("ascii"), hashlib.sha256).digest()
    return AuthToken(
        user_id=user_id,
        user_name=user_name,
        groups=frozenset(groups),
        expiry=expiry,
        raw=f"{signing_input}.{_b64url(signature)}",
    )


def verify_token(raw: str, key: bytes, now: float) -> AuthToken:
    """Return the claims iff the signature is valid and the token is unexpired."""
    if not raw.isascii():
        raise TokenInvalid("token is not ASCII")
    parts = raw.split(".")
    if len(parts) != 3:
        raise TokenInvalid("token must have exactly three parts")
    header_part, claims_part, signature_part = parts

    header = _decode_json(header_part)
    if header.get("alg") != "HS256":
        raise TokenInvalid(f"unsupported algorithm {header.get('alg')!r}")

    signing_input = f"{header_part}.{claims_part}".encode("ascii")
    expected = hmac.new(key, signing_input, hashlib.sha256).digest()
    # Compare encoded strings: only the canonical encoding of the right MAC passes.
    if not hmac.compare_digest(_b64url(expected), signature_part):
        raise TokenInvalid("signature mismatch")

    claims = _decode_json(claims_part)
    user_id, user_name = claims.get("user_id"), claims.get("user_name")
    groups, expiry = claims.get("groups"), claims.get("exp")
    # groups is a list, or a string would pass as one-letter groups; exp is a
    # NumericDate (RFC 7519 §2), a number and no bool, and finite: NaN would
    # never compare as expired, and infinity never expires.
    if not (isinstance(user_id, str) and isinstance(user_name, str)
            and isinstance(groups, list) and all(isinstance(g, str) for g in groups)
            and type(expiry) in (int, float) and -math.inf < expiry < math.inf):
        raise TokenInvalid("claims are incomplete or ill-typed")
    if now >= expiry:
        raise TokenExpired(f"token expired at {expiry}")
    return AuthToken(user_id=user_id, user_name=user_name,
                     groups=frozenset(groups), expiry=expiry, raw=raw)


def _decode_json(part: str) -> dict:
    padded = part + "=" * (-len(part) % 4)
    try:
        decoded = decode(base64.urlsafe_b64decode(padded), "json")
    except ValueError as exc:   # binascii.Error and DocumentSyntaxError are ones
        raise TokenInvalid(f"undecodable token part: {exc}") from exc
    if not isinstance(decoded, dict):
        raise TokenInvalid("token part is not a JSON object")
    return decoded
