import base64
import hashlib
import hmac
import json

import pytest
from hypothesis import given, strategies as st

from bola_guard import TokenExpired, TokenInvalid, issue_token, verify_token

KEY = b"unit-test-signing-key"
NOW = 1_700_000_000.0


class TestIssueAndVerify:
    def test_claims_round_trip(self):
        token = issue_token("123", "alice", {"G11"}, 3600, KEY, now=NOW)
        verified = verify_token(token.raw, KEY, now=NOW)
        assert verified.user_id == "123"
        assert verified.user_name == "alice"
        assert verified.groups == frozenset({"G11"})
        assert verified.expiry == NOW + 3600

    def test_empty_groups_are_legal(self):
        token = issue_token("123", "alice", set(), 3600, KEY, now=NOW)
        assert verify_token(token.raw, KEY, now=NOW).groups == frozenset()

    def test_token_shape_is_three_base64url_parts(self):
        token = issue_token("123", "alice", {"G11"}, 3600, KEY, now=NOW)
        parts = token.raw.split(".")
        assert len(parts) == 3
        assert "=" not in token.raw

    def test_expired_token_is_rejected(self):
        token = issue_token("123", "alice", {"G11"}, 60, KEY, now=NOW)
        with pytest.raises(TokenExpired):
            verify_token(token.raw, KEY, now=NOW + 61)

    def test_expiry_boundary_is_exclusive(self):
        token = issue_token("123", "alice", {"G11"}, 60, KEY, now=NOW)
        with pytest.raises(TokenExpired):
            verify_token(token.raw, KEY, now=NOW + 60)
        verify_token(token.raw, KEY, now=NOW + 59.999)

    def test_wrong_key_is_rejected(self):
        token = issue_token("123", "alice", {"G11"}, 3600, KEY, now=NOW)
        with pytest.raises(TokenInvalid):
            verify_token(token.raw, b"a-different-key", now=NOW)

    def test_wrong_part_count_is_rejected(self):
        with pytest.raises(TokenInvalid):
            verify_token("just.two", KEY, now=NOW)
        with pytest.raises(TokenInvalid):
            verify_token("a.b.c.d", KEY, now=NOW)

    def test_a_header_nested_past_the_recursion_limit_is_rejected(self):
        # The header is decoded before the signature is checked.
        header = base64.urlsafe_b64encode(b"[" * 100_000 + b"]" * 100_000)
        with pytest.raises(TokenInvalid, match="undecodable"):
            verify_token(f"{header.decode().rstrip('=')}.e30.sig", KEY, now=NOW)

    def test_non_positive_ttl_is_rejected(self):
        with pytest.raises(ValueError):
            issue_token("123", "alice", set(), 0, KEY, now=NOW)

    @given(st.text(min_size=1, max_size=30),
           st.text(max_size=30),
           st.frozensets(st.text(min_size=1, max_size=8), max_size=5),
           st.floats(min_value=1, max_value=10_000_000))
    def test_arbitrary_claims_round_trip(self, user_id, user_name, groups, ttl):
        token = issue_token(user_id, user_name, groups, ttl, KEY, now=NOW)
        verified = verify_token(token.raw, KEY, now=NOW)
        assert (verified.user_id, verified.user_name, verified.groups) == (
            user_id, user_name, groups)


class TestTampering:
    def test_every_single_byte_flip_is_rejected(self):
        token = issue_token("123", "alice", {"G11", "G22"}, 3600, KEY, now=NOW)
        raw = token.raw
        rejected = 0
        total = 0
        for i in range(len(raw)):
            for mask in (0x01, 0x20):
                flipped = raw[:i] + chr(ord(raw[i]) ^ mask) + raw[i + 1:]
                if flipped == raw:
                    continue
                total += 1
                with pytest.raises((TokenInvalid, TokenExpired)):
                    verify_token(flipped, KEY, now=NOW)
                rejected += 1
        assert total > 0 and rejected == total

    def test_signature_slack_bit_tampering_is_rejected(self):
        # The last base64url character of a 32-byte MAC carries 2 unused bits;
        # decoding alone would accept a flip there.
        token = issue_token("123", "alice", {"G11"}, 3600, KEY, now=NOW)
        raw = token.raw
        last = raw[-1]
        alphabet = ("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    "abcdefghijklmnopqrstuvwxyz0123456789-_")
        for replacement in alphabet:
            if replacement == last:
                continue
            with pytest.raises(TokenInvalid):
                verify_token(raw[:-1] + replacement, KEY, now=NOW)

    def test_swapped_claims_between_tokens_are_rejected(self):
        a = issue_token("123", "alice", {"G11"}, 3600, KEY, now=NOW)
        b = issue_token("456", "bob", {"G22"}, 3600, KEY, now=NOW)
        header, _, signature = a.raw.split(".")
        claims = b.raw.split(".")[1]
        with pytest.raises(TokenInvalid):
            verify_token(f"{header}.{claims}.{signature}", KEY, now=NOW)


def signed(claims: dict) -> str:
    """A correctly signed token carrying arbitrary claims."""
    def part(obj) -> str:
        data = json.dumps(obj, separators=(",", ":")).encode()
        return base64.urlsafe_b64encode(data).rstrip(b"=").decode()

    signing_input = f"{part({'alg': 'HS256', 'typ': 'JWT'})}.{part(claims)}"
    mac = hmac.new(KEY, signing_input.encode(), hashlib.sha256).digest()
    return f"{signing_input}.{base64.urlsafe_b64encode(mac).rstrip(b'=').decode()}"


class TestClaimTypes:
    CLAIMS = {"user_id": "123", "user_name": "alice", "groups": ["G21"],
              "exp": NOW + 60}

    def test_well_typed_claims_verify(self):
        verified = verify_token(signed(self.CLAIMS), KEY, now=NOW)
        assert (verified.user_id, verified.groups) == ("123", frozenset({"G21"}))

    @pytest.mark.parametrize("groups", ["G21", {"G21": True}, [["G21"]], [21],
                                        [None], None])
    def test_groups_must_be_a_list_of_strings(self, groups):
        # A string would otherwise become the groups {"G", "2", "1"}.
        with pytest.raises(TokenInvalid):
            verify_token(signed({**self.CLAIMS, "groups": groups}), KEY, now=NOW)

    @pytest.mark.parametrize("user_id", [123, 1.5, None, ["123"], {"id": "123"},
                                         True])
    def test_user_id_must_be_a_string(self, user_id):
        with pytest.raises(TokenInvalid):
            verify_token(signed({**self.CLAIMS, "user_id": user_id}), KEY,
                         now=NOW)

    @pytest.mark.parametrize("user_name", [12345, None, ["alice"], {"n": "a"},
                                           False])
    def test_user_name_must_be_a_string(self, user_name):
        with pytest.raises(TokenInvalid):
            verify_token(signed({**self.CLAIMS, "user_name": user_name}), KEY,
                         now=NOW)

    @pytest.mark.parametrize("claims", [
        {k: v for k, v in CLAIMS.items() if k != "user_id"},
        {**CLAIMS, "exp": None},
        {**CLAIMS, "exp": "abc"},
    ], ids=["no_user_id", "exp_null", "exp_not_a_number"])
    def test_incomplete_or_ill_typed_claims_are_rejected(self, claims):
        with pytest.raises(TokenInvalid, match="incomplete or ill-typed"):
            verify_token(signed(claims), KEY, now=NOW)

    # exp is a NumericDate (RFC 7519 §2): float() would read these as
    # 99999999999.0 and 1.0.
    @pytest.mark.parametrize("exp", ["99999999999", True, False, [NOW + 60],
                                     {"at": NOW + 60}])
    def test_an_exp_that_is_not_a_number_is_rejected(self, exp):
        with pytest.raises(TokenInvalid, match="incomplete or ill-typed"):
            verify_token(signed({**self.CLAIMS, "exp": exp}), KEY, now=NOW)

    @pytest.mark.parametrize("exp", [int(NOW) + 60, 10 ** 400])
    def test_an_integer_exp_verifies(self, exp):
        # 10 ** 400 is past any float, where float() would overflow.
        verified = verify_token(signed({**self.CLAIMS, "exp": exp}), KEY, now=NOW)
        assert verified.expiry == exp
        with pytest.raises(TokenExpired):
            verify_token(signed({**self.CLAIMS, "exp": int(NOW)}), KEY, now=NOW)

    def test_claims_that_are_json_but_not_an_object_are_rejected(self):
        with pytest.raises(TokenInvalid, match="not a JSON object"):
            verify_token(signed(["123", "alice"]), KEY, now=NOW)

    def test_a_claims_part_that_is_not_ascii_is_rejected(self):
        header, _, signature = signed(self.CLAIMS).split(".")
        with pytest.raises(TokenInvalid, match="not ASCII"):
            verify_token(f"{header}.\u00e9t\u00e9.{signature}", KEY, now=NOW)

    def test_a_signature_that_is_not_ascii_is_rejected(self):
        # hmac.compare_digest raises TypeError on a non-ASCII str.
        header, claims, signature = signed(self.CLAIMS).split(".")
        with pytest.raises(TokenInvalid, match="not ASCII"):
            verify_token(f"{header}.{claims}.\x80{signature[1:]}", KEY, now=NOW)


class TestFiniteLifetime:
    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), -float("inf"),
                                     0, -1])
    def test_issue_rejects_a_ttl_that_is_not_positive_and_finite(self, ttl):
        with pytest.raises(ValueError):
            issue_token("123", "alice", {"G21"}, ttl, KEY, now=NOW)

    def test_issue_rejects_an_expiry_that_overflows(self):
        with pytest.raises(ValueError):
            issue_token("123", "alice", {"G21"}, 1.7e308, KEY, now=1.7e308)

    # json.dumps writes NaN and Infinity, and json.loads reads them back.
    @pytest.mark.parametrize("exp", [float("nan"), float("inf"), -float("inf"),
                                     "nan", "inf"])
    def test_verify_rejects_a_non_finite_exp(self, exp):
        raw = signed({**TestClaimTypes.CLAIMS, "exp": exp})
        for now in (NOW, 1e300):
            with pytest.raises(TokenInvalid):
                verify_token(raw, KEY, now=now)
