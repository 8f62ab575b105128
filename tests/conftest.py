from __future__ import annotations

import copy
from pathlib import Path

import pytest

from bola_guard import parse_document
from bola_guard.model import build_document

FIXTURES = Path(__file__).parent / "fixtures"

# Every committed document, used for corpus-wide properties.
CORPUS = [
    "ess_scheme_only",
    "petstore_root_level",
    "petstore_method_level",
    "two_path_root_level",
    "no_ess_plain",
    "mixed_design",
    "body_token_method_level",
    "single_route_root_level",
]


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.yaml").read_text(encoding="utf-8")


def fixture_doc(name: str):
    return parse_document(fixture_text(name))


def mutate(doc, fn):
    """Deep-copy the raw tree, apply fn, re-parse."""
    tree = copy.deepcopy(doc.raw)
    fn(tree)
    return build_document(tree)


@pytest.fixture
def root_doc():
    return fixture_doc("petstore_root_level")


@pytest.fixture
def method_doc():
    return fixture_doc("petstore_method_level")


@pytest.fixture
def scheme_only_doc():
    return fixture_doc("ess_scheme_only")
