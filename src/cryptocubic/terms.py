"""Structured knowledge terms.

Every value that moves through a simulation carries one of these terms as
instrumentation metadata.  The attacker oracle reasons over terms only, so
its verdicts are independent of whether the run used symbolic or concrete
cryptography.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

ASYM = "asym"
SYM = "sym"


@dataclass(frozen=True)
class Term:
    """Base class for knowledge terms."""


@dataclass(frozen=True)
class PrivateKeyTerm(Term):
    pair_id: str


@dataclass(frozen=True)
class PublicKeyTerm(Term):
    pair_id: str


@dataclass(frozen=True)
class SymKeyTerm(Term):
    key_id: str


@dataclass(frozen=True)
class SigningKeyTerm(Term):
    # leg is "user" or "server"; bundle_id ties the two legs together
    bundle_id: str
    leg: str


@dataclass(frozen=True)
class AddressTerm(Term):
    bundle_id: str


@dataclass(frozen=True)
class TokenTerm(Term):
    token_id: str


@dataclass(frozen=True)
class BlobTerm(Term):
    """Opaque application bytes (labels, notices, counterfeit filler)."""

    digest_hex: str


@dataclass(frozen=True)
class EncTerm(Term):
    scheme: str  # ASYM or SYM
    key_id: str  # pair_id for ASYM, key_id for SYM
    inner: Term


@dataclass(frozen=True)
class DigestTerm(Term):
    inner: Term


@dataclass(frozen=True)
class TupleTerm(Term):
    items: tuple[Term, ...]


def blob_term(data: bytes) -> BlobTerm:
    return BlobTerm(hashlib.sha256(data).hexdigest())
