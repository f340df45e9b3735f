"""Structured knowledge terms.

Every value that moves through a simulation carries one of these terms as
instrumentation metadata.  The attacker oracle reasons over terms only, so
its verdicts are independent of whether the run used symbolic or concrete
cryptography.

Terms are hash-consed: every class is built through one intern table keyed
by class and field values, so there is one live object per distinct term
and equality and hashing are object identity (C-level, never recursive).
The table holds its terms weakly, so the terms of a finished run are freed
with it.  Copies and pickles rebuild through the table and so return the
interned object.  The `repr` is the dataclass one, which witness lines and
symbolic signatures are built from.

`holds_key`, set once per term, says whether it is or holds (in cyphers and
tuples) a private, symmetric or signing key; no rule opens a digest.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from weakref import WeakValueDictionary

ASYM = "asym"
SYM = "sym"

# (class, *field values) -> the one live term with them
_table: WeakValueDictionary[tuple, Term] = WeakValueDictionary()


class Term:
    """Base class for knowledge terms: calling a term class returns the live
    term with those field values, and builds one only when there is none."""
    holds_key = False

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__name__} takes exactly the fields {', '.join(names)}")
        key = (cls, *args)
        term = _table.get(key)
        if term is None:
            term = object.__new__(cls)
            term.__dict__.update(zip(names, args))
            term.__post_init__()
            _table[key] = term
        return term

    def __post_init__(self) -> None:
        """Set the fields derived from the others; called once per term."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, eq=False, init=False)
class PrivateKeyTerm(Term):
    holds_key = True
    pair_id: str


@dataclass(frozen=True, eq=False, init=False)
class PublicKeyTerm(Term):
    pair_id: str


@dataclass(frozen=True, eq=False, init=False)
class SymKeyTerm(Term):
    holds_key = True
    key_id: str


@dataclass(frozen=True, eq=False, init=False)
class SigningKeyTerm(Term):
    holds_key = True
    # leg is "user" or "server"; bundle_id ties the two legs together
    bundle_id: str
    leg: str


@dataclass(frozen=True, eq=False, init=False)
class AddressTerm(Term):
    bundle_id: str


@dataclass(frozen=True, eq=False, init=False)
class TokenTerm(Term):
    token_id: str


@dataclass(frozen=True, eq=False, init=False)
class BlobTerm(Term):
    """Opaque application bytes (labels, notices, counterfeit filler)."""

    digest_hex: str


@dataclass(frozen=True, eq=False, init=False)
class EncTerm(Term):
    scheme: str  # ASYM or SYM
    key_id: str  # pair_id for ASYM, key_id for SYM
    inner: Term
    # the term that opens this cypher; None for an unknown scheme
    key: Term | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        opener = _OPENERS.get(self.scheme)
        self.__dict__["key"] = opener and opener(self.key_id)
        self.__dict__["holds_key"] = self.inner.holds_key


@dataclass(frozen=True, eq=False, init=False)
class DigestTerm(Term):
    inner: Term


@dataclass(frozen=True, eq=False, init=False)
class TupleTerm(Term):
    items: tuple[Term, ...]

    def __post_init__(self) -> None:
        self.__dict__["holds_key"] = any(item.holds_key for item in self.items)


_OPENERS = {ASYM: PrivateKeyTerm, SYM: SymKeyTerm}


def blob_term(data: bytes) -> BlobTerm:
    return BlobTerm(hashlib.sha256(data).hexdigest())
