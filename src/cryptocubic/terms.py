"""Structured knowledge terms.

Every value that moves through a simulation carries one of these terms as
instrumentation metadata.  The attacker oracle reasons over terms only, so
its verdicts are independent of whether the run used symbolic or concrete
cryptography.  The classes are the terms the protocol builds; a payload
crosses the transport item by item, so no term groups values.

Terms are hash-consed: every class is built through one intern table keyed
by class and field values, so there is one live object per distinct term
and equality and hashing are object identity (C-level, never recursive).
The table holds its terms weakly, and their term fields by id, so the terms
of a finished run are freed with it (a key and its holders, which refer to
each other, by the cyclic collector).  Copies and pickles rebuild
through the table and so return the interned object.  A term is built
from its field values in order, never by keyword, and a cypher under a
scheme with no opening key is refused when it is built.  The `repr` is the
dataclass one, which witness lines and symbolic signatures are built from.

One key index serves the attacker oracle.  `seals`, set once per term,
names the private, symmetric or signing key a cypher holds at any depth (no
rule opens a digest), and a signing key names itself.  Each key keeps the
inverse, `holders`, filled as each term is interned: the cyphers that seal
it, and a signing key itself.  A private or symmetric key is not its own
holder, so one that no cypher seals is freed at its last reference, and it
builds no set.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from weakref import WeakValueDictionary

ASYM = "asym"
SYM = "sym"

# (class, *field values, a term as its id) -> the one live term with them
_table: WeakValueDictionary[tuple, Term] = WeakValueDictionary()


class Term:
    """Base class for knowledge terms: calling a term class returns the live
    term with those field values, and builds one only when there is none."""
    seals: tuple[Term, ...] = ()  # the key it holds in cyphers, if any
    holders: set[Term] | frozenset[Term] = frozenset()  # of a key: what seals it

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__name__} takes exactly the fields {', '.join(names)}")
        key = (cls, *map(_by_id, args)) if cls in _HAS_TERM_FIELDS else (cls, *args)
        term = _table.get(key)
        if term is None:
            term = object.__new__(cls)
            term.__dict__.update(zip(names, args))
            term.__post_init__()
            for sealed in term.seals:  # a key no cypher seals builds no set
                sealed.__dict__.setdefault("holders", set()).add(term)
            _table[key] = term
        return term

    def __post_init__(self) -> None:
        """Set the fields derived from the others; called once per term."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, eq=False, init=False)
class PrivateKeyTerm(Term):
    pair_id: str


@dataclass(frozen=True, eq=False, init=False)
class PublicKeyTerm(Term):
    pair_id: str


@dataclass(frozen=True, eq=False, init=False)
class SymKeyTerm(Term):
    key_id: str


@dataclass(frozen=True, eq=False, init=False)
class SigningKeyTerm(Term):
    # leg is "user" or "server"; bundle_id ties the two legs together
    bundle_id: str
    leg: str

    def __post_init__(self) -> None:
        self.__dict__["seals"] = (self,)  # so a bare leg is among its holders


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
    # the term that opens this cypher; an unknown scheme raises KeyError
    key: Term = field(init=False, repr=False)

    def __post_init__(self) -> None:
        inner = self.inner
        seals = (inner,) if type(inner) in _OPENERS.values() else inner.seals
        self.__dict__.update(key=_OPENERS[self.scheme](self.key_id), seals=seals)


@dataclass(frozen=True, eq=False, init=False)
class DigestTerm(Term):
    inner: Term


_OPENERS = {ASYM: PrivateKeyTerm, SYM: SymKeyTerm}
_HAS_TERM_FIELDS = frozenset({EncTerm, DigestTerm})


def _by_id(value):  # held by the table, a key would outlive its holders
    return id(value) if isinstance(value, Term) else value


def blob_term(data: bytes) -> BlobTerm:
    return BlobTerm(hashlib.sha256(data).hexdigest())
