"""Dual cryptography backends.

The simulation runs against one of two interchangeable backends:

* ``symbolic``  - values are inert records; encryption wraps the plaintext
  object inside an opaque envelope and decryption checks key identity.
* ``concrete``  - values carry real key material; encryption is X25519
  ECIES with AES-GCM, symmetric encryption is AES-GCM, signing is Ed25519,
  hashing is SHA-256.

Only the concrete backend needs the third-party ``cryptography`` package:
without it the module still loads, and building a `ConcreteBackend` raises
ModuleNotFoundError.

The concrete backend keeps three bounded, process-wide memos.  It builds
each X25519 and Ed25519 private-key object once per 32-byte seed, because
building one is a full Curve25519 scalar multiplication, and it derives each
ECIES key once per (private seed, peer public key) pair, because an X25519
shared secret depends on nothing else.  Seeds repeat: every attack staging
replays the script with the script's own seed, so it draws the same key
seeds, and makes the same exchanges, as the main run.  Only key objects and
ECIES keys are cached; every AES-GCM seal and open (the authentication that
refuses a wrong key or a tampered payload), signature, verification and key
match still runs on every call, so outputs are byte-identical with or
without the memos.  The memos belong to the process, not to any simulated
party: they add no knowledge term and show in no table.

`CryptoBackend` draws every id from one counter sequence and builds every
value record, cypher term and guard; a backend supplies only key material and
payloads, so both produce the same terms and the emitted traces are identical
across backends.  A value record names its term class once (`TERM`), and the
concrete codec's one tag table, `_TAGS`, encodes a record as that class's
fields and the record's material.  Both draw all randomness from the seeded
generator they are handed, so a run is reproducible bit-for-bit.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

try:
    from cryptography.exceptions import InvalidSignature, InvalidTag
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PrivateKey,
        X25519PublicKey,
    )
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
except ModuleNotFoundError as exc:  # only the concrete backend needs it
    _missing = f"the concrete backend needs the {exc.name.partition('.')[0]} package"
else:
    _missing = ""

from .terms import (
    ASYM,
    SYM,
    AddressTerm,
    DigestTerm,
    EncTerm,
    PrivateKeyTerm,
    PublicKeyTerm,
    SigningKeyTerm,
    SymKeyTerm,
    Term,
    TokenTerm,
    blob_term,
)


class CryptoError(Exception):
    pass


class KeyMismatch(CryptoError):
    """Decryption attempted with a key that does not fit the cypher."""


class NotAValue(KeyMismatch):
    """An authenticated plaintext that encodes no value: the sealer was not
    this codec, so for the opener the key might as well not fit."""


class SchemeMismatch(CryptoError):
    """Cypher handed to the wrong decryption primitive."""


class EmptyPlaintext(CryptoError):
    """Encryption of an empty message is refused."""


class UnsealablePlaintext(CryptoError):
    """Encryption of a value the concrete codec could not give back as itself
    (an address, a digest, a cypher, a public or verify key) is refused on
    both backends, so that opening a cypher never yields a value on one
    backend and raw bytes on the other."""


class _Value:
    """A value record whose knowledge term is its class's `TERM`, built from
    the record's leading fields, those the term class names."""

    TERM: type[Term]

    @cached_property
    def term(self) -> Term:
        return self.TERM(*[getattr(self, name) for name in self.TERM.__match_args__])


@dataclass(frozen=True)
class AsymPrivateKey(_Value):
    TERM = PrivateKeyTerm
    pair_id: str
    material: bytes | None = None


@dataclass(frozen=True)
class AsymPublicKey(_Value):
    TERM = PublicKeyTerm
    pair_id: str
    material: bytes | None = None


@dataclass(frozen=True)
class AsymKeyPair:
    pair_id: str
    private: AsymPrivateKey
    public: AsymPublicKey


@dataclass(frozen=True)
class SymKey(_Value):
    TERM = SymKeyTerm
    key_id: str
    material: bytes | None = None


@dataclass(frozen=True)
class SigningKey(_Value):
    TERM = SigningKeyTerm
    bundle_id: str
    leg: str  # "user" or "server"
    material: bytes | None = None


@dataclass(frozen=True)
class VerifyKey:
    bundle_id: str
    leg: str
    material: bytes | None = None


@dataclass(frozen=True)
class Address(_Value):
    TERM = AddressTerm
    bundle_id: str
    value: str


@dataclass(frozen=True)
class MultiSigBundle:
    bundle_id: str
    sig_user: SigningKey
    sig_server: SigningKey
    verify_user: VerifyKey
    verify_server: VerifyKey
    address: Address


@dataclass(frozen=True)
class Token(_Value):
    TERM = TokenTerm
    token_id: str
    material: bytes


@dataclass(frozen=True)
class Cypher:
    payload: object  # bytes under concrete crypto, wrapped value otherwise
    term: EncTerm


@dataclass(frozen=True)
class Digest:
    value: bytes  # 32 bytes in both backends
    term: DigestTerm


@dataclass(frozen=True)
class Signature:
    bundle_id: str
    leg: str
    value: bytes


def term_of(value: object) -> Term:
    term = getattr(value, "term", None)
    if isinstance(term, Term):
        return term
    if isinstance(value, (bytes, bytearray)):
        return blob_term(bytes(value))
    raise TypeError(f"no knowledge term for {value!r}")


# tags for the canonical byte encoding used by hashing, store digests and
# concrete encryption payloads
_TAG_RAW = b"RAW"
_TAGS = {SigningKey: b"SIG", Token: b"TOK", SymKey: b"SYM", AsymPrivateKey: b"PRV"}
_TAGGED = {tag: cls for cls, tag in _TAGS.items()}


def _pack(*fields: bytes) -> bytes:
    out = bytearray()
    for f in fields:
        out += len(f).to_bytes(4, "big") + f
    return bytes(out)


def _unpack(data: bytes) -> list[bytes]:
    fields = []
    i = 0
    while i < len(data):
        n = int.from_bytes(data[i : i + 4], "big")
        i += 4
        fields.append(data[i : i + n])
        i += n
    return fields


class CryptoBackend:
    """The shared skeleton: id draws, value records, cypher terms and guards.

    A backend supplies only what differs between them:
    * key material: `_asym_material(rng)` gives a (private, public) pair,
      `_sym_material(rng)` a key, `_signing_material(rng)` one leg's
      (signing, verify) pair, and `_address_input(verify_key)` the bytes an
      address is derived from;
    * payloads: `_asym_seal`/`_asym_open` and `_sym_seal`/`_sym_open`;
    * `matches`, `export_bytes`, `sign` and `verify`.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    def _next_id(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = n
        return f"{prefix}{n}"

    # -- generation ------------------------------------------------------

    def gen_asym_pair(self, rng: random.Random) -> AsymKeyPair:
        pair_id = self._next_id("ak")
        private, public = self._asym_material(rng)
        return AsymKeyPair(pair_id, AsymPrivateKey(pair_id, private), AsymPublicKey(pair_id, public))

    def gen_sym_key(self, rng: random.Random) -> SymKey:
        return SymKey(self._next_id("sk"), self._sym_material(rng))

    def gen_token(self, rng: random.Random) -> Token:
        return Token(self._next_id("tk"), rng.randbytes(16))

    def gen_multisig(self, rng: random.Random) -> MultiSigBundle:
        bundle_id = self._next_id("ms")
        sig_u, ver_u = self._signing_material(rng)
        sig_s, ver_s = self._signing_material(rng)
        signing = (SigningKey(bundle_id, "user", sig_u), SigningKey(bundle_id, "server", sig_s))
        verify = (VerifyKey(bundle_id, "user", ver_u), VerifyKey(bundle_id, "server", ver_s))
        address = Address(bundle_id, _derive_address(*map(self._address_input, verify)))
        return MultiSigBundle(bundle_id, *signing, *verify, address)

    # -- encryption ------------------------------------------------------

    def asym_encrypt(self, public: AsymPublicKey, value: object, rng: random.Random) -> Cypher:
        self._check_plaintext(value)
        payload = self._asym_seal(public, value, rng)
        return Cypher(payload, EncTerm(ASYM, public.pair_id, term_of(value)))

    def asym_decrypt(self, private: AsymPrivateKey, cypher: Cypher) -> object:
        self._check_scheme(cypher, ASYM)
        return self._asym_open(private, cypher)

    def sym_encrypt(self, key: SymKey, value: object, rng: random.Random) -> Cypher:
        self._check_plaintext(value)
        payload = self._sym_seal(key, value, rng)
        return Cypher(payload, EncTerm(SYM, key.key_id, term_of(value)))

    def sym_decrypt(self, key: SymKey, cypher: Cypher) -> object:
        self._check_scheme(cypher, SYM)
        return self._sym_open(key, cypher)

    def hash_value(self, value: object) -> Digest:
        data = self.export_bytes(value)
        return Digest(hashlib.sha256(data).digest(), DigestTerm(term_of(value)))

    def fingerprint(self, value: object) -> bytes:
        return hashlib.sha256(self.export_bytes(value)).digest()

    # shared guards
    def _check_plaintext(self, value: object) -> None:
        if isinstance(value, (bytes, bytearray)):
            if not value:
                raise EmptyPlaintext("refusing to encrypt an empty message")
        elif type(value) not in _TAGS:
            raise UnsealablePlaintext(f"refusing to encrypt a {type(value).__name__}")

    def _check_scheme(self, cypher: Cypher, scheme: str) -> None:
        if cypher.term.scheme != scheme:
            raise SchemeMismatch(f"expected {scheme} cypher, got {cypher.term.scheme}")


class SymbolicBackend(CryptoBackend):
    """Structured-term cryptography: perfect, deterministic, material-free."""

    name = "symbolic"

    def _asym_material(self, rng: random.Random) -> tuple[None, None]:
        return None, None

    _signing_material = _asym_material

    def _sym_material(self, rng: random.Random) -> None:
        return None

    def _address_input(self, verify_key: VerifyKey) -> bytes:
        return repr(verify_key).encode()

    def _asym_seal(self, key: AsymPublicKey | SymKey, value: object, rng: random.Random) -> object:
        return value  # the cypher's term names the key that opens it

    _sym_seal = _asym_seal

    def _asym_open(self, key: AsymPrivateKey | SymKey, cypher: Cypher) -> object:
        if cypher.term.key is not key.term:
            raise KeyMismatch(f"cypher does not open under {key.term}")
        return cypher.payload

    _sym_open = _asym_open

    def matches(self, private: AsymPrivateKey, public: AsymPublicKey) -> bool:
        return private.pair_id == public.pair_id

    def export_bytes(self, value: object) -> bytes:
        # canonical encoding of the term stands in for real material
        if isinstance(value, (bytes, bytearray)):
            return _pack(_TAG_RAW, bytes(value))
        return repr(term_of(value)).encode("utf-8")

    def sign(self, key: SigningKey, message: bytes) -> Signature:
        fp = hashlib.sha256(repr(key.term).encode() + message).digest()
        return Signature(key.bundle_id, key.leg, fp)

    def verify(self, key: VerifyKey, message: bytes, signature: Signature) -> bool:
        if (signature.bundle_id, signature.leg) != (key.bundle_id, key.leg):
            return False
        expected = hashlib.sha256(
            repr(SigningKeyTerm(key.bundle_id, key.leg)).encode() + message
        ).digest()
        return signature.value == expected


@lru_cache(maxsize=1024)
def _x25519_private(seed: bytes) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(seed)


@lru_cache(maxsize=1024)
def _ed25519_private(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


@lru_cache(maxsize=1024)
def _ecies_key(seed: bytes, peer: bytes) -> bytes:
    """The AES key that X25519 private key `seed` shares with public key `peer`;
    raises KeyMismatch for a low-order `peer`, which shares no secret."""
    try:
        shared = _x25519_private(seed).exchange(X25519PublicKey.from_public_bytes(peer))
    except ValueError as exc:
        raise KeyMismatch("the key shares no secret") from exc
    return hashlib.sha256(b"cryptocubic.ecies.v1" + shared).digest()


class ConcreteBackend(CryptoBackend):
    """Real primitives: X25519+AES-GCM, AES-GCM, Ed25519, SHA-256."""

    name = "concrete"

    def __init__(self) -> None:
        if _missing:
            raise ModuleNotFoundError(_missing)
        super().__init__()

    def _asym_material(self, rng: random.Random) -> tuple[bytes, bytes]:
        seed = rng.randbytes(32)
        return seed, _x25519_private(seed).public_key().public_bytes_raw()

    def _sym_material(self, rng: random.Random) -> bytes:
        return rng.randbytes(32)

    def _signing_material(self, rng: random.Random) -> tuple[bytes, bytes]:
        seed = rng.randbytes(32)
        return seed, _ed25519_private(seed).public_key().public_bytes_raw()

    def _address_input(self, verify_key: VerifyKey) -> bytes:
        return verify_key.material

    def _aes_seal(self, key: bytes, plaintext: bytes, rng: random.Random) -> bytes:
        nonce = rng.randbytes(12)
        return nonce + AESGCM(key).encrypt(nonce, plaintext, None)

    def _aes_open(self, key: bytes, sealed: bytes) -> object:
        """Open a nonce-prefixed AES-GCM payload and import the value inside."""
        if len(sealed) < 12 + 16:  # nonce, tag
            raise KeyMismatch("cypher payload is cut short")
        try:  # a key that is no AES key (wrong length, no bytes) opens nothing either
            plaintext = AESGCM(key).decrypt(sealed[:12], sealed[12:], None)
        except (InvalidTag, ValueError, TypeError) as exc:
            raise KeyMismatch("authenticated decryption failed") from exc
        return self._import_value(plaintext)

    def _asym_seal(self, public: AsymPublicKey, value: object, rng: random.Random) -> bytes:
        plaintext = self.export_bytes(value)
        eph = rng.randbytes(32)
        sealed = self._aes_seal(_ecies_key(eph, public.material), plaintext, rng)
        return _x25519_private(eph).public_key().public_bytes_raw() + sealed

    def _asym_open(self, private: AsymPrivateKey, cypher: Cypher) -> object:
        payload = cypher.payload
        if len(payload) < 32 + 12 + 16:  # ephemeral key, nonce, tag
            raise KeyMismatch("cypher payload is cut short")
        return self._aes_open(_ecies_key(private.material, payload[:32]), payload[32:])

    def _sym_seal(self, key: SymKey, value: object, rng: random.Random) -> bytes:
        return self._aes_seal(key.material, self.export_bytes(value), rng)

    def _sym_open(self, key: SymKey, cypher: Cypher) -> object:
        return self._aes_open(key.material, cypher.payload)

    def matches(self, private: AsymPrivateKey, public: AsymPublicKey) -> bool:
        seed = private.material  # an X25519 private key is 32 bytes; no other fits
        return len(seed) == 32 and _x25519_private(seed).public_key().public_bytes_raw() == public.material

    def export_bytes(self, value: object) -> bytes:
        if isinstance(value, (bytes, bytearray)):
            return _pack(_TAG_RAW, bytes(value))
        tag = _TAGS.get(type(value))
        if tag is not None:
            ids = [getattr(value, name).encode() for name in value.TERM.__match_args__]
            return _pack(tag, *ids, value.material)
        if isinstance(value, Cypher):
            return _pack(_TAG_RAW, bytes(value.payload))
        if isinstance(value, (Digest, Address)):
            val = value.value
            return _pack(_TAG_RAW, val if isinstance(val, bytes) else val.encode())
        raise TypeError(f"cannot encode {type(value).__name__} for transport")

    def _import_value(self, data: bytes) -> object:
        """The value `data` encodes; raises NotAValue for any other bytes."""
        fields = _unpack(data)
        if not fields or _pack(*fields) != data:
            raise NotAValue("the plaintext is cut short")
        tag, *fields = fields
        if tag == _TAG_RAW and len(fields) == 1:
            return fields[0]
        cls = _TAGGED.get(tag)
        if cls is None or len(fields) != len(cls.TERM.__match_args__) + 1:
            raise NotAValue(f"the plaintext encodes no value (tag {tag[:8]!r})")
        *ids, material = fields
        try:
            return cls(*[f.decode() for f in ids], material)
        except UnicodeDecodeError as exc:
            raise NotAValue(f"a {cls.__name__} id is not UTF-8") from exc

    def sign(self, key: SigningKey, message: bytes) -> Signature:
        try:
            return Signature(key.bundle_id, key.leg, _ed25519_private(key.material).sign(message))
        except (ValueError, TypeError) as exc:  # material that is no 32-byte seed
            raise KeyMismatch("the signing key is no Ed25519 key") from exc

    def verify(self, key: VerifyKey, message: bytes, signature: Signature) -> bool:
        try:
            Ed25519PublicKey.from_public_bytes(key.material).verify(signature.value, message)
        except InvalidSignature:
            return False
        return True


def _derive_address(verify_user: bytes, verify_server: bytes) -> str:
    return hashlib.sha256(verify_user + b"|" + verify_server).hexdigest()[:40]


BACKENDS = {cls.name: cls for cls in (SymbolicBackend, ConcreteBackend)}


def get_backend(name: str) -> CryptoBackend:
    """Resolve a backend by name; raises ValueError for unknown names."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend: {name!r} (expected {' or '.join(map(repr, BACKENDS))})")
    return BACKENDS[name]()
