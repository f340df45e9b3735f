"""Cryptography layer: both backends against one contract."""
import ast
import dataclasses
import hashlib
import pickle
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocubic import backend as backend_module
from cryptocubic.backend import (
    ConcreteBackend,
    CryptoBackend,
    EmptyPlaintext,
    KeyMismatch,
    SymbolicBackend,
    UnsealablePlaintext,
    get_backend,
    term_of,
)
from cryptocubic.cli import main
from cryptocubic.scenario import parse_scenario, run_scenario
from cryptocubic.terms import ASYM, DigestTerm, EncTerm, Term

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_get_backend_names():
    assert isinstance(get_backend("symbolic"), SymbolicBackend)
    assert isinstance(get_backend("concrete"), ConcreteBackend)
    with pytest.raises(ValueError):
        get_backend("quantum")


SKELETON = ("gen_asym_pair", "gen_sym_key", "gen_multisig",
            "asym_encrypt", "asym_decrypt", "sym_encrypt", "sym_decrypt")
HOOKS = ("_asym_material", "_sym_material", "_signing_material", "_address_input",
         "_asym_seal", "_asym_open", "_sym_seal", "_sym_open",
         "matches", "export_bytes", "sign", "verify")


@pytest.mark.parametrize("cls", [SymbolicBackend, ConcreteBackend])
def test_backends_supply_only_material(cls):
    # ids, records, terms and guards are built once, in the shared skeleton
    assert all(method in vars(CryptoBackend) for method in SKELETON)
    assert [method for method in SKELETON if method in vars(cls)] == []
    assert [hook for hook in HOOKS if hook not in vars(cls)] == []


def _replay_calls(name, seed, calls):
    """Run one call sequence on a fresh backend; record each call's ids and terms."""
    be, rng = get_backend(name), random.Random(seed)
    pairs, sym_keys, cyphers = [], [], []
    # every kind of value a run holds: bytes, keys and tokens seal, and both
    # backends refuse addresses, digests, cyphers and public keys alike
    plaintexts = [b"plain"]
    record = []
    for call, i, j in calls:
        if call == "gen_asym_pair":
            pair = be.gen_asym_pair(rng)
            pairs.append(pair)
            plaintexts += [pair.private, pair.public]
            record.append((pair.pair_id, pair.private.term, pair.public.term))
        elif call == "gen_sym_key":
            key = be.gen_sym_key(rng)
            sym_keys.append(key)
            plaintexts.append(key)
            record.append((key.key_id, key.term))
        elif call == "gen_multisig":
            bundle = be.gen_multisig(rng)
            plaintexts += [bundle.sig_user, bundle.sig_server, bundle.address]
            record.append((bundle.bundle_id, bundle.sig_user.term, bundle.sig_server.term,
                           bundle.address.term))
        elif call == "gen_token":
            token = be.gen_token(rng)
            plaintexts.append(token)
            record.append((token.token_id, token.term))
        elif call.endswith("encrypt"):
            keys = [pair.public for pair in pairs] if call == "asym_encrypt" else sym_keys
            if keys:
                try:
                    cypher = getattr(be, call)(keys[i % len(keys)], plaintexts[j % len(plaintexts)], rng)
                except UnsealablePlaintext:
                    record.append("UnsealablePlaintext")
                    continue
                cyphers.append(cypher)
                plaintexts += [cypher, be.hash_value(cypher)]
                record.append(cypher.term)
        elif cyphers:  # decrypt a cypher made earlier, with a key that may not fit
            cypher = cyphers[i % len(cyphers)]
            if cypher.term.scheme == ASYM:
                decrypt, key = be.asym_decrypt, pairs[j % len(pairs)].private
            else:
                decrypt, key = be.sym_decrypt, sym_keys[j % len(sym_keys)]
            try:
                record.append(term_of(decrypt(key, cypher)))
            except KeyMismatch:
                record.append("KeyMismatch")
    return record


@given(
    seed=st.integers(0, 2**32),
    calls=st.lists(st.tuples(
        st.sampled_from(["gen_asym_pair", "gen_sym_key", "gen_multisig", "gen_token",
                         "asym_encrypt", "sym_encrypt", "decrypt"]),
        st.integers(0, 99), st.integers(0, 99)), max_size=25),
)
@settings(max_examples=40, deadline=None)
def test_both_backends_build_the_same_terms(seed, calls):
    assert _replay_calls("symbolic", seed, calls) == _replay_calls("concrete", seed, calls)


class TestAsymmetric:
    def test_generated_pair_matches(self, backend, rng):
        pair = backend.gen_asym_pair(rng)
        assert backend.matches(pair.private, pair.public)

    def test_two_pairs_distinct_ids(self, backend, rng):
        p, q = backend.gen_asym_pair(rng), backend.gen_asym_pair(rng)
        assert p.pair_id != q.pair_id

    def test_cross_pair_never_matches(self, backend, rng):
        pairs = [backend.gen_asym_pair(rng) for _ in range(6)]
        for i, p in enumerate(pairs):
            for j, q in enumerate(pairs):
                assert backend.matches(p.private, q.public) == (i == j)

    def test_round_trip_100_plaintexts(self, backend):
        rng = random.Random(1)
        pair = backend.gen_asym_pair(rng)
        for _ in range(100):
            msg = rng.randbytes(rng.randint(1, 200))
            c = backend.asym_encrypt(pair.public, msg, rng)
            assert backend.asym_decrypt(pair.private, c) == msg

    def test_wrong_key_raises(self, backend, rng):
        p, q = backend.gen_asym_pair(rng), backend.gen_asym_pair(rng)
        c = backend.asym_encrypt(p.public, b"secret", rng)
        with pytest.raises(KeyMismatch):
            backend.asym_decrypt(q.private, c)

    def test_empty_plaintext_refused(self, backend, rng):
        pair = backend.gen_asym_pair(rng)
        with pytest.raises(EmptyPlaintext):
            backend.asym_encrypt(pair.public, b"", rng)

    @pytest.mark.parametrize("kind", ["address", "digest", "cypher"])
    def test_a_value_only_one_backend_opens_as_itself_is_refused(self, backend, rng, kind):
        # the concrete codec would give these back as raw bytes, the symbolic one as the value
        pair, key = backend.gen_asym_pair(rng), backend.gen_sym_key(rng)
        cypher = backend.sym_encrypt(key, b"payload", rng)
        value = {"address": backend.gen_multisig(rng).address,
                 "digest": backend.hash_value(cypher), "cypher": cypher}[kind]
        state = rng.getstate()
        for seal, opener in ((backend.asym_encrypt, pair.public), (backend.sym_encrypt, key)):
            with pytest.raises(UnsealablePlaintext):
                seal(opener, value, rng)
        assert rng.getstate() == state  # refused before any draw

    def test_matches_agrees_with_decrypt(self, backend):
        # the two ways of asking "is this the right private key" must agree
        rng = random.Random(2)
        pairs = [backend.gen_asym_pair(rng) for _ in range(5)]
        for p in pairs:
            c = backend.asym_encrypt(p.public, b"probe", rng)
            for q in pairs:
                matched = backend.matches(q.private, p.public)
                try:
                    backend.asym_decrypt(q.private, c)
                    decrypted = True
                except KeyMismatch:
                    decrypted = False
                assert matched == decrypted

    def test_cypher_term_records_key_and_inner(self, backend, rng):
        pair = backend.gen_asym_pair(rng)
        sym = backend.gen_sym_key(rng)
        c = backend.asym_encrypt(pair.public, sym, rng)
        assert c.term == EncTerm("asym", pair.pair_id, term_of(sym))


class TestSymmetric:
    def test_round_trip(self, backend, rng):
        k = backend.gen_sym_key(rng)
        c = backend.sym_encrypt(k, b"payload", rng)
        assert backend.sym_decrypt(k, c) == b"payload"

    def test_wrong_key_raises_over_many_keys(self, backend):
        rng = random.Random(3)
        keys = [backend.gen_sym_key(rng) for _ in range(8)]
        c = backend.sym_encrypt(keys[0], b"payload", rng)
        for k in keys[1:]:
            with pytest.raises(KeyMismatch):
                backend.sym_decrypt(k, c)

    def test_value_round_trip(self, backend, rng):
        # protocol encrypts structured values, not just bytes
        bundle = backend.gen_multisig(rng)
        k = backend.gen_sym_key(rng)
        c = backend.sym_encrypt(k, bundle.sig_server, rng)
        out = backend.sym_decrypt(k, c)
        assert term_of(out) == term_of(bundle.sig_server)


def test_concrete_truncated_cypher_raises_key_mismatch():
    be = get_backend("concrete")
    rng = random.Random(11)
    pair = be.gen_asym_pair(rng)
    k = be.gen_sym_key(rng)
    for cypher, decrypt in (
        (be.asym_encrypt(pair.public, b"secret", rng), lambda c: be.asym_decrypt(pair.private, c)),
        (be.sym_encrypt(k, b"secret", rng), lambda c: be.sym_decrypt(k, c)),
    ):
        for length in range(len(cypher.payload)):
            cut = dataclasses.replace(cypher, payload=cypher.payload[:length])
            with pytest.raises(KeyMismatch):
                decrypt(cut)


@pytest.mark.parametrize("material", [b"short", None], ids=["short", "none"])
def test_concrete_key_material_of_the_wrong_length_raises_key_mismatch(material):
    # the values keep their class, so the transport delivers them; cryptography's
    # ValueError (or TypeError for no material) must not escape as such
    be = get_backend("concrete")
    rng = random.Random(12)
    key, bundle = be.gen_sym_key(rng), be.gen_multisig(rng)
    cypher = be.sym_encrypt(key, b"secret", rng)
    with pytest.raises(KeyMismatch):
        be.sym_decrypt(dataclasses.replace(key, material=material), cypher)
    with pytest.raises(KeyMismatch):
        be.sign(dataclasses.replace(bundle.sig_user, material=material), b"message")


class TestHash:
    def test_deterministic(self, backend, rng):
        k = backend.gen_sym_key(rng)
        bundle = backend.gen_multisig(rng)
        es = backend.sym_encrypt(k, bundle.sig_server, rng)
        assert backend.hash_value(es).value == backend.hash_value(es).value

    def test_digest_term_wraps_inner(self, backend, rng):
        k = backend.gen_sym_key(rng)
        d = backend.hash_value(k)
        assert d.term == DigestTerm(term_of(k))

    def test_no_collisions_1000(self, backend):
        rng = random.Random(4)
        seen = set()
        for _ in range(1000):
            msg = rng.randbytes(rng.randint(1, 64))
            seen.add(backend.hash_value(msg).value)
        # distinct inputs may repeat in the draw; digest count equals input count
        assert len(seen) >= 990


class TestTokens:
    def test_two_calls_distinct(self, backend, rng):
        a, b = backend.gen_token(rng), backend.gen_token(rng)
        assert a.token_id != b.token_id
        assert a.material != b.material

    def test_same_seed_same_sequence(self, backend):
        def run():
            r = random.Random(11)
            be = get_backend(backend.name)
            return [be.gen_token(r).material for _ in range(20)]

        assert run() == run()

    def test_uniqueness_sweep(self, backend):
        rng = random.Random(5)
        materials = {backend.gen_token(rng).material for _ in range(10_000)}
        assert len(materials) == 10_000


class TestMultiSig:
    def test_two_bundles_distinct_addresses(self, backend, rng):
        a, b = backend.gen_multisig(rng), backend.gen_multisig(rng)
        assert a.address.value != b.address.value

    def test_sign_verify(self, backend, rng):
        bundle = backend.gen_multisig(rng)
        sig = backend.sign(bundle.sig_user, b"tx")
        assert backend.verify(bundle.verify_user, b"tx", sig)
        assert not backend.verify(bundle.verify_server, b"tx", sig)
        assert not backend.verify(bundle.verify_user, b"other", sig)


class TestDeterminism:
    def test_identical_runs_identical_terms(self):
        def run(name):
            be = get_backend(name)
            rng = random.Random(42)
            pair = be.gen_asym_pair(rng)
            k = be.gen_sym_key(rng)
            bundle = be.gen_multisig(rng)
            ea = be.asym_encrypt(pair.public, bundle.sig_user, rng)
            es = be.sym_encrypt(k, bundle.sig_server, rng)
            return [term_of(v) for v in (pair.private, k, bundle.sig_user, ea, es)]

        assert run("symbolic") == run("symbolic")
        assert run("concrete") == run("concrete")
        # terms are backend-invariant by construction
        assert run("symbolic") == run("concrete")


def test_each_value_builds_its_term_once(backend, rng, monkeypatch):
    pair, bundle = backend.gen_asym_pair(rng), backend.gen_multisig(rng)
    values = [pair.private, pair.public, backend.gen_sym_key(rng), bundle.sig_user,
              bundle.address, backend.gen_token(rng)]
    terms = [value.term for value in values]
    built = []
    original = Term.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Term, "__new__", counting_new)
    assert [value.term for value in values] == terms
    assert all(value.term is value.term for value in values)
    assert built == []
    for value, term in zip(values, terms):  # a pickled copy keeps the interned term
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy.term is term


@given(msg=st.binary(min_size=1, max_size=256))
@settings(max_examples=50, deadline=None)
def test_concrete_round_trip_property(msg):
    be = get_backend("concrete")
    rng = random.Random(9)
    pair = be.gen_asym_pair(rng)
    k = be.gen_sym_key(rng)
    assert be.asym_decrypt(pair.private, be.asym_encrypt(pair.public, msg, rng)) == msg
    assert be.sym_decrypt(k, be.sym_encrypt(k, msg, rng)) == msg


@given(msg=st.binary(min_size=1, max_size=256), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_export_import_round_trip(msg, seed):
    be = get_backend("concrete")
    assert be._import_value(be.export_bytes(msg)) == msg
    rng = random.Random(seed)
    values = (be.gen_sym_key(rng), be.gen_token(rng), be.gen_multisig(rng).sig_user,
              be.gen_asym_pair(rng).private)
    assert {type(value) for value in values} == set(backend_module._TAGS)
    for value in values:
        encoded = be.export_bytes(value)
        back = be._import_value(encoded)
        assert term_of(back) == term_of(value)
        assert be.export_bytes(back) == encoded


def test_export_bytes_are_pinned():
    # sha256 of each tagged record's encoding, recorded before the codec became one table
    be, rng = get_backend("concrete"), random.Random(2024)
    values = [be.gen_multisig(rng).sig_user, be.gen_token(rng), be.gen_sym_key(rng),
              be.gen_asym_pair(rng).private]
    assert {type(value).__name__: hashlib.sha256(be.export_bytes(value)).hexdigest()
            for value in values} == {
        "SigningKey": "09f840c782fa3659395e64ee32ede9f1f1306701050f8405cb0e2a76cbf393a4",
        "Token": "be94cc2a838223de13985d4c2be3e23a25999684e99c8965e97ecf4075b72e8e",
        "SymKey": "23cb98a40350b217e1a72ba00322478d7deefe0386df1454bd9005653b916b67",
        "AsymPrivateKey": "429c1c402c0ff23f6a40945a247b74a69eb38bdaec45a7685dae067ab968ba91",
    }


def test_each_value_term_is_built_from_the_leading_fields():
    classes = backend_module._Value.__subclasses__()
    assert sorted(cls.__name__ for cls in classes) == [
        "Address", "AsymPrivateKey", "AsymPublicKey", "SigningKey", "SymKey", "Token"]
    for cls in classes:
        names = cls.TERM.__match_args__
        assert tuple(field.name for field in dataclasses.fields(cls))[:len(names)] == names, cls


class _CountedKey:
    """A real private key that counts the primitive calls made on it."""

    def __init__(self, key, calls):
        self._key, self._calls = key, calls

    def public_key(self):
        return self._key.public_key()

    def exchange(self, peer):
        self._calls["exchange"] += 1
        return self._key.exchange(peer)

    def sign(self, message):
        self._calls["ed25519 sign"] += 1
        return self._key.sign(message)


# every memo in backend.py: the counting fixture clears each before and after
# its test, so no count depends on what ran before
MEMOS = (backend_module._x25519_private, backend_module._ed25519_private,
         backend_module._ecies_key)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def counted_derivations(monkeypatch):
    """Seeds passed to each key derivation, and calls made on the keys."""
    seeds = {"x25519": [], "ed25519": []}
    calls = Counter()

    def counting(name, cls):
        def from_private_bytes(seed):
            seeds[name].append(seed)
            return _CountedKey(cls.from_private_bytes(seed), calls)

        return SimpleNamespace(from_private_bytes=from_private_bytes)

    for name, attr in (("x25519", "X25519PrivateKey"), ("ed25519", "Ed25519PrivateKey")):
        monkeypatch.setattr(backend_module, attr, counting(name, getattr(backend_module, attr)))
    for method in ("asym_encrypt", "asym_decrypt", "matches", "sign", "verify"):
        def counted(self, *args, _original=getattr(ConcreteBackend, method), _name=method):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ConcreteBackend, method, counted)
    clear_memos()
    yield seeds, calls
    clear_memos()  # drop the counting keys before other tests see them


def test_concrete_run_derives_each_key_once(counted_derivations):
    seeds, calls = counted_derivations
    text = (SCENARIOS_DIR / "cryptocubic.scen").read_text()
    golden = (SCENARIOS_DIR / "golden" / "cryptocubic.txt").read_text()

    def run():
        return run_scenario(parse_scenario(text, backend="concrete")).output

    assert run() == golden
    # the attack stagings go on from forks of the script's own run, which
    # hold its seeds, so without the memos the run derives 43 X25519 and
    # 4 Ed25519 keys from these few seeds
    assert len(seeds["x25519"]) == len(set(seeds["x25519"])) == 10
    assert len(seeds["ed25519"]) == len(set(seeds["ed25519"])) == 2
    # one X25519 exchange per distinct (private, peer) pair, where the run
    # without the ECIES-key memo makes 22; every other primitive still runs
    # on every call
    assert calls == {"asym_encrypt": 11, "asym_decrypt": 11, "exchange": 15,
                     "matches": 5, "sign": 2, "ed25519 sign": 2, "verify": 2}
    clear_memos()
    assert run() == golden


def test_every_memo_is_bounded_and_cleared_by_the_counting_fixture():
    owners = [backend_module, *(value for value in vars(backend_module).values()
                                if isinstance(value, type) and value.__module__ == backend_module.__name__)]
    found = [value for owner in owners for value in vars(owner).values() if hasattr(value, "cache_clear")]
    # a memo made anywhere else (inside a function, say) is one the scan misses
    tree = ast.parse(Path(backend_module.__file__).read_text())
    uses = [node for node in ast.walk(tree)
            if getattr(node, "id", getattr(node, "attr", None)) in ("lru_cache", "cache")]
    assert len(found) == len(uses) == 3
    for memo in found:
        assert memo.cache_info().maxsize is not None, memo
        assert memo in MEMOS, memo


class TestEciesKeyMemo:
    """With the right pair's key already derived, every refusal still holds:
    AES-GCM authenticates each open."""

    @pytest.fixture
    def sealed(self):
        be, rng = get_backend("concrete"), random.Random(5)
        pair, other = be.gen_asym_pair(rng), be.gen_asym_pair(rng)
        cypher = be.asym_encrypt(pair.public, be.gen_token(rng), rng)
        clear_memos()
        opened = be.asym_decrypt(pair.private, cypher)
        assert backend_module._ecies_key.cache_info().currsize == 1
        yield be, pair, other, cypher, opened
        clear_memos()

    def test_another_pairs_private_key_is_refused(self, sealed):
        be, pair, other, cypher, opened = sealed
        with pytest.raises(KeyMismatch):
            be.asym_decrypt(other.private, cypher)
        assert be.asym_decrypt(pair.private, cypher) == opened

    def test_a_payload_with_one_flipped_byte_is_refused(self, sealed):
        be, pair, _, cypher, opened = sealed
        for i in range(len(cypher.payload)):
            flipped = bytearray(cypher.payload)
            flipped[i] ^= 1
            with pytest.raises(KeyMismatch):
                be.asym_decrypt(pair.private, dataclasses.replace(cypher, payload=bytes(flipped)))
        assert be.asym_decrypt(pair.private, cypher) == opened

    def test_a_low_order_ephemeral_key_is_refused(self, sealed):
        # X25519 with the zero point shares no secret: the exchange refuses it
        be, pair, _, cypher, _ = sealed
        zero = dataclasses.replace(cypher, payload=bytes(32) + cypher.payload[32:])
        with pytest.raises(KeyMismatch, match="shares no secret"):
            be.asym_decrypt(pair.private, zero)


@pytest.mark.parametrize("name", ["baseline3", "bare4", "cryptocubic"])
def test_warm_and_cold_cli_runs_write_the_same_bytes(name, tmp_path, capsys):
    outputs = []
    clear_memos()  # the first run is cold, the next two warm
    for n in range(3):
        ledger, journal = tmp_path / f"{n}.ledger", tmp_path / f"{n}.journal"
        code = main([str(SCENARIOS_DIR / f"{name}.scen"), "--mode", name, "--backend", "concrete",
                     "--ledger", str(ledger), "--journal", str(journal)])
        outputs.append((code, capsys.readouterr(), ledger.read_bytes(), journal.read_bytes()))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]
