"""Ledger behavior: registration, funding, dual-signature spends, conservation."""
import pytest

from cryptocubic.ledger import (
    BadDestination,
    BadSignature,
    ChainTx,
    DuplicateAddress,
    InsufficientFunds,
    Ledger,
    MissingSignature,
    NonceReplay,
    NonPositiveAmount,
    UnknownAddress,
)


@pytest.fixture
def ledger(backend):
    return Ledger(backend)


@pytest.fixture
def account(backend, ledger, rng):
    bundle = backend.gen_multisig(rng)
    ledger.register(bundle.address.value, bundle.verify_user, bundle.verify_server)
    return bundle


def signed_tx(backend, bundle, dest, amount, nonce):
    tx = ChainTx(bundle.address.value, dest, amount, nonce)
    msg = tx.signing_message()
    return ChainTx(
        tx.source,
        tx.destination,
        tx.amount_cents,
        tx.nonce,
        sig_user=backend.sign(bundle.sig_user, msg),
        sig_server=backend.sign(bundle.sig_server, msg),
    )


class TestAccounts:
    def test_register_and_balance(self, ledger, account):
        assert ledger.balance(account.address.value) == 0

    def test_duplicate_registration_rejected(self, backend, ledger, account):
        with pytest.raises(DuplicateAddress):
            ledger.register(
                account.address.value, account.verify_user, account.verify_server
            )

    def test_unknown_address(self, ledger):
        with pytest.raises(UnknownAddress):
            ledger.balance("nowhere")
        with pytest.raises(UnknownAddress):
            ledger.fund("nowhere", 1)


class TestFunding:
    def test_fund_credits(self, ledger, account):
        ledger.fund(account.address.value, 1000)
        assert ledger.balance(account.address.value) == 1000

    def test_fund_additivity(self, ledger, account):
        # k deposits of one cent land as exactly k cents
        for _ in range(137):
            ledger.fund(account.address.value, 1)
        assert ledger.balance(account.address.value) == 137

    @pytest.mark.parametrize("amount", [0, -1, -1000])
    def test_non_positive_fund_rejected(self, ledger, account, amount):
        with pytest.raises(NonPositiveAmount):
            ledger.fund(account.address.value, amount)

    # only an int counts cents: a float, a bool or a numeral string is refused
    # before any balance moves
    @pytest.mark.parametrize("amount", [1.5, 1000.0, True, "5", None])
    def test_amount_that_is_not_an_int_is_refused(self, ledger, account, amount):
        version = ledger.version
        with pytest.raises(NonPositiveAmount):
            ledger.fund(account.address.value, amount)
        assert ledger.balance(account.address.value) == 0
        assert ledger.version == version


class TestSpending:
    def test_dual_signed_spend_clears(self, backend, ledger, account):
        ledger.fund(account.address.value, 500)
        tx = signed_tx(backend, account, "ext", 300, ledger.fresh_nonce())
        ledger.spend(tx)
        assert ledger.balance(account.address.value) == 200
        assert ledger.balance("ext") == 300

    def test_missing_either_signature(self, backend, ledger, account):
        ledger.fund(account.address.value, 100)
        tx = signed_tx(backend, account, "ext", 100, ledger.fresh_nonce())
        user_only = ChainTx(tx.source, tx.destination, tx.amount_cents, tx.nonce, sig_user=tx.sig_user)
        server_only = ChainTx(tx.source, tx.destination, tx.amount_cents, tx.nonce, sig_server=tx.sig_server)
        with pytest.raises(MissingSignature):
            ledger.spend(user_only)
        with pytest.raises(MissingSignature):
            ledger.spend(server_only)
        assert ledger.balance(account.address.value) == 100

    def test_wrong_key_signature_rejected(self, backend, ledger, rng, account):
        ledger.fund(account.address.value, 100)
        stranger = backend.gen_multisig(rng)
        tx = ChainTx(account.address.value, "ext", 100, ledger.fresh_nonce())
        msg = tx.signing_message()
        bad = ChainTx(
            tx.source,
            tx.destination,
            tx.amount_cents,
            tx.nonce,
            sig_user=backend.sign(stranger.sig_user, msg),
            sig_server=backend.sign(account.sig_server, msg),
        )
        with pytest.raises(BadSignature):
            ledger.spend(bad)
        assert ledger.balance(account.address.value) == 100

    def test_signature_over_different_message_rejected(self, backend, ledger, account):
        ledger.fund(account.address.value, 100)
        decoy = ChainTx(account.address.value, "ext", 1, 99)
        real = ChainTx(account.address.value, "ext", 100, ledger.fresh_nonce())
        tampered = ChainTx(
            real.source,
            real.destination,
            real.amount_cents,
            real.nonce,
            sig_user=backend.sign(account.sig_user, decoy.signing_message()),
            sig_server=backend.sign(account.sig_server, real.signing_message()),
        )
        with pytest.raises(BadSignature):
            ledger.spend(tampered)

    def test_overdraft_rejected(self, backend, ledger, account):
        ledger.fund(account.address.value, 100)
        tx = signed_tx(backend, account, "ext", 101, ledger.fresh_nonce())
        with pytest.raises(InsufficientFunds):
            ledger.spend(tx)
        assert ledger.balance(account.address.value) == 100

    def test_nonce_replay_rejected(self, backend, ledger, account):
        ledger.fund(account.address.value, 200)
        nonce = ledger.fresh_nonce()
        tx = signed_tx(backend, account, "ext", 50, nonce)
        ledger.spend(tx)
        with pytest.raises(NonceReplay):
            ledger.spend(tx)
        assert ledger.balance(account.address.value) == 150

    def test_plain_account_cannot_spend(self, backend, ledger, account):
        ledger.ensure_plain_account("wallet")
        ledger.fund("wallet", 100)
        tx = signed_tx(backend, account, "ext", 1, ledger.fresh_nonce())
        hijack = ChainTx("wallet", "ext", 100, 7, sig_user=tx.sig_user, sig_server=tx.sig_server)
        with pytest.raises(MissingSignature):
            ledger.spend(hijack)

    @pytest.mark.parametrize("amount", [0, -5, 1.5, True, "5"])
    def test_non_positive_spend_rejected(self, backend, ledger, account, amount):
        ledger.fund(account.address.value, 100)
        tx = signed_tx(backend, account, "ext", amount, ledger.fresh_nonce())
        with pytest.raises(NonPositiveAmount):
            ledger.spend(tx)

    @pytest.mark.parametrize("dest", [5, "", "a b", "ext\n1", "\u3000", None])
    def test_destination_that_is_no_token_is_refused(self, backend, ledger, account, dest):
        # a dump line is `address balance`, so a destination is one word
        ledger.fund(account.address.value, 100)
        dump = ledger.dump()
        tx = signed_tx(backend, account, dest, 100, ledger.fresh_nonce())
        with pytest.raises(BadDestination):
            ledger.spend(tx)
        assert ledger.dump() == dump


class TestConservation:
    def test_supply_constant_under_random_spends(self, backend, ledger, rng):
        bundles = [backend.gen_multisig(rng) for _ in range(4)]
        for b in bundles:
            ledger.register(b.address.value, b.verify_user, b.verify_server)
            ledger.fund(b.address.value, 1000)
        supply = ledger.total_supply()
        assert supply == 4000
        for _ in range(200):
            src = rng.choice(bundles)
            dst = rng.choice(bundles + [None])
            dest = "ext" if dst is None else dst.address.value
            amount = rng.randint(1, 50)
            tx = signed_tx(backend, src, dest, amount, ledger.fresh_nonce())
            try:
                ledger.spend(tx)
            except InsufficientFunds:
                pass
            assert ledger.total_supply() == supply


def test_dump_lists_sorted_balances(backend, ledger, rng):
    ledger.ensure_plain_account("b")
    ledger.ensure_plain_account("a")
    ledger.fund("a", 5)
    ledger.fund("b", 7)
    assert ledger.dump() == "a 5\nb 7\n"
