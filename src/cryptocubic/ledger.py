"""Simulated on-chain ledger.

Account-balance model with integer cents.  Multisig accounts register both
verify keys and a spend clears only when the user-leg and server-leg
signatures both check out over (source, destination, amount, nonce).  Plain
accounts (external destinations, exterior funding wallets) have no keys and
cannot be spent from inside a simulation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .backend import CryptoBackend, Signature, VerifyKey


class LedgerError(Exception):
    pass


class DuplicateAddress(LedgerError):
    pass


class UnknownAddress(LedgerError):
    pass


class NonPositiveAmount(LedgerError):
    """An amount that is not a positive int of cents."""


class BadDestination(LedgerError):
    """A destination no script token could be: not a str, empty, or with whitespace."""


class InsufficientFunds(LedgerError):
    pass


class MissingSignature(LedgerError):
    pass


class BadSignature(LedgerError):
    pass


class NonceReplay(LedgerError):
    pass


def check_amount(amount_cents: object) -> None:
    if type(amount_cents) is not int or amount_cents <= 0:  # a bool is no amount
        raise NonPositiveAmount(f"amount must be a positive int of cents, got {amount_cents!r}")


def check_destination(destination: object) -> None:
    if not isinstance(destination, str) or destination.split() != [destination]:
        raise BadDestination(f"destination must be one word with no whitespace, got {destination!r}")
    try:  # a signature covers the destination's UTF-8, which a lone surrogate has none of
        destination.encode()
    except UnicodeEncodeError:
        raise BadDestination(f"destination must be encodable as UTF-8, got {destination!r}") from None


@dataclass(frozen=True)
class ChainTx:
    source: str
    destination: str
    amount_cents: int
    nonce: int
    sig_user: Signature | None = None
    sig_server: Signature | None = None

    def signing_message(self) -> bytes:
        return f"{self.source}|{self.destination}|{self.amount_cents}|{self.nonce}".encode()


@dataclass
class _Account:
    balance: int = 0
    verify_user: VerifyKey | None = None
    verify_server: VerifyKey | None = None
    used_nonces: set[int] = field(default_factory=set)


class Ledger:
    def __init__(self, backend: CryptoBackend) -> None:
        self._backend = backend
        self._accounts: dict[str, _Account] = {}
        self._next_tx_id = 1
        self._next_nonce = 1
        self.version = 0  # bumped by every call that may move a balance

    # -- accounts --------------------------------------------------------

    def register(self, address: str, verify_user: VerifyKey, verify_server: VerifyKey) -> None:
        if address in self._accounts:
            raise DuplicateAddress(f"address {address!r} already registered")
        self._accounts[address] = _Account(0, verify_user, verify_server)

    def ensure_plain_account(self, address: str) -> None:
        self._accounts.setdefault(address, _Account())

    def balance(self, address: str) -> int:
        account = self._accounts.get(address)
        if account is None:
            raise UnknownAddress(f"no account {address!r}")
        return account.balance

    def fund(self, address: str, amount_cents: int) -> None:
        """Credit from an exterior wallet; models an on-chain deposit."""
        check_amount(amount_cents)
        account = self._accounts.get(address)
        if account is None:
            raise UnknownAddress(f"no account {address!r}")
        account.balance += amount_cents
        self.version += 1

    # -- spending --------------------------------------------------------

    def fresh_nonce(self) -> int:
        nonce = self._next_nonce
        self._next_nonce += 1
        return nonce

    def spend(self, tx: ChainTx) -> int:
        account = self._accounts.get(tx.source)
        if account is None:
            raise UnknownAddress(f"no account {tx.source!r}")
        check_amount(tx.amount_cents)
        check_destination(tx.destination)
        if account.verify_user is None or account.verify_server is None:
            raise MissingSignature(f"account {tx.source!r} has no spend keys")
        if tx.sig_user is None or tx.sig_server is None:
            raise MissingSignature("a spend needs both the user and server signatures")
        if tx.nonce in account.used_nonces:
            raise NonceReplay(f"nonce {tx.nonce} already spent from {tx.source!r}")
        message = tx.signing_message()
        if not self._backend.verify(account.verify_user, message, tx.sig_user):
            raise BadSignature("user-leg signature rejected")
        if not self._backend.verify(account.verify_server, message, tx.sig_server):
            raise BadSignature("server-leg signature rejected")
        if tx.amount_cents > account.balance:
            raise InsufficientFunds(
                f"{tx.source!r} holds {account.balance}, cannot move {tx.amount_cents}"
            )
        self.ensure_plain_account(tx.destination)
        account.used_nonces.add(tx.nonce)
        account.balance -= tx.amount_cents
        self._accounts[tx.destination].balance += tx.amount_cents
        tx_id = self._next_tx_id
        self._next_tx_id += 1
        self.version += 1
        return tx_id

    # -- inspection ------------------------------------------------------

    def total_supply(self) -> int:
        return sum(a.balance for a in self._accounts.values())

    def dump(self) -> str:
        lines = [f"{addr} {acct.balance}" for addr, acct in sorted(self._accounts.items())]
        return "\n".join(lines) + "\n"
