"""Accounts and access keys for the simulated platforms.

Azure-style accounts hold a 256-bit shared secret ("After creating an
account, the user will receive a 256-bit secret key", §2.2); AWS-style
accounts hold an access-key-id / secret pair used to sign manifest
files.  One directory serves all platform models.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.drbg import HmacDrbg
from ..errors import AuthenticationError, StorageError

__all__ = ["Account", "AccountDirectory"]


@dataclass(frozen=True)
class Account:
    """A platform account: name plus its shared secret key."""

    name: str
    secret_key: bytes  # 32 bytes = the paper's 256-bit secret
    access_key_id: str

    def __post_init__(self) -> None:
        if len(self.secret_key) != 32:
            raise StorageError("account secret key must be 256 bits")


class AccountDirectory:
    """Server-side account registry with key lookup."""

    def __init__(self, rng: HmacDrbg) -> None:
        self._rng = rng.fork("accounts")
        self._by_name: dict[str, Account] = {}
        self._by_access_key: dict[str, Account] = {}

    def create(self, name: str) -> Account:
        """Provision an account (the Azure-portal step)."""
        if name in self._by_name:
            raise StorageError(f"account {name!r} already exists")
        access_key_id = "AK" + self._rng.generate(8).hex().upper()
        account = Account(name=name, secret_key=self._rng.generate(32), access_key_id=access_key_id)
        self._by_name[name] = account
        self._by_access_key[access_key_id] = account
        return account

    def by_name(self, name: str) -> Account:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise AuthenticationError(f"unknown account {name!r}") from exc

    def by_access_key(self, access_key_id: str) -> Account:
        try:
            return self._by_access_key[access_key_id]
        except KeyError as exc:
            raise AuthenticationError(f"unknown access key {access_key_id!r}") from exc
