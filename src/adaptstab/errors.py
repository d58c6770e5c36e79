"""Exceptions shared across the package."""

from __future__ import annotations

__all__ = ["ContradictionError", "ResourceGuardError"]


class ContradictionError(RuntimeError):
    """A forced measurement outcome contradicts a deterministic one."""


class ResourceGuardError(RuntimeError):
    """An operation was refused because its input exceeds a size guard.

    ``name`` names the guard, ``limit`` is its cap and ``value`` the size asked for.
    """

    def __init__(self, message: str, *, name: str, limit: int, value: int):
        super().__init__(message)
        self.name, self.limit, self.value = name, limit, value
