"""Exceptions shared across modules."""

from __future__ import annotations


class ExtensionKindMismatchError(ValueError):
    """A goods-only extension was requested on a chores instance, or vice versa."""


class UnsupportedExtensionError(ValueError):
    """The requested criterion/extension pair has no complete decision procedure."""


class BudgetExceededError(RuntimeError):
    """A search ran out of its state budget; the answer is undecided."""
