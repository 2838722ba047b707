"""Shared exception types and the default resource guard."""

# Largest catalecticant or projection-map dimension a command builds unless
# its ``max_dim`` parameter or ``--max-dim`` flag says otherwise.
DEFAULT_MATRIX_GUARD = 20000


class GuardExceeded(Exception):
    """A resource guard (basis size, matrix dimension, subset count) was hit.

    Guards exist so that desk-scale commands fail fast instead of grinding;
    every guard has an override parameter or CLI flag.
    """


class InternalInvariantError(AssertionError):
    """An internal consistency check failed; always a bug, never user error."""
