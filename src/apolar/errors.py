"""Shared exception types and the one resource guard policy."""

# Largest catalecticant or projection-map dimension a command builds unless
# its ``max_dim`` parameter or ``--max-dim`` flag says otherwise.
DEFAULT_MATRIX_GUARD = 20000
# Largest degree-d basis ``locus enumerate`` searches for admissible supports;
# the search follows its output, which can grow exponentially with the basis.
DEFAULT_ENUMERATION_GUARD = 20
# Most operator supports the equal-image class scan walks.
DEFAULT_SUBSET_GUARD = 1 << 16


class GuardExceeded(Exception):
    """A resource guard (basis size, matrix dimension, subset count) was hit.

    Guards exist so that desk-scale commands fail fast instead of grinding;
    every guard has an override parameter or CLI flag.
    """


def check_guard(what: str, size: int, limit: int, override: str) -> None:
    """Refuse a ``size`` above ``limit``.

    Callers compute ``size`` by arithmetic, before enumerating or allocating
    anything of that size; ``override`` names the parameter or flag that
    raises the limit.
    """
    if size > limit:
        raise GuardExceeded(
            f"{what} {size} exceeds the guard of {limit}; "
            f"raise {override} to override"
        )
