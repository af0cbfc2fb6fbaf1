"""The tie-break policies every proposal-based algorithm shares.

Token dropping (Theorems 4.1 and 4.7), the hypergraph game (Theorem 7.1)
and the phase algorithms built on them (Theorems 5.1, 7.3 and 7.5) break
ties among several candidates the same three ways.
"""

#: Supported tie-breaking policies for choosing among several candidates.
TIE_BREAK_POLICIES = ("min", "max", "random")


def check_tie_break(policy: str) -> None:
    """Reject an unknown tie-break policy before any work starts.

    Every entry point that takes ``tie_break`` calls this up front, so a
    bogus policy fails on every input, not only once a tie is drawn.
    """
    if policy not in TIE_BREAK_POLICIES:
        raise ValueError(
            f"unknown tie-break policy {policy!r}; "
            f"expected one of {TIE_BREAK_POLICIES}"
        )
