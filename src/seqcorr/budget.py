"""Size budgets: the one table of limits on how large an input may be.

Each entry maps a budgeted quantity to its limit, the phrase its refusal
uses and the reason for the limit.  Composite entry points check every size
they can derive from their parameters before building anything; the public
engines check again on entry.
"""

from typing import NamedTuple


class Budget(NamedTuple):
    limit: int
    phrase: str
    reason: str


BUDGETS = {
    "exact length": Budget(1 << 20, "exact-arithmetic budget", "int64 sums C(s)^2 <= 2l^3/3 stay below 2^63"),
    "sequence length": Budget(1 << 24, "field-size limit", "one int64 per term; 2^n - 1 <= 2^24 iff n <= 24"),
    "shift-search length": Budget(1 << 14, "shift-search budget", "l shifts in O(l log^2 l) at m = l, O(l m) walked"),
    "shift-search window": Budget(1 << 15, "shift-search budget", "the resized length m a shift search scores"),
    "pair-grid length": Budget(512, "pair-grid budget", "one l x l float64 grid in O(l^2), then diagonal"),
    "census half-length": Budget(20, "census length budget", "tail keys of 2^k sign rows are below k! < 2^63"),
    "baseline work": Budget(1 << 26, "baseline budget", "trials * max(length, 64), 0.12-0.4 us a unit"),
}


def check(name: str, size, shown: str | None = None) -> None:
    """Raise ValueError if size is over the named budget; shown, if given,
    is how the message writes the size."""
    entry = BUDGETS[name]
    if size > entry.limit:
        raise ValueError(f"{name} {shown or size} exceeds the {entry.phrase} {entry.limit}")
