"""Binary (+1/-1) sequences and the shared text format.

BinarySequence is the one representation of a sequence in the package: a
read-only int64 array, validated once on construction, which every
transform uses as it is.  A sequence is serialized as one line of '+' and
'-' characters; lines starting with '#' are comments.  A pair file is two
non-comment lines, read and budget-checked one line at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import budget

_PLUS, _MINUS = ord("+"), ord("-")


@dataclass(frozen=True, eq=False)
class BinarySequence:
    """Finite vector of +1/-1 terms, read as a polynomial's coefficients.

    terms is a read-only 1-D int64 array, in which integer arithmetic on terms
    stays exact: golay's Turyn step computes in it, and sum(f.terms) would
    wrap past 127 in int8 (the kernel and engines copy to float64 or int64).
    The constructor takes any +-1 iterable or array and stores its own copy.
    """

    terms: np.ndarray

    def __post_init__(self):
        raw = self.terms
        arr = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw))
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("sequence must be a 1-D array of at least one term")
        if arr.dtype.kind not in "biuf" or not (np.abs(arr) == 1).all():
            raise ValueError("sequence terms must be +1 or -1")
        terms = arr.astype(np.int64)  # a copy, so no caller holds a writeable alias
        terms.flags.writeable = False
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if not isinstance(other, BinarySequence):
            return NotImplemented
        return np.array_equal(self.terms, other.terms)

    def __hash__(self) -> int:
        return hash(self.terms.tobytes())

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, j):
        return self.terms[j]

    def __neg__(self) -> "BinarySequence":
        return BinarySequence(-self.terms)

    def to_line(self) -> str:
        # uint8 all through ('-' - 2 is '+'), and one expression, so that
        # at most two term-length temporaries are alive at once
        return (_MINUS - 2 * (self.terms > 0).view(np.uint8)).tobytes().decode("ascii")


def parse_line(line: str) -> BinarySequence:
    line = line.strip()
    codes = np.frombuffer(line.encode(), dtype=np.uint8)
    plus = codes == _PLUS
    if not line or not (plus | (codes == _MINUS)).all():
        raise ValueError(f"sequence line must be nonempty '+'/'-' text, got {line!r}")
    return BinarySequence(np.where(plus, 1, -1))


def load_pair(path) -> tuple[BinarySequence, BinarySequence]:
    """The two non-comment, non-blank lines of a pair file, read in pieces of
    at most exact length + 2 characters: a line of more terms than that budget
    is refused before anything is built, and lines past the second are dropped."""
    size = budget.BUDGETS["exact length"].limit + 2
    seqs, found, head, n, end = [], 0, "", 0, 0
    with open(path, "r", encoding="ascii") as fh:  # each \r\n or \r is read as \n
        for piece in chain(iter(lambda: fh.readline(size), ""), "\n"):
            for part in piece.splitlines(keepends=True):  # lines end as str.splitlines ends them
                text = part if n else part.lstrip()  # the line from its first term
                end = n + len(text.rstrip()) if text.strip() else end  # the line's terms so far
                n, head = n + len(text), head + text if len(head) < size else head
                if part[-1:].splitlines() != [""]:  # the line goes on in the next piece
                    continue
                if end and not head.startswith("#"):
                    budget.check("exact length", end)
                    found, seqs = found + 1, [*seqs, parse_line(head)][:2]  # later lines: parsed, not kept
                head, n, end = "", 0, 0
    if found != 2:
        raise ValueError(f"pair file must contain exactly 2 sequences, found {found}")
    return seqs[0], seqs[1]


def dump_sequences(seqs, comment: str | None = None) -> str:
    lines = [f"# {c}" for c in (comment or "").splitlines()] + [s.to_line() for s in seqs]
    return "\n".join(lines) + "\n"
