"""Binary (+1/-1) sequences and the shared text format.

BinarySequence is the one representation of a sequence in the package: a
read-only int64 array, validated once on construction (the one +-1 check),
which every transform uses as it is.  A sequence is a line of '+' and '-',
bytes 44 -+ 1: term t is byte 44 - t, and byte b term 44 - b.  A pair file
is two lines besides '#' comments and blanks, read whole within its size
budget, each checked against exact length before it is parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budget


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
        # cast to uint8 as it is computed, so no int64 temporary
        return np.subtract(44, self.terms, dtype=np.uint8, casting="unsafe").tobytes().decode("ascii")


def parse_line(line: str) -> BinarySequence:
    line = line.strip()  # other bytes are not +-1 in int8; a lone surrogate fails to encode
    try:
        return BinarySequence(np.subtract(44, np.frombuffer(line.encode(), np.uint8), dtype=np.int8, casting="unsafe"))
    except ValueError:
        raise ValueError(f"sequence line must be nonempty '+'/'-' text, got {line!r}") from None


def load_pair(path) -> tuple[BinarySequence, BinarySequence]:
    """The two non-comment, non-blank lines of a pair file, read in one piece
    of at most the pair file size budget: a longer or endless file is refused
    after that many characters, and a line of more terms than exact length
    before anything is built from it.  Lines past the second are parsed for
    their errors and dropped."""
    size = budget.BUDGETS["pair file size"].limit
    with open(path, "r", encoding="ascii") as fh:  # each \r\n or \r is read as \n
        text = fh.read(size + 1)
    budget.check("pair file size", len(text), f"at least {len(text)}")
    seqs, found = [], 0
    for line in map(str.strip, text.splitlines()):
        if line and not line.startswith("#"):
            budget.check("exact length", len(line))
            found, seqs = found + 1, [*seqs, parse_line(line)][:2]  # later lines: parsed, not kept
    if found != 2:
        raise ValueError(f"pair file must contain exactly 2 sequences, found {found}")
    return seqs[0], seqs[1]


def dump_sequences(seqs, comment: str | None = None) -> str:
    lines = [f"# {c}" for c in (comment or "").splitlines()] + [s.to_line() for s in seqs]
    return "\n".join(lines) + "\n"
