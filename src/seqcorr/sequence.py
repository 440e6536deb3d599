"""Binary (+1/-1) sequences and the shared text format.

BinarySequence is the one representation of a sequence in the package: a
read-only int64 array, validated once on construction, which the
correlation kernel and every transform use as it is.  A sequence is
serialized as one line of '+' and '-' characters; lines
starting with '#' are comments.  A pair file is two non-comment lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PLUS, _MINUS = ord("+"), ord("-")


@dataclass(frozen=True, eq=False)
class BinarySequence:
    """Finite vector of +1/-1 terms, read as a polynomial's coefficients.

    terms is a read-only 1-D int64 array: the dtype the correlation kernel
    computes in and states its exactness bound for (int8 terms would
    overflow silently in np.correlate).  The constructor takes any +-1
    iterable or array and always stores its own copy.
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
        return np.where(self.terms > 0, _PLUS, _MINUS).astype(np.uint8).tobytes().decode("ascii")


def parse_line(line: str) -> BinarySequence:
    line = line.strip()
    codes = np.frombuffer(line.encode(), dtype=np.uint8)
    plus = codes == _PLUS
    if not line or not (plus | (codes == _MINUS)).all():
        raise ValueError(f"sequence line must be nonempty '+'/'-' text, got {line!r}")
    return BinarySequence(np.where(plus, 1, -1))


def parse_sequences(text: str) -> list[BinarySequence]:
    """All non-comment, non-blank lines of a sequence file."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(parse_line(line))
    return out


def load_pair(path) -> tuple[BinarySequence, BinarySequence]:
    with open(path, "r", encoding="ascii") as fh:
        seqs = parse_sequences(fh.read())
    if len(seqs) != 2:
        raise ValueError(f"pair file must contain exactly 2 sequences, found {len(seqs)}")
    return seqs[0], seqs[1]


def dump_sequences(seqs, comment: str | None = None) -> str:
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.extend(s.to_line() for s in seqs)
    return "\n".join(lines) + "\n"
