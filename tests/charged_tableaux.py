"""Charged tableaux, for the tests only: the filling of a shape by the
residues c - r + i mod (n + 1) that ``tableaux.shape_character`` counts
row by row, and the regularity that ``tableaux.is_mw`` checks first."""

from typing import Iterator, Optional

from affmult.partitions import canonical, part_multiplicities
from affmult.records import Record
from affmult.tableaux import shape_character


class ExtendedTableau(Record):
    """Filling of a Young diagram by residues in [0, n]."""

    __slots__ = ("n", "shape", "charge")

    def __init__(self, n: int, shape: tuple, charge: Optional[int] = None):
        # charge is set when contents follow the charge rule
        super().__init__(n, shape, charge)

    def content(self, r: int, c: int) -> int:
        """Entry at row r, column c (1-based)."""
        if not (1 <= r <= len(self.shape) and 1 <= c <= self.shape[r - 1]):
            raise IndexError("box outside the diagram")
        if self.charge is None:
            raise ValueError("tableau has no charge rule")
        return (c - r + self.charge) % (self.n + 1)

    def boxes(self) -> Iterator[tuple]:
        for r, row_len in enumerate(self.shape, start=1):
            for c in range(1, row_len + 1):
                yield (r, c)


def charged_tableau(shape, i: int, n: int) -> ExtendedTableau:
    """The unique i-charged tableau on the given shape."""
    return ExtendedTableau(n, canonical(shape), i % (n + 1))


def content_character(T: ExtendedTableau) -> tuple:
    """Vector counting boxes of each residue class."""
    return shape_character(T.shape, T.charge, T.n)


def is_regular(shape, n: int) -> bool:
    """True iff every part size repeats at most n times."""
    return all(r <= n for _, r in part_multiplicities(canonical(shape)))
