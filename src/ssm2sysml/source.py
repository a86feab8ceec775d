"""Source positions shared by both front ends."""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
class SourceSpan:
    """A half-open region of a source file, 1-based lines and columns."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if (self.start_line, self.start_col) > (self.end_line, self.end_col):
            raise ValueError("span start must not follow span end")

    @staticmethod
    def of_offsets(file: str, lines: list[int], start: int, end: int) -> "SourceSpan":
        """The span of characters `start` to `end`; `lines` holds the line-start offsets."""
        first = bisect_right(lines, start)
        last = bisect_right(lines, end, first)
        return SourceSpan(
            file, first, start - lines[first - 1] + 1, last, end - lines[last - 1] + 1
        )

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"
