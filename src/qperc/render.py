"""Render an encoded value's bit pattern as a small image.

The m = 2^n bits of a value, MSB first, fill a rows x cols grid in
row-major order: position j lands at row j // cols, column j % cols, so
the top-left cell is the most significant bit. ASCII output draws set bits
as a full block and clear bits as a middle dot; PGM output is the binary
P5 format with set bits black on white.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rules import check_int, check_value

FILLED_CHAR = "█"
EMPTY_CHAR = "·"

RENDER_FORMATS = ("ascii", "pgm")


@dataclass(frozen=True)
class PatternGrid:
    value: int
    rows: int
    cols: int
    cells: tuple[tuple[int, ...], ...]


def pattern_grid(
    value: int, n: int, rows: int | None = None, cols: int | None = None
) -> PatternGrid:
    """Arrange the m-bit expansion of `value` into a grid.

    rows * cols must equal m = 2^n. When both are omitted and n is even the
    grid defaults to square (2^(n/2) per side); odd n has no square layout,
    so both dimensions are then required.
    """
    m = check_value(value, n, "value")
    value = int(value)
    if rows is None and cols is None:
        if n % 2:
            raise ValueError(
                f"no square default for odd n={n}; pass rows and cols"
            )
        rows = cols = 1 << (n // 2)
    if rows is None or cols is None:
        raise ValueError("pass both rows and cols, or neither")
    check_int("rows", rows)
    check_int("cols", cols)
    if rows < 1 or cols < 1 or rows * cols != m:
        raise ValueError(
            f"rows*cols must equal {m} for n={n}, got {rows}x{cols}"
        )
    bits = [(value >> (m - 1 - j)) & 1 for j in range(m)]
    cells = tuple(
        tuple(bits[r * cols : (r + 1) * cols]) for r in range(rows)
    )
    return PatternGrid(value=value, rows=rows, cols=cols, cells=cells)


def render_ascii(grid: PatternGrid) -> str:
    """One text line per row, no trailing newline."""
    return "\n".join(
        "".join(FILLED_CHAR if bit else EMPTY_CHAR for bit in row)
        for row in grid.cells
    )


def render_pgm(grid: PatternGrid) -> bytes:
    """Binary PGM (P5, maxval 255): set bits are black, clear bits white."""
    header = f"P5\n{grid.cols} {grid.rows}\n255\n".encode("ascii")
    pixels = bytes(0 if bit else 255 for row in grid.cells for bit in row)
    return header + pixels
