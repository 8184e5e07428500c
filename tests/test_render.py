import pytest

from qperc.render import pattern_grid, render_ascii, render_pgm


def test_reference_pattern_two_qubits():
    grid = pattern_grid(12, 2)
    assert render_ascii(grid) == "██\n··"


def test_all_clear_pattern():
    grid = pattern_grid(0, 2)
    assert render_ascii(grid) == "··\n··"


def test_pattern_626_bit_layout():
    grid = pattern_grid(626, 4)
    assert grid.rows == 4 and grid.cols == 4
    flat = "".join(str(bit) for row in grid.cells for bit in row)
    assert flat == "0000001001110010"


def test_grid_defaults_are_square_for_even_n():
    assert pattern_grid(0, 2).rows == 2
    assert pattern_grid(0, 4).cols == 4


def test_grid_explicit_shape():
    grid = pattern_grid(626, 4, rows=2, cols=8)
    assert grid.rows == 2
    flat = "".join(str(bit) for row in grid.cells for bit in row)
    assert flat == "0000001001110010"


@pytest.mark.parametrize("n", [-1, 0, 5])
def test_grid_rejects_n_out_of_range(n):
    with pytest.raises(ValueError, match=f"^n must be between 1 and 4, got {n}$"):
        pattern_grid(0, n)


def test_grid_rejects_wrong_area():
    with pytest.raises(ValueError):
        pattern_grid(0, 2, rows=2, cols=3)
    with pytest.raises(ValueError):
        pattern_grid(0, 2, rows=1, cols=3)
    with pytest.raises(ValueError):
        pattern_grid(0, 2, rows=0, cols=4)


def test_grid_requires_both_dimensions_or_neither():
    with pytest.raises(ValueError):
        pattern_grid(0, 2, rows=2)


def test_grid_odd_n_needs_explicit_shape():
    with pytest.raises(ValueError):
        pattern_grid(0, 1)
    grid = pattern_grid(2, 1, rows=1, cols=2)
    assert grid.cells == ((1, 0),)


def test_grid_rejects_out_of_range_value():
    with pytest.raises(ValueError):
        pattern_grid(16, 2)


def test_pgm_bytes():
    data = render_pgm(pattern_grid(12, 2))
    assert data == b"P5\n2 2\n255\n" + bytes([0, 0, 255, 255])


def test_pgm_dimensions_follow_grid():
    data = render_pgm(pattern_grid(626, 4, rows=2, cols=8))
    assert data.startswith(b"P5\n8 2\n255\n")
    assert len(data) == len(b"P5\n8 2\n255\n") + 16
