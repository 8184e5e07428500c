"""Atomic file writes (temp file beside the target, then rename), UTF-8
reads, CSV table checks whose errors name the line, a probability's
12-digit text, and `placed`, which places a rule's message.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise an OSError as one naming `path`, not the temp file beside it."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file whose contents appear at `path` only if the block succeeds.

    The temp file beside `path` gets a random name and open()'s "x" mode, so
    it never reuses a file and gets open()'s mode, 0o666 less the umask. It
    is deleted when the block raises, so a failed write never leaves a
    partial file at `path`. An OSError from creating the temp file or
    renaming it onto `path` names `path`.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    with _naming(path):
        f = open(tmp, "xb")
    try:
        with f:
            yield f
        with _naming(path):
            os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    with atomic_writer(path) as f:
        f.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_lines(path: str | Path, error: type[ValueError] = ValueError) -> list[str]:
    """The file's lines; a byte that is not UTF-8 raises `error` naming its line.

    Lines end at "\n" or "\r\n" only, as the UTF-8 error counts them:
    str.splitlines would also break at form feeds, "\x85", "\u2028" and
    others, and every later line number would drift.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {lineno}: not UTF-8 ({exc})") from None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline ends the last line; it starts none
    return lines


def split_table(
    path: str | Path, lines: list[str], header: list[str], rows: int, error: type
) -> Iterator[list[str]]:
    """The fields of each row of a CSV table whose line 1 is `header`.

    Checks the header, then that `rows` rows follow it, then, as it yields
    row i (line i + 2), that the row is as wide as the header and starts
    with str(i). The first fault raises `error` naming its line. Column k
    is field k + 1, after the row index, in the header as in the rows.
    """
    got = (lines or [""])[0].split(",")
    for k, (want, text) in enumerate(zip(header, got)):
        if text != want:
            column = f"column {k - 1}" if k else "row index"
            raise error(
                f"{path}: line 1: {column}: expected header {want!r}, got {text!r}"
            )
    width = len(header)
    if len(got) != width:
        raise error(f"{path}: line 1: expected {width} fields, got {len(got)}")
    if len(lines) != rows + 1:
        at = min(len(lines), rows + 1) + 1  # after the last row, or the first extra
        raise error(f"{path}: line {at}: expected {rows} rows, got {len(lines) - 1}")
    for i in range(rows):
        fields = lines[i + 1].split(",")
        if len(fields) != width:
            raise error(
                f"{path}: line {i + 2}: expected {width} fields, got {len(fields)}"
            )
        # Exactly the text the writers write: int() would also take "+1",
        # " 1", "0_1" and "01".
        if fields[0] != str(i):
            raise error(
                f"{path}: line {i + 2}: row index: expected {str(i)!r} "
                f"(ascending, gap-free), got {fields[0]!r}"
            )
        yield fields


def format_12g(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(texts, index): texts[index[k]] == format(values[k], ".12g").

    index has the shape of values. Each distinct float is formatted once;
    floats are told apart by their bits, so -0.0 and 0.0 keep their own
    texts.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    # np.unique would do, but numpy 2.4's imports numpy.ma (0.5 MB) on first use
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.shape, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    texts = [format(p, ".12g") for p in distinct.view(np.float64).tolist()]
    return texts, np.searchsorted(distinct, bits)


def round_12g(values: np.ndarray) -> np.ndarray:
    """float(format(p, ".12g")) for every value, in the shape of values."""
    texts, index = format_12g(values)
    return np.array([float(t) for t in texts])[index]


def placed(
    path: str | Path, line: int | None, exc: ValueError, column: int | None = None
) -> str:
    """`<path>: line k: field '<name>': <message>` for a rule's ValueError,
    whose message starts with the name of what it rejects. A JSON sidecar has
    no line; a CSV matrix cell gives `column w` in place of the field."""
    name = str(exc).split(" ", 1)[0]
    where = f"field {name!r}" if column is None else f"column {column}"
    return f"{path}: {'' if line is None else f'line {line}: '}{where}: {exc}"
