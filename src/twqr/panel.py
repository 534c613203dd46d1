"""Two-way panel data model and CSV ingestion.

A :class:`PanelArray` holds one observation per (g, h) cell of a G-by-H
grid. Cells may be missing: every downstream estimator sums over present
cells only and normalizes by realized counts. Raw cluster labels are mapped
to dense ``0..G-1`` / ``0..H-1`` indices in first-appearance order, so a
given file always loads to the same array.

A CSV's body is cut into byte ranges of about ``_RANGE_BYTES``, each ending
where numpy's reader ends a record, and parsed straight into the panel's
four arrays on every CPU the process may run on (``_usable_cpus``), as
``write_csv`` formats its chunks of rows. Neither the arrays nor the written
bytes depend on the worker count. ``_forked``, which starts those workers,
is also the Monte Carlo engine's replication map, and the only place twqr
forks. ``_replacing``, through which twqr writes every file, leaves each
file whole or as it was.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import functools
import io
import itertools
import mmap
import multiprocessing
import os
import re
import secrets
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateCell,
    EmptyFile,
    InputError,
    MissingColumn,
    ParseFailure,
)

__all__ = [
    "PanelArray",
    "ValidationReport",
    "load_csv",
    "read_header",
    "write_csv",
    "validate",
]

RANK_TOL = 1e-10  # relative to the largest singular value


@dataclass(frozen=True)
class PanelArray:
    """Immutable two-way array of (y, x) cells.

    Attributes
    ----------
    G, H : int
        Number of row and column clusters.
    g_idx, h_idx : ndarray of int, shape (n,)
        Dense cluster index of each present cell.
    y : ndarray, shape (n,)
        Responses.
    x : ndarray, shape (n, d), d >= 1
        Regressors. An intercept is never injected; supply a constant
        column explicitly.
    g_labels, h_labels : tuple
        Raw labels in first-appearance order; ``g_labels[g_idx[i]]`` is the
        raw label of observation i.

    The four arrays are stored C-contiguous, as intp (indices) and float64
    (y, x), and read-only. An argument that already has that layout and
    dtype is stored as it is, not copied, so it becomes read-only in the
    caller's hands too; any other argument (a list, an int or float32
    array, a strided view) is converted into a new array and the caller's
    object stays writable.
    """

    G: int
    H: int
    g_idx: np.ndarray
    h_idx: np.ndarray
    y: np.ndarray
    x: np.ndarray
    g_labels: tuple = field(default=())
    h_labels: tuple = field(default=())

    def __post_init__(self):
        if not self.g_labels:
            object.__setattr__(self, "g_labels", tuple(range(self.G)))
        if not self.h_labels:
            object.__setattr__(self, "h_labels", tuple(range(self.H)))
        if len(self.g_labels) != self.G or len(self.h_labels) != self.H:
            raise DimensionMismatch("g_labels and h_labels must number G and H")
        g_idx = np.ascontiguousarray(np.asarray(self.g_idx, dtype=np.intp))
        h_idx = np.ascontiguousarray(np.asarray(self.h_idx, dtype=np.intp))
        y, x = _values(self.y, self.x)
        n = y.shape[0]
        if g_idx.shape != (n,) or h_idx.shape != (n,) or x.shape[0] != n:
            raise DimensionMismatch("g_idx, h_idx, y, x must share leading length")
        if n == 0:
            raise InputError("panel has no cells")
        if g_idx.min() < 0 or g_idx.max() >= self.G:
            raise InputError("g_idx out of range for G")
        if h_idx.min() < 0 or h_idx.max() >= self.H:
            raise InputError("h_idx out of range for H")
        _, first = np.unique(g_idx * self.H + h_idx, return_index=True)
        if len(first) < n:
            repeats = np.ones(n, dtype=bool)
            repeats[first] = False
            row = np.argmax(repeats)  # the first row that repeats an earlier cell
            raise DuplicateCell(self.g_labels[g_idx[row]], self.h_labels[h_idx[row]])
        _check_finite(y, x)
        for arr in (g_idx, h_idx, y, x):
            arr.setflags(write=False)
        object.__setattr__(self, "g_idx", g_idx)
        object.__setattr__(self, "h_idx", h_idx)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @classmethod
    def _complete_grid(cls, G: int, H: int, y, x) -> PanelArray:
        """Panel of every cell of the G-by-H grid, in row-major order.

        The indices and labels come from the cached ``_grid(G, H)``, which
        is complete by construction, so only the checks that depend on y
        and x run, each raising what the public constructor raises.
        """
        g_idx, h_idx, g_labels, h_labels = _grid(G, H)
        y, x = _values(y, x)
        if y.shape != g_idx.shape or x.shape[0] != g_idx.shape[0]:
            raise DimensionMismatch("g_idx, h_idx, y, x must share leading length")
        _check_finite(y, x)
        y.setflags(write=False)
        x.setflags(write=False)
        panel = object.__new__(cls)
        panel.__dict__.update(G=G, H=H, g_idx=g_idx, h_idx=h_idx, y=y, x=x,
                              g_labels=g_labels, h_labels=h_labels)
        return panel

    @property
    def n(self) -> int:
        """Number of present cells."""
        return self.y.shape[0]

    @property
    def d(self) -> int:
        """Regressor dimension."""
        return self.x.shape[1]

    def cell_set(self) -> set:
        """Set of (raw g, raw h, y, x-tuple) rows; order-insensitive identity."""
        return {
            (self.g_labels[g], self.h_labels[h], float(yv), tuple(float(v) for v in xv))
            for g, h, yv, xv in zip(self.g_idx, self.h_idx, self.y, self.x)
        }


def _values(y, x) -> tuple[np.ndarray, np.ndarray]:
    """y and x as C-contiguous float64 arrays, a vector and a matrix."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise DimensionMismatch("x must be a 2-D array of shape (n, d), d >= 1")
    if y.ndim != 1:
        raise DimensionMismatch("y must be a 1-D array of shape (n,)")
    return y, x


def _check_finite(y: np.ndarray, x: np.ndarray) -> None:
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise InputError("y and x entries must all be finite")


@functools.lru_cache(maxsize=1)
def _grid(G: int, H: int) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """Read-only ``g_idx`` and ``h_idx`` of the complete G-by-H grid,
    row-major, and its labels ``range(G)`` and ``range(H)`` as tuples. Only
    the last is kept: a 500-by-500 grid's indices take 4 MB."""
    g_idx = np.repeat(np.arange(G, dtype=np.intp), H)
    h_idx = np.tile(np.arange(H, dtype=np.intp), G)
    for arr in (g_idx, h_idx):
        arr.setflags(write=False)
    return g_idx, h_idx, tuple(range(G)), tuple(range(H))


@dataclass(frozen=True)
class ValidationReport:
    missing_cell_count: int
    duplicate_count: int
    rank_estimate: int
    messages: list[str]


def _parse_label(raw: str):
    """Integer-looking labels compare as ints so '1' and ' 1' coincide."""
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        return raw


def read_header(path) -> list[str]:
    """Column names from a CSV's first record, surrounding whitespace stripped.

    Raises
    ------
    EmptyFile
        The file holds no record at all.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
    return [c.strip() for c in header]


def load_csv(path, schema: dict) -> PanelArray:
    """Read a long-format CSV with one row per (g, h) cell.

    Parameters
    ----------
    path : str or path-like
        UTF-8 CSV file with a header row; a leading byte-order mark is
        ignored.
    schema : dict
        Column-name map with keys ``g``, ``h``, ``y`` and ``x`` (a list of
        regressor column names).

    The whole file is parsed before any cell is checked, so a field that
    does not parse outranks a repeated cell on an earlier row. ``_ranges``
    cuts the body into ranges, parsed in groups by ``_forked`` on up to
    ``_usable_cpus()`` processes that have all ended when this returns or
    raises. A field that numpy's reader does not parse, or a range that it
    reads as more or fewer records than ``_ranges`` counted, sends the
    whole file to the row-wise pass, which reads it or names the row and
    column at fault; so do g and h in one column, which numpy converts once.

    Raises
    ------
    MissingColumn, ParseFailure, DuplicateCell, EmptyFile
    """
    g_col, h_col, y_col = schema["g"], schema["h"], schema["y"]
    x_cols = list(schema["x"])
    if not x_cols:
        raise InputError("schema must name at least one x column")
    header = read_header(path)
    columns = [g_col, h_col, y_col, *x_cols]
    for col in columns:
        if col not in header:
            raise MissingColumn(col)
    pos = {col: header.index(col) for col in columns}
    try:
        if pos[g_col] == pos[h_col]:
            raise ValueError("g and h name one column")
        g_idx, h_idx, y, x, g_labels, h_labels = _load_ranges(path, _ranges(path), pos, columns)
    except ValueError:
        # Ragged or whitespace-only rows, or numerals that only float()
        # accepts: the row-wise pass reads these or names the bad field.
        g_idx, h_idx, y, x, g_labels, h_labels = _load_rows(path, pos, columns)
    if len(y) == 0:
        raise EmptyFile(f"{path}: header only, no data rows")
    return PanelArray(G=len(g_labels), H=len(h_labels), g_idx=g_idx, h_idx=h_idx,
                      y=y, x=x, g_labels=g_labels, h_labels=h_labels)


class _LabelIndex(dict):
    """Label spelling -> dense first-appearance index; ``labels`` maps each
    label to its index. Each new spelling is parsed once by ``_parse_label``,
    so spellings of one label, such as ``1`` and `` 1``, share an index."""

    def __init__(self):
        super().__init__()
        self.labels: dict = {}

    def __missing__(self, spelling: str) -> int:
        index = self[spelling] = self.labels.setdefault(_parse_label(spelling), len(self.labels))
        return index


def _records(fh, pos: dict, columns: list, g: _LabelIndex, h: _LabelIndex):
    """The g and h indices through ``g`` and ``h``, y and each x of the rows
    of text handle ``fh``, as one record array: numpy's C reader."""
    values = [f"v{j}" for j in range(len(columns) - 2)]  # y, then each x
    dtype = [("g", np.intp), ("h", np.intp), *((v, np.float64) for v in values)]
    return np.loadtxt(fh, dtype=dtype, usecols=[pos[c] for c in columns],
                      converters={pos[columns[0]]: g.__getitem__, pos[columns[1]]: h.__getitem__},
                      delimiter=",", quotechar='"', comments=None, ndmin=1)


def _usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask where
    the platform has one (``taskset -c 0`` makes it 1), else the machine's
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked(fn, items: int, jobs: int | None = None) -> list:
    """``fn(lo, hi)`` for each contiguous group ``[lo, hi)`` of
    ``range(items)``, in group order: the one place twqr starts processes.

    There are ``min(jobs, items, _usable_cpus())`` groups (``jobs`` left
    out: ``items``), at least one, and one where ``fork`` is unavailable;
    group k starts at ``items * k // groups``. This process runs the first
    group and a forked process each other one, so ``fn`` is never pickled
    and may be a closure, but its results are. Fork, not spawn: a spawned
    worker re-imports numpy, scipy and twqr, about half a second each.

    Every child is joined before this returns or raises. A ValueError in a
    child is raised here as a ValueError with its message (numpy's errors
    may not pickle); any other exception, or a child that dies before it
    sends its result, is a ChildProcessError naming the exception or the
    exit code.
    """
    fork = "fork" in multiprocessing.get_all_start_methods()
    groups = max(1, min(items if jobs is None else jobs, items, _usable_cpus())) if fork else 1
    bounds = [items * k // groups for k in range(groups + 1)]

    def child(group: int, send) -> None:
        try:
            reply = None, fn(bounds[group], bounds[group + 1])
        except ValueError as exc:
            reply = ValueError(str(exc)), None
        except Exception as exc:
            reply = ChildProcessError(f"forked worker raised {type(exc).__name__}: {exc}"), None
        send.send(reply)

    children = []
    try:
        if groups > 1:
            context = multiprocessing.get_context("fork")
            for group in range(1, groups):
                recv, send = context.Pipe(duplex=False)
                proc = context.Process(target=child, args=(group, send), daemon=True)
                proc.start()
                send.close()
                children.append((proc, recv))
        results = [fn(bounds[0], bounds[1])]
        for proc, recv in children:
            try:
                error, result = recv.recv()
            except EOFError:  # the child died before it sent its result
                proc.join()
                raise ChildProcessError(f"forked worker exit code {proc.exitcode}") from None
            if error is not None:
                raise error
            results.append(result)
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            proc.join()
            recv.close()
    return results


_RANGE_BYTES = 4 << 20  # the bytes of a range, unless one record is longer
_LINE_END = re.compile(rb"[\r\n]")
_LF_BEFORE_LINE_END = re.compile(rb"\n(?=[\r\n])")  # each ends a line that an empty one follows
_CR_BEFORE_CR = re.compile(rb"\r(?=\r)")
_QUOTED = re.compile(rb'"(?<![^,\r\n]")[^"]*(?:""[^"]*)*(?:"|\Z)')  # see _ranges
_MASK_LINE_ENDS = bytes.maketrans(b"\r\n", b"qq")  # a quoted field's line ends


def _ranges(path) -> list[tuple[int, int, int]]:
    """(first byte, end byte, record count) of each range of the body that
    holds a record, in file order; a header-only file has none.

    In each read of ``_RANGE_BYTES``, a line end inside a field that
    ``_QUOTED`` finds is made a ``q``. It finds, in one pass, the fields that
    numpy's reader and csv.reader quote: a quote opens one only as its first
    byte (``ab"c`` is text), two in it stand for one, and the last may run
    to the end. The header then ends at the first line end, and a range at
    the last in its first ``_RANGE_BYTES``: a ``\\n`` or a ``\\r``, where
    ``np.loadtxt`` ends a record. A longer record is read again into a
    buffer twice as long, and its range ends with it.
    """
    ranges, buf, body = [], bytearray(_RANGE_BYTES), False
    with open(path, "rb") as fh:
        offset = len(codecs.BOM_UTF8) if fh.read(3) == codecs.BOM_UTF8 else 0
        while True:
            fh.seek(offset)
            size = fh.readinto(buf)
            last = size < len(buf)
            quoted = _QUOTED.findall(buf, 0, size) if buf.find(b'"', 0, size) >= 0 else []
            text = _QUOTED.sub(lambda field: field[0].translate(_MASK_LINE_ENDS), buf[:size]) \
                if _LINE_END.search(b"".join(quoted)) else buf
            head = min(size, _RANGE_BYTES) if body else 0  # the header ends at its first line end
            end = size if last and size == head else max(
                text.rfind(b"\n", 0, head), text.rfind(b"\r", 0, head)) + 1
            if not end:
                first = _LINE_END.search(text, 0, size)
                end = first.end() if first else size if last else 0
            if not end and not last:  # a record longer than the buffer
                buf = bytearray(2 * len(buf))
                continue
            if body and (rows := _count(text, end)):
                ranges.append((offset, offset + end, rows))
            if last and end == size:
                return ranges
            del buf[_RANGE_BYTES:]  # back to one range after a longer record
            offset, body = offset + end, True


def _count(text, end: int) -> int:
    """The records of text[:end], which starts a record and has no line end
    in a quoted field, as ``np.loadtxt`` counts them: a ``\\n``, ``\\r\\n``
    or bare ``\\r`` ends each line, and an empty line is none."""
    records = text.count(b"\n", 0, end) - len(_LF_BEFORE_LINE_END.findall(text, 0, end))
    if text.find(b"\r", 0, end) >= 0:
        records += (text.count(b"\r", 0, end) - text.count(b"\r\n", 0, end)
                    - len(_CR_BEFORE_CR.findall(text, 0, end)))
    return (records - text.startswith((b"\n", b"\r"), 0, end)
            + (end > 0 and text[end - 1] not in b"\r\n"))


class _Span(io.RawIOBase):
    """The bytes ``start`` to ``stop`` of binary file ``raw``."""

    def __init__(self, raw, start: int, stop: int):
        self.raw, self.left = raw, stop - raw.seek(start)

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self.raw.readinto(memoryview(b)[:self.left])
        self.left -= n
        return n


def _load_ranges(path, ranges: list, pos: dict, columns: list):
    """numpy's C reader: the g and h indices, y, x and the g and h labels of
    a body cut into ``ranges``, parsed by ``_forked`` on every usable CPU (a
    body of one range in this process). A converter maps each g and h field
    through a ``_LabelIndex`` as it is read, so every label, integer, text
    or not ASCII, follows the row-wise rule in one pass.

    The four arrays are made once, at their final size and in the layout
    ``PanelArray`` keeps, so it stores them as they are: views of one
    anonymous shared mmap, g and h, y, then x. Each group of ranges is
    parsed in place, by this process or a forked one, which inherits the
    block without naming it and runs only numpy's reader, which reads each
    range to its end through a ``_Span``; a record count other than
    ``_ranges``'s, more or fewer, is a ValueError. Each group's labels are
    merged in group order, keeping the file's first-appearance order, and
    its indices are remapped in place.
    """
    n = sum(rows for *_, rows in ranges)
    d = len(columns) - 3
    block = mmap.mmap(-1, max(1, 8 * n * (d + 3)))  # a byte for a header-only file
    g_idx, h_idx = (np.frombuffer(block, np.intp, n, 8 * n * k) for k in range(2))
    y = np.frombuffer(block, np.float64, n, 16 * n)
    x = np.frombuffer(block, np.float64, n * d, 24 * n).reshape(n, d)
    starts = [0, *itertools.accumulate(rows for *_, rows in ranges)]  # each range's first row

    def parse(first: int, stop: int):
        """Parse ranges first..stop-1; their rows and the order of their g
        and h labels."""
        g, h = _LabelIndex(), _LabelIndex()
        for k in range(first, stop):
            start, end, rows = ranges[k]
            with open(path, "rb", buffering=0) as raw:
                fh = io.TextIOWrapper(_Span(raw, start, end), encoding="utf-8", newline="")
                records = _records(fh, pos, columns, g, h)
            if len(records) != rows:
                raise ValueError(f"range at byte {start} read {len(records)} of {rows} rows")
            lo, hi = starts[k], starts[k + 1]
            g_idx[lo:hi], h_idx[lo:hi] = records["g"], records["h"]
            y[lo:hi] = records["v0"]
            for j in range(d):
                x[lo:hi, j] = records[f"v{j + 1}"]
            del records  # before the next range's are read
        return slice(starts[first], starts[stop]), tuple(g.labels), tuple(h.labels)

    g_labels, h_labels = {}, {}
    for rows, *local in _forked(parse, len(ranges)):
        for labels, index, idx in zip(local, (g_labels, h_labels), (g_idx, h_idx)):
            remap = np.array([index.setdefault(label, len(index)) for label in labels], np.intp)
            # mode="clip" writes out as it goes; "raise" would buffer a copy of it
            np.take(remap, idx[rows], out=idx[rows], mode="clip")
    return g_idx, h_idx, y, x, tuple(g_labels), tuple(h_labels)


def _load_rows(path, pos: dict, columns: list):
    """Row-at-a-time reader: the reference parse and every ParseFailure."""
    g_col, h_col, y_col, *x_cols = columns
    g, h = _LabelIndex(), _LabelIndex()
    gs, hs, ys, xs = [], [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # header
        nrow = 0
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            nrow += 1

            def _field(col: str) -> str:
                try:
                    return row[pos[col]]
                except IndexError:
                    raise ParseFailure(nrow, col, "") from None

            def _num(col: str) -> float:
                text = _field(col)
                try:
                    return float(text)
                except ValueError:
                    raise ParseFailure(nrow, col, text) from None

            gs.append(g[_field(g_col)])
            hs.append(h[_field(h_col)])
            ys.append(_num(y_col))
            xs.append([_num(c) for c in x_cols])
    return gs, hs, ys, xs, tuple(g.labels), tuple(h.labels)


_WRITE_CHUNK_ROWS = 10_000


def _csv_field(value) -> str:
    """``value`` rendered as csv.writer renders it within a multi-field row.

    A CRLF terminator makes csv quote a bare carriage return too, which a
    reader would otherwise take for the end of the row.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([value, ""])
    return buf.getvalue()[:-3]  # drop the empty last field's ",\r\n"


@contextlib.contextmanager
def _replacing(path):
    """A text file, opened for UTF-8 writing with no newline translation,
    whose content becomes ``path``'s when the block ends without error.

    It is a scratch file in ``path``'s directory, created new with a
    random hidden name; ``os.replace`` moves it over ``path`` at the end of
    the block. On an error it is unlinked and ``path`` keeps the bytes it
    had, or stays absent, so a reader never sees a partial file.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    scratch = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(scratch, "x", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(scratch, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(scratch)
        raise


def write_csv(panel: PanelArray, path, schema: dict | None = None) -> None:
    """Serialize a panel back to the long CSV format read by :func:`load_csv`.

    Rows are formatted column by column in chunks of ten thousand; floats
    are written with ``repr``, so they read back exactly. Header names and
    labels are quoted as ``_csv_field`` quotes them, a bare carriage return
    included.

    ``_forked`` cuts the chunks into contiguous groups, at most one per CPU.
    This process writes the header and formats the first group straight
    into the output file; a forked process formats each other group into
    its own file in a hidden scratch directory beside ``path``, not in the
    system temp directory. Once every group has ended, this process appends
    those files in group order, a bounded buffer at a time, and removes the
    directory. The bytes are the same at any CPU count. An error in a
    forked group is raised by ``_forked``'s rule: an OSError there is a
    ChildProcessError here, which is itself an OSError.

    The file is written through ``_replacing``, so ``path`` holds either the
    whole new file or what it held before the call.
    """
    if schema is None:
        schema = {"g": "g", "h": "h", "y": "y", "x": [f"x{j + 1}" for j in range(panel.d)]}
    x_cols = list(schema["x"])
    if len(x_cols) != panel.d:
        raise DimensionMismatch("schema x column count differs from panel.d")
    header = ",".join(map(_csv_field, [schema["g"], schema["h"], schema["y"], *x_cols]))
    g_text = [_csv_field(label) for label in panel.g_labels]
    h_text = [_csv_field(label) for label in panel.h_labels]

    def write_chunks(fh, lo: int, hi: int) -> None:
        for chunk in range(lo, hi):
            rows = slice(chunk * _WRITE_CHUNK_ROWS, (chunk + 1) * _WRITE_CHUNK_ROWS)
            fields = [
                map(g_text.__getitem__, panel.g_idx[rows].tolist()),
                map(h_text.__getitem__, panel.h_idx[rows].tolist()),
                map(repr, panel.y[rows].tolist()),
                *(map(repr, col) for col in panel.x[rows].T.tolist()),
            ]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")

    head, tail = os.path.split(os.fspath(path))
    with _replacing(path) as fh, tempfile.TemporaryDirectory(
            prefix=f".{tail}.", suffix=".parts", dir=head or os.curdir) as scratch:
        fh.write(header + "\n")
        fh.flush()  # before the fork, so no copy of this buffer holds the header

        def write_group(lo: int, hi: int) -> str | None:
            if lo == 0:  # this process's group
                write_chunks(fh, lo, hi)
                return None
            part = os.path.join(scratch, str(lo))
            with open(part, "w", newline="", encoding="utf-8") as out:
                write_chunks(out, lo, hi)
            return part

        parts = _forked(write_group, -(-panel.n // _WRITE_CHUNK_ROWS))
        fh.flush()
        for part in parts[1:]:
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh.buffer)


def validate(panel: PanelArray) -> ValidationReport:
    """Diagnostic pass: missing cells, numeric design rank and G, H >= 2.

    ``duplicate_count`` is always 0: ``PanelArray`` raises ``DuplicateCell``
    when it is built, so no panel passed here can hold a duplicate cell.
    """
    missing = panel.G * panel.H - panel.n
    sv = np.linalg.svd(panel.x, compute_uv=False)
    rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0
    messages = []
    if missing:
        messages.append(f"{missing} of {panel.G * panel.H} grid cells missing")
    if rank < panel.d:
        messages.append(f"design matrix rank {rank} < d = {panel.d}")
    if panel.G < 2 or panel.H < 2:
        messages.append("two-way CRVE requires G >= 2 and H >= 2")
    return ValidationReport(
        missing_cell_count=missing,
        duplicate_count=0,
        rank_estimate=rank,
        messages=messages,
    )
