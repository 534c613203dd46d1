"""Two-way panel data model and CSV ingestion.

A :class:`PanelArray` holds one observation per (g, h) cell of a G-by-H
grid. Cells may be missing: every downstream estimator sums over present
cells only and normalizes by realized counts. Raw cluster labels are mapped
to dense ``0..G-1`` / ``0..H-1`` indices in first-appearance order, so a
given file always loads to the same array.

A CSV larger than one range of ``_RANGE_BYTES`` is parsed by byte ranges,
each ending at a newline, straight into the panel's four arrays, on every
CPU the process may run on (``_usable_cpus``). The arrays do not depend on
the worker count. ``_forked``, which starts those workers, is also the
Monte Carlo engine's replication map, and the only place twqr forks.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import itertools
import mmap
import multiprocessing
import os
import re
import warnings
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
    x : ndarray, shape (n, d)
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
    if x.ndim != 2:
        raise DimensionMismatch("x must be a 2-D array of shape (n, d)")
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
    does not parse outranks a repeated cell on an earlier row. A body that
    ``_ranges`` cuts into ranges is parsed in groups of ranges by
    ``_forked``, on up to ``_usable_cpus()`` processes that have all ended
    when this returns or raises; any other file is parsed by one call of
    numpy's reader. A field that numpy's reader does not parse, in any
    range, sends the whole file to the row-wise pass, which reads it or
    names the row and column at fault.

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
        g_idx, h_idx, y, x, g_labels, h_labels = _load_columns(path, pos, columns)
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


def _load_columns(path, pos: dict, columns: list):
    """Column-wise reader for well-formed files: numpy's C reader.

    Returns the g and h indices, y, x and the g and h labels, the first four
    in the layout ``PanelArray`` keeps, so it stores them as they are. A
    converter maps each g and h field through a ``_LabelIndex`` as it is
    read, so every label, integer, text or not ASCII, follows the row-wise
    rule in one pass. numpy converts only the first use of a file column, so
    g and h in one column are left to the row-wise pass, as is any field
    that numpy does not parse (ValueError).

    A body that ``_ranges`` cuts into several ranges is parsed range by
    range straight into the four arrays, by ``_load_ranges``. Any other
    body is parsed by one ``np.loadtxt`` call into a record array of d + 3
    columns, whose columns are copied out so that it dies on return.
    """
    g_col, h_col = columns[:2]
    if pos[g_col] == pos[h_col]:
        raise ValueError("g and h name one column")
    ranges = _ranges(path)
    if ranges is not None:
        return _load_ranges(path, ranges, pos, columns)
    g, h = _LabelIndex(), _LabelIndex()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        next(csv.reader(fh))  # the header record, which may span lines
        records = _records(fh, pos, columns, g, h)
    values = records.dtype.names[2:]
    return (np.ascontiguousarray(records["g"]), np.ascontiguousarray(records["h"]),
            np.ascontiguousarray(records[values[0]]),
            np.column_stack([records[v] for v in values[1:]]), tuple(g.labels), tuple(h.labels))


def _records(fh, pos: dict, columns: list, g: _LabelIndex, h: _LabelIndex, max_rows=None):
    """The g and h indices through ``g`` and ``h``, y and each x of the rows
    of text handle ``fh``, as one record array: numpy's C reader."""
    values = [f"v{j}" for j in range(len(columns) - 2)]  # y, then each x
    dtype = [("g", np.intp), ("h", np.intp), *((v, np.float64) for v in values)]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(fh, dtype=dtype, usecols=[pos[c] for c in columns],
                          converters={pos[columns[0]]: g.__getitem__,
                                      pos[columns[1]]: h.__getitem__},
                          delimiter=",", quotechar='"', comments=None, ndmin=1,
                          max_rows=max_rows)


def _usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask where
    the platform has one (``taskset -c 0`` makes it 1), else the machine's
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked(fn, items: int, jobs: int) -> list:
    """``fn(lo, hi)`` for each contiguous group ``[lo, hi)`` of
    ``range(items)``, in group order: the one place twqr starts processes.

    There are ``min(jobs, items, _usable_cpus())`` groups, at least one,
    and one where ``fork`` is unavailable; group k starts at
    ``items * k // groups``. This process runs the first group and a
    process forked from it runs each other one, so ``fn`` is never pickled
    and may be a closure, but its results are. Fork, not spawn: a spawned
    worker re-imports numpy, scipy and twqr, about half a second each.

    Every child is joined before this returns or raises. A ValueError in a
    child is raised here as a ValueError with its message (numpy's errors
    may not pickle); any other exception, or a child that dies before it
    sends its result, is a ChildProcessError naming the exception or the
    exit code.
    """
    fork = "fork" in multiprocessing.get_all_start_methods()
    groups = max(1, min(jobs, items, _usable_cpus())) if fork else 1
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


_RANGE_BYTES = 4 << 20  # the body bytes that one np.loadtxt call of _load_ranges reads at most


def _ranges(path) -> list[tuple[int, int]] | None:
    """(byte offset, row count) of each range of the body, or None for one.

    The file is read into one buffer of ``_RANGE_BYTES``; each range is the
    part of a read that ends at its last newline, and holds at least one
    row. A body that fits in one range is one range, as is any body where a
    cut could split a record or miscount its rows: a quote character in the
    header or body, a carriage return that does not end a line, an empty
    line (``np.loadtxt`` skips those without counting them towards
    ``max_rows``) or a line longer than a range.
    """
    ranges = []
    buf = bytearray(_RANGE_BYTES)
    with open(path, "rb") as fh:
        size = fh.readinto(buf)
        start = len(codecs.BOM_UTF8) if buf.startswith(codecs.BOM_UTF8, 0, size) else 0
        offset = buf.find(b"\n", start, size) + 1  # the first range starts after the header
        if not offset or not _plain(buf, start, offset):
            return None
        while True:
            fh.seek(offset)
            size = fh.readinto(buf)
            last = size < _RANGE_BYTES
            end = size if last else buf.rfind(b"\n", 0, size) + 1
            if (not end and not last) or not _plain(buf, 0, end):
                return None
            rows = buf.count(b"\n", 0, end)
            if last and end and buf[end - 1] != ord("\n"):
                rows += 1  # a last line with no newline
            if rows:
                ranges.append((offset, rows))
            if last:
                return ranges if len(ranges) > 1 else None
            offset += end


_EMPTY_LINE = re.compile(rb"\n\r?\n")


def _plain(buf: bytearray, start: int, end: int) -> bool:
    """Whether buf[start:end], which starts a line, has no quote character,
    no carriage return outside a CRLF and no empty line. Each test but
    the CRLF count is one scan that stops at the first match."""
    return (buf.find(b'"', start, end) < 0
            and (buf.find(b"\r", start, end) < 0
                 or buf.count(b"\r", start, end) == buf.count(b"\r\n", start, end))
            and not buf.startswith((b"\n", b"\r\n"), start, end)
            and not _EMPTY_LINE.search(buf, start, end))


def _load_ranges(path, ranges: list, pos: dict, columns: list):
    """``_load_columns`` of a body cut into ``ranges``, parsed by ``_forked``
    on every usable CPU.

    The four arrays are made once, at their final size, as views of one
    anonymous shared mmap: g and h, y, then x. Each group of ranges is
    parsed in place, by this process or a forked one, which inherits the
    block without naming it and runs only numpy's reader. Each group maps
    its labels through its own ``_LabelIndex`` and returns their
    first-appearance order; the labels are merged in group order, which
    keeps the file's first-appearance order, and each group's indices are
    remapped in place. A ValueError in any range is raised here.
    """
    n = sum(rows for _, rows in ranges)
    d = len(columns) - 3
    block = mmap.mmap(-1, 8 * n * (d + 3))
    g_idx, h_idx = (np.frombuffer(block, np.intp, n, 8 * n * k) for k in range(2))
    y = np.frombuffer(block, np.float64, n, 16 * n)
    x = np.frombuffer(block, np.float64, n * d, 24 * n).reshape(n, d)
    starts = [0, *itertools.accumulate(rows for _, rows in ranges)]  # each range's first row

    def parse(first: int, stop: int):
        """Parse ranges first..stop-1; their rows and the order of their g
        and h labels."""
        g, h = _LabelIndex(), _LabelIndex()
        for k in range(first, stop):
            offset, rows = ranges[k]
            with open(path, "rb") as raw:
                raw.seek(offset)
                fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
                records = _records(fh, pos, columns, g, h, max_rows=rows)
            if len(records) != rows:
                raise ValueError(f"range at byte {offset} read {len(records)} of {rows} rows")
            lo, hi = starts[k], starts[k + 1]
            g_idx[lo:hi], h_idx[lo:hi] = records["g"], records["h"]
            y[lo:hi] = records["v0"]
            for j in range(d):
                x[lo:hi, j] = records[f"v{j + 1}"]
            del records  # before the next range's are read
        return slice(starts[first], starts[stop]), tuple(g.labels), tuple(h.labels)

    g_labels, h_labels = {}, {}
    for rows, *local in _forked(parse, len(ranges), len(ranges)):
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


def write_csv(panel: PanelArray, path, schema: dict | None = None) -> None:
    """Serialize a panel back to the long CSV format read by :func:`load_csv`.

    Rows are formatted column by column in chunks of ten thousand; floats
    are written with ``repr``, so they read back exactly.
    """
    if schema is None:
        schema = {"g": "g", "h": "h", "y": "y", "x": [f"x{j + 1}" for j in range(panel.d)]}
    x_cols = list(schema["x"])
    if len(x_cols) != panel.d:
        raise DimensionMismatch("schema x column count differs from panel.d")
    g_text = [_csv_field(label) for label in panel.g_labels]
    h_text = [_csv_field(label) for label in panel.h_labels]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            [schema["g"], schema["h"], schema["y"], *x_cols])
        for start in range(0, panel.n, _WRITE_CHUNK_ROWS):
            rows = slice(start, start + _WRITE_CHUNK_ROWS)
            fields = [
                map(g_text.__getitem__, panel.g_idx[rows].tolist()),
                map(h_text.__getitem__, panel.h_idx[rows].tolist()),
                map(repr, panel.y[rows].tolist()),
                *(map(repr, col) for col in panel.x[rows].T.tolist()),
            ]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


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
