"""Two-way panel data model and CSV ingestion.

A :class:`PanelArray` holds one observation per (g, h) cell of a G-by-H
grid. Cells may be missing: every downstream estimator sums over present
cells only and normalizes by realized counts. Raw cluster labels are mapped
to dense ``0..G-1`` / ``0..H-1`` indices in first-appearance order, so a
given file always loads to the same array.
"""

from __future__ import annotations

import csv
import functools
import io
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
    does not parse outranks a repeated cell on an earlier row.

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

    Returns the g and h indices, y, x and the g and h labels. The first
    four are C-contiguous copies, the layout ``PanelArray`` keeps, so the
    record array of d + 3 columns dies on return, before the panel's
    checks run. A converter maps each g and h field through a
    ``_LabelIndex`` as it is read, so every label, integer, text or not
    ASCII, follows the row-wise rule in one pass. numpy converts only the
    first use of a file column, so g and h in one column are left to the
    row-wise pass, as is any field that numpy does not parse (ValueError).
    """
    g_col, h_col = columns[:2]
    if pos[g_col] == pos[h_col]:
        raise ValueError("g and h name one column")
    g, h = _LabelIndex(), _LabelIndex()
    values = [f"v{j}" for j in range(len(columns) - 2)]  # y, then each x
    dtype = [("g", np.intp), ("h", np.intp), *((v, np.float64) for v in values)]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        next(csv.reader(fh))  # the header record, which may span lines
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            records = np.loadtxt(fh, dtype=dtype, usecols=[pos[c] for c in columns],
                                 converters={pos[g_col]: g.__getitem__,
                                             pos[h_col]: h.__getitem__},
                                 delimiter=",", quotechar='"', comments=None, ndmin=1)
    return (np.ascontiguousarray(records["g"]), np.ascontiguousarray(records["h"]),
            np.ascontiguousarray(records[values[0]]),
            np.column_stack([records[v] for v in values[1:]]), tuple(g.labels), tuple(h.labels))


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
