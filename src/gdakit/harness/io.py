"""Trace CSV, parameter-file, and JSON writers with exact float round-trip.

Floats are serialized with repr(), which numpy/python reread bit-for-bit,
so rerunning a config byte-identically reproduces every output. Each file
starts with (or contains) the canonical config hash of the run that
produced it; '#'-prefixed lines in CSV files are comments.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from gdakit.core import GdakitError
from gdakit.diagnostics import TRACE_FIELDS, TraceColumns

# the trace file's header: the trace's field names, the merit value as V
TRACE_COLUMNS = tuple("V" if name == "v" else name for name in TRACE_FIELDS)

# csv.writer writes cells of these exact types as the formats here do: a
# str as is, an int through str, a float through repr and None as empty
_NATIVE = frozenset((str, int, float, type(None)))


class TraceFormatError(GdakitError):
    """Trace file does not parse back into a trace."""


def _parse(cell: str):
    return None if cell == "" else float(cell)


def _plan_cells(col) -> list[str]:
    """A plan column's cells; a plan value repeats along a run, so each
    distinct one is formatted once (a zero each time: 0.0 and -0.0 are one
    dict key but two reprs)."""
    memo: dict = {}
    cells = []
    for v in col:
        cell = memo.get(v) if v else None
        if cell is None:
            cell = memo[v] = "" if v is None else repr(float(v))
        cells.append(cell)
    return cells


def write_trace_csv(path, trace: TraceColumns, config_hash: str | None = None):
    """One row per logged step of trace.

    Each column is formatted once: k through str, branch as it is, a float
    column through repr(float(v)), so an int step size is written 1.0 as
    read back, and None as an empty cell. No cell of this schema needs
    quoting, so the rows joined with "," and ended with "\r\n" are the
    bytes csv.writer writes for the same cells."""
    k, branch, alpha, eta, p, *metrics = trace.columns
    cells = [
        list(map(str, k)),
        branch,
        *map(_plan_cells, (alpha, eta, p)),
        *(["" if v is None else repr(float(v)) for v in col] for col in metrics),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write("\r\n".join([",".join(TRACE_COLUMNS), *map(",".join, zip(*cells)), ""]))


def read_trace_csv(path) -> tuple[TraceColumns, str | None]:
    """The trace write_trace_csv wrote to path, with its config hash (None
    if the file has none); k reads back as an int and an empty cell as
    None."""
    path = Path(path)
    cfg_hash = None
    trace = TraceColumns()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                if "config_hash=" in line:
                    cfg_hash = line.split("config_hash=", 1)[1].strip()
                continue
            rows.append(line)
        parsed = list(csv.reader(rows))
    if not parsed or tuple(parsed[0]) != TRACE_COLUMNS:
        raise TraceFormatError(f"{path}: missing or wrong header")
    for row in parsed[1:]:
        if len(row) != len(TRACE_COLUMNS):
            raise TraceFormatError(f"{path}: row has {len(row)} cells: {row}")
        try:
            cells = (int(row[0]), row[1], *map(_parse, row[2:]))
        except ValueError as exc:
            raise TraceFormatError(f"{path}: bad cell in row {row}: {exc}") from exc
        for col, cell in zip(trace.columns, cells):
            col.append(cell)
    return trace, cfg_hash


def write_params(path, arr: np.ndarray, config_hash: str | None = None) -> None:
    """One repr(float) per line, optional leading config-hash comment."""
    arr = np.asarray(arr, dtype=np.float64).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write("".join(f"{v!r}\n" for v in arr.tolist()))


def read_params(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        vals = [
            float(line)
            for line in fh
            if line.strip() and not line.lstrip().startswith("#")
        ]
    return np.asarray(vals, dtype=np.float64)


def write_json(path, obj: dict) -> None:
    """Sorted keys and a fixed layout so equal payloads are equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_table_csv(path, header: list[str], rows: list[list], config_hash=None):
    """Generic comparison/curve table; floats through repr, None as empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow(
                [
                    c
                    if type(c) in _NATIVE or isinstance(c, str)
                    else (str(c) if isinstance(c, int) else repr(float(c)))
                    for c in row
                ]
            )
