"""Trace CSV, parameter-file, and JSON writers with exact float round-trip.

Floats are serialized with repr(), which numpy/python reread bit-for-bit,
so rerunning a config byte-identically reproduces every output. Each file
starts with (or contains) the canonical config hash of the run that
produced it; '#'-prefixed lines in CSV files are comments.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from gdakit.core import GdakitError
from gdakit.diagnostics import TraceRecord

TRACE_COLUMNS = tuple(f.metadata.get("column", f.name) for f in fields(TraceRecord))

# the float-valued fields after k and branch, in column order
_FLOATS = attrgetter(*(f.name for f in fields(TraceRecord)[2:]))


class TraceFormatError(GdakitError):
    """Trace file does not parse back into records."""


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def _parse(cell: str):
    return None if cell == "" else float(cell)


def write_trace_csv(path, records: list[TraceRecord], config_hash: str | None = None):
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        wr = csv.writer(fh)
        wr.writerow(TRACE_COLUMNS)
        for r in records:
            wr.writerow([str(r.k), r.branch, *map(_fmt, _FLOATS(r))])


def read_trace_csv(path) -> tuple[list[TraceRecord], str | None]:
    path = Path(path)
    cfg_hash = None
    records: list[TraceRecord] = []
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
            records.append(TraceRecord(int(row[0]), row[1], *map(_parse, row[2:])))
        except ValueError as exc:
            raise TraceFormatError(f"{path}: bad cell in row {row}: {exc}") from exc
    return records, cfg_hash


def write_params(path, arr: np.ndarray, config_hash: str | None = None) -> None:
    """One repr(float) per line, optional leading config-hash comment."""
    arr = np.asarray(arr, dtype=np.float64).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        for v in arr:
            fh.write(repr(float(v)) + "\n")


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
                    if isinstance(c, str)
                    else ("" if c is None else (str(c) if isinstance(c, int) else repr(float(c))))
                    for c in row
                ]
            )
