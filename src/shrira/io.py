"""Bit-exact field persistence: JSON header line + raw little-endian payload.

Layout: the first line of the file is a one-line UTF-8 JSON header
{format_version, nx, ny, lx, ly, c, m, signed_power, created, producer}
terminated by a newline; the remaining 8*nx*ny bytes are IEEE-754 float64
little-endian samples, row-major with x fastest, in physical order (x from
-lx/2, y from -ly/2).  Version 1 headers lack signed_power and read as false.
See docs/formats.md.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

import numpy as np

from .config import _parse
from .grid import Field, Grid
from .errors import InputError

FORMAT_VERSION = 2
_HEADER_KEYS = ("format_version", "nx", "ny", "lx", "ly", "c", "m", "signed_power", "created",
                "producer")


def write_field(path, field: Field, meta: dict) -> None:
    """Write a field; meta must carry c and m, may set signed_power (false), created, producer."""
    g = field.grid
    header = {
        "format_version": FORMAT_VERSION,
        "nx": g.nx,
        "ny": g.ny,
        "lx": g.lx,
        "ly": g.ly,
        "c": float(meta["c"]),
        "m": float(meta["m"]),
        "signed_power": bool(meta.get("signed_power", False)),
        "created": meta.get("created") or datetime.now(timezone.utc).isoformat(),
        "producer": meta.get("producer", "shrira"),
    }
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def read_field(path):
    """Read a field file; returns (Field, header dict).  The grid keys are checked as a config's
    grid section is, and the sizes before one array is read; the caller parses the physics."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise InputError(f"{path}: missing header line")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"{path}: unreadable header ({exc})") from exc
        if not isinstance(header, dict):
            raise InputError(f"{path}: header is not a JSON object")
        version = header.get("format_version")
        if type(version) is not int or version not in (1, FORMAT_VERSION):
            raise InputError(f"{path}: unsupported format_version {version}")
        if version == 1:
            header["signed_power"] = False  # version 1 predates signed powers
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise InputError(f"{path}: header lacks keys {missing}")
        grid = _parse(Grid, {k: header[k] for k in ("nx", "ny", "lx", "ly")}, f"{path}: header")
        size = os.fstat(fh.fileno()).st_size - len(line)
        if size != 8 * grid.nx * grid.ny:
            raise InputError(f"{path}: payload is {size} bytes, header implies {8 * grid.nx * grid.ny}")
        values = np.fromfile(fh, dtype="<f8", count=grid.nx * grid.ny).reshape(grid.ny, grid.nx)
    return Field(grid, values), header
