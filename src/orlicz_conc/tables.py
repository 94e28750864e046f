"""`write_table`, the text-table format every CSV output shares, and the
stream-or-path opener that every writer uses."""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np


def _out_stream(out, binary: bool = False):
    """A context manager giving a stream: `out` itself if it is one, else
    the file at path `out`, opened for writing (text, or binary)."""
    return (nullcontext(out) if hasattr(out, "write") else
            open(out, "wb" if binary else "w", newline=None if binary else ""))


def write_table(out, config, rows, names=None) -> None:
    """The text table of every CSV output: a '# config: <sorted JSON>' line
    (none when config is None), the column names if given, then one line of
    .17g cells per row of the 2-D `rows` (a scalar is one cell). `out` is a
    path or an open text stream, which is left open."""
    with _out_stream(out) as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        if names is not None:
            fh.write(",".join(names) + "\n")
        for row in np.atleast_2d(np.asarray(rows, dtype=float)):
            fh.write(",".join(f"{v:.17g}" for v in row.tolist()) + "\n")
