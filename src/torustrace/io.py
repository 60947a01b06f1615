"""On-disk formats: periodic-function and sampled-symbol JSON files.

Complex numbers are stored as [re, im] pairs.  Function files carry the grid
in x-lexicographic order; symbol files are x-major, lattice-minor with the
lattice in its canonical ordering, and may add ``claimed_*`` numbers (null
reads as absent).  ``_read`` reads both formats and ``_write`` writes both; a
defective file is one ValueError that names it.
"""

from __future__ import annotations

import json

import numpy as np

from .harmonic import FrequencyLattice, PeriodicFunction
from .symbols import SampledSymbol


def _integer(doc: dict, key: str, least: int, most: float = float("inf")) -> int:
    value = doc[key]
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or not least <= value <= most:
        raise ValueError(f"{key!r} must be an integer in [{least}, {most}], not {json.dumps(value)[:40]}")
    return value


def _number(doc: dict, key: str) -> float:
    if type(doc[key]) not in (int, float):
        raise ValueError(f"{key!r} must be a number or null, not {json.dumps(doc[key])[:40]}")
    return float(doc[key])


def _read(path: str, kind: str):
    """The ``kind`` ("function" or "symbol") file at ``path``: ``dim`` is checked first, then the
    value count (grid_size (2 lattice_radius + 1))^dim, radius 0 for a function, then it is built."""
    symbol = kind == "symbol"
    fields = ("dim", "grid_size", "lattice_radius", "values") if symbol else ("dim", "grid_size", "values")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"must hold a JSON object with the fields {', '.join(fields)}")
        for key in fields:
            if key not in doc:
                raise ValueError(f"is missing the {key!r} field")
        dim, grid = _integer(doc, "dim", 1, 2), _integer(doc, "grid_size", 1)
        radius = _integer(doc, "lattice_radius", 0) if symbol else 0
        try:
            pairs = np.asarray(doc["values"], dtype=np.float64)
        except (TypeError, ValueError):
            pairs = None
        if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("'values' must be a list of [re, im] pairs")
        claims = {key: _number(doc, key) for key in ("claimed_order", "claimed_rho", "claimed_delta")
                  if symbol and doc.get(key) is not None}
        expected = (grid * (2 * radius + 1)) ** dim
        if len(pairs) != expected:
            header = "(grid_size (2 lattice_radius + 1))^dim" if symbol else "grid_size^dim"
            raise ValueError(f"{len(pairs)} values, expected {header} = {expected}")
        values = pairs.view(np.complex128)[:, 0]  # the [re, im] bits as they are
        if not symbol:
            return PeriodicFunction(dim, grid, values)
        lattice = FrequencyLattice(dim, radius)
        return SampledSymbol(dim, grid, lattice, values.reshape(grid**dim, len(lattice)), **claims)
    except (OSError, ValueError, OverflowError, RecursionError) as exc:
        reason = f"cannot be read: {exc.strerror or exc}" if isinstance(exc, OSError) else exc
        raise ValueError(f"{kind} file {path}: {reason}") from exc


def _write(path: str, doc: dict) -> None:
    """Write ``doc`` to ``path`` as JSON and a newline, its complex "values" as [re, im] pairs."""
    values = np.ascontiguousarray(doc["values"], dtype=np.complex128).reshape(-1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**doc, "values": values.view(np.float64).reshape(-1, 2).tolist()}, fh)
        fh.write("\n")


def load_periodic_function(path: str) -> PeriodicFunction:
    return _read(path, "function")


def save_periodic_function(f: PeriodicFunction, path: str) -> None:
    _write(path, {"dim": f.dim, "grid_size": f.grid_size, "values": f.values})


def load_sampled_symbol(path: str) -> SampledSymbol:
    return _read(path, "symbol")


def save_sampled_symbol(a: SampledSymbol, path: str) -> None:
    _write(path, {"dim": a.dim, "grid_size": a.grid_size, "lattice_radius": a.lattice.radius,
                  "values": a.table, "claimed_order": a.claimed_order, "claimed_rho": a.claimed_rho,
                  "claimed_delta": a.claimed_delta})
