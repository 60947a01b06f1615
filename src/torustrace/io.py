"""On-disk formats: periodic-function and sampled-symbol JSON files.

Complex numbers are stored as [re, im] pairs.  Function files carry the grid
in x-lexicographic order; symbol files are x-major, lattice-minor with the
lattice in its canonical ordering, and may add ``claimed_*`` numbers (null
reads as absent); every value is a JSON number, an int or a float by its own
type (``_pairs`` checks them all in one pass), and every value and claim is
finite, but for a claimed_order of -Infinity (a smoothing symbol's).  ``_read``
reads both formats and ``_write`` writes both; a defective file is one
``ValidationError`` that names it, the error ``cli`` also refuses a bad flag with.

``_read`` holds one list per value while it runs and drops every one of them
before it returns, so it runs with the cyclic GC paused: the collections those
short-lived lists would trigger find nothing to free, and in a process with a
large heap one of them is a full collection.
"""

from __future__ import annotations

import gc
import json
from itertools import chain

import numpy as np

from .harmonic import FrequencyLattice, PeriodicFunction
from .symbols import SampledSymbol


class ValidationError(Exception):
    """Bad flags or files; the message carries a one-line remedy."""


def _integer(doc: dict, key: str, least: int, most: float = float("inf")) -> int:
    value = doc[key]
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or not least <= value <= most:
        raise ValueError(f"{key!r} must be an integer in [{least}, {most}], not {json.dumps(value)[:40]}")
    return value


def _number(doc: dict, key: str) -> float:
    value, smoothing = doc[key], key == "claimed_order"  # order -inf: symbols.NEG_INFINITY_ORDER
    if type(value) not in (int, float) or not (np.isfinite(float(value)) or smoothing and value == -np.inf):
        finite = "finite number or -Infinity" if smoothing else "finite number"
        raise ValueError(f"{key!r} must be a {finite} or null, not {json.dumps(value)[:40]}")
    return float(value)


def _pairs(values):
    """``values`` as a float64 array of [re, im] rows, or None if it is not a list of pairs of
    JSON numbers: every item a list of two, checked before they are flattened, and every value
    an int or a float by its own type (a bool, a string, a null or a container is not one),
    read with the bits ``float()`` gives it."""
    if type(values) is not list or set(map(type, values)) != {list} or set(map(len, values)) != {2}:
        return None
    flat = list(chain.from_iterable(values))
    if not set(map(type, flat)) <= {int, float}:
        return None
    return np.array(flat, dtype=np.float64).reshape(-1, 2)


def _read(path: str, kind: str):
    """The ``kind`` ("function" or "symbol") file at ``path``, parsed, checked and dropped in one
    pause of the cyclic GC: the document goes with ``_parse``'s frame, before the pause ends, and
    the collector is left as the caller had it."""
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return _parse(path, kind)
    finally:
        if enabled:
            gc.enable()


def _parse(path: str, kind: str):
    """The ``kind`` file at ``path``: ``dim`` is checked first, then the value count
    (grid_size (2 lattice_radius + 1))^dim, radius 0 for a function, then it is built."""
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
        pairs = _pairs(doc["values"])
        if pairs is None:
            raise ValueError("'values' must be a list of [re, im] pairs")
        if not np.isfinite(pairs).all():
            flag = "--symbol-file" if symbol else "--input"
            raise ValueError(f"a value is NaN or Infinity, not finite in float64; check the values in {flag}")
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
        raise ValidationError(f"{kind} file {path}: {reason}") from exc


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
