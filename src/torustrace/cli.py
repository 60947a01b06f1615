"""Command-line interface and deterministic report emission.

Every run is fully specified by its command line (no configuration files).
Reports carry {header, body, diagnostics}; floats are serialized with 17
significant digits, complex values as [re, im] pairs, lines end with LF, and
field order is fixed, so identical inputs produce byte-identical output.  The
header timestamp honours SOURCE_DATE_EPOCH and is null otherwise.

Exit codes: 0 success, 2 validation error, 3 numerical failure (eigensolver
breakdown, or a divergence flag under --require-convergent), 1 when stdout is
closed before the report is written.  Every exit 2 is a ``ValidationError``
raised at the edge: by the flag table (argparse's usage error), by a handler's
``_require`` before the library is called, or by the data-file reader
(``io``).  The library trusts what passes them; any other exception escaping a
handler is a bug, not a user error, and ends in a traceback.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections.abc import Iterable
from types import SimpleNamespace

import numpy as np

from . import __version__
from .besov import BesovParams, block_index, block_norms, partial_sum_convergence, weighted_norm
from .criteria import check_t1, check_t2, check_tt1, nuclear_quasinorm_bound, tt1_range_refusal
from .groups import DUAL_SIZE_LIMIT, SU2, Torus, bessel_tail, dual_size, enumerate_dual, summed_series
from .harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    forward_transform,
    max_alias_free_radius,
    min_grid_size,
)
from .io import ValidationError, load_periodic_function, load_sampled_symbol
from .quantize import (EIGEN_SIDE_LIMIT, TRACE_IDENTITY_TOL, CompressedOperator, EigensolverError,
                       eigenvalues)
from .symbols import (
    BracketPower,
    GaussianDecay,
    Symbol,
    bessel_symbol,
    character_symbol,
    estimate_order,
    fourier_decay_constant,
    heat_symbol,
    modulated_symbol,
)
from .traces import lidskii_compare, tail_estimate

SCHEMA_VERSION = 2
NORMALIZATION_NOTE = (
    "period-1 torus characters exp(i 2 pi <x, xi>); torus lambda = |xi|^2; "
    "su2 lambda = l(l+1), d = 2l+1"
)


class NumericalFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Deterministic rendering
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{k}": {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        simple = all(
            isinstance(v, (int, float, complex, np.integer, np.floating, np.complexfloating, str))
            for v in items
        )
        if simple:
            return "[" + ", ".join(render_json(v, indent + 1) for v in items) + "]"
        rows = [f"{inner}{render_json(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_csv(header: str, rows: Iterable[list]) -> str:
    lines = [header]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(_fmt_float(float(cell)).strip('"'))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def make_header() -> dict:
    stamp = epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:  # datetime is imported only for this header
        from datetime import datetime, timezone

        stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    return {
        "tool": "torustrace",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "normalization": NORMALIZATION_NOTE,
        "timestamp": stamp,
    }


def emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {output}: {exc}; pick a writable --output") from exc


# ---------------------------------------------------------------------------
# Flag plumbing
# ---------------------------------------------------------------------------


def _number(convert=float, low: float | None = None, strict: bool = False, allow_inf: bool = False):
    """Flag type that declares a number flag's range beside the flag: NaN is
    refused, +-inf unless the range includes it (Lebesgue exponents p, q in
    [1, inf]), and values below ``low`` (or at it, when ``strict``).  A value
    out of range raises argparse's ``ArgumentTypeError``, whose message argparse
    prints; argparse is imported on that branch alone, so ``read_argv`` checks
    an in-range value without it."""
    kind = "an integer" if convert is int else "a number or inf" if allow_inf else "a finite number"
    allowed = kind if low is None else f"{kind} {'>' if strict else '>='} {low:g}"

    def parse(text: str):
        value = convert(text)  # an int can be too large for math.isnan, but is finite
        non_finite = convert is float and (math.isnan(value) or (math.isinf(value) and not allow_inf))
        if non_finite or (low is not None and (value <= low if strict else value < low)):
            import argparse

            raise argparse.ArgumentTypeError(f"{text!r} is not {allowed}; pass {allowed}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid float value"
    return parse


def _number_list(item, what: str):
    """Flag type for a nonempty comma-separated list of ``item`` values."""

    def parse(text: str) -> list:
        try:
            values = [item(tok) for tok in text.split(",") if tok.strip()]
        except Exception:  # a token int()/float() refuses, or the item's ArgumentTypeError
            values = []
        if not values:
            import argparse

            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma-separated list of {what}; pass {what}, comma separated"
            )
        return values

    return parse


def build_symbol(args, radius: int, flag: str = "--radius") -> Symbol:
    """The symbol the flags name, for a run up to ``radius`` (the command's radius
    ``flag``): a ``--symbol-file`` table refuses a radius beyond its own."""
    if args.symbol_file:
        if args.symbol:
            raise ValidationError("give either --symbol or --symbol-file, not both")
        for name in ("m", "t", "c", "g"):  # catalog flags: a table has no use for them
            _require(getattr(args, name) is None, f"--symbol-file reads a table, not --{name}; drop --{name}")
        a = load_sampled_symbol(args.symbol_file)
        _require(args.dim in (None, a.dim), f"--symbol-file holds a dim {a.dim} table; drop --dim")
        _require(radius <= a.radius, f"--symbol-file is tabulated on lattice radius {a.radius}, which does not "
                 f"hold the requested radius {radius}; lower {flag} to at most {a.radius}")
        return a
    if not args.symbol:
        raise ValidationError("missing symbol: pass --symbol FAMILY or --symbol-file PATH")
    dim = 1 if args.dim is None else args.dim
    if args.symbol == "bessel":
        if args.m is None:
            raise ValidationError("bessel symbol needs --m EXPONENT")
        return bessel_symbol(args.m, dim)
    if args.symbol == "heat":
        if args.t is None:
            raise ValidationError("heat symbol needs --t TIME > 0")
        _require(args.t > 0, f"heat symbol needs --t TIME > 0, got {args.t}")
        return heat_symbol(args.t, dim)
    if args.symbol == "modulated":
        if args.g in (None, "bracket"):
            if args.m is None:
                raise ValidationError("modulated bracket symbol needs --m EXPONENT")
            g = BracketPower(args.m)
        else:
            if args.t is None:
                raise ValidationError("modulated gaussian symbol needs --t TIME > 0")
            g = GaussianDecay(args.t)
        return modulated_symbol(2.0 if args.c is None else args.c, g, dim)
    return character_symbol(dim)


def _require_lattice(dim: int, radius: int, remedy: str) -> None:
    """Refuse a frequency lattice above DUAL_SIZE_LIMIT points, the dual series'
    size scale, before it is built."""
    points = (2 * radius + 1) ** dim
    _require(
        points <= DUAL_SIZE_LIMIT,
        f"radius {radius} in dim {dim} gives a lattice of {points} points, above "
        f"{DUAL_SIZE_LIMIT}; {remedy}",
    )


def _require_dyadic_budget(args, dim: int, grid: int, analysis_radius: int | None) -> None:
    """Refuse a dyadic-norm run above DUAL_SIZE_LIMIT points before anything is
    built: its analysis lattice, and its block synthesis, which holds one copy of
    the grid per dyadic block of that lattice (``besov.block_norms``).  The remedy
    names the flags that set those sizes: a catalog K sizes the grid only when
    neither --grid nor --radius is given."""
    radius = max_alias_free_radius(grid) if analysis_radius is None else analysis_radius
    sources = (("--input grid", args.input), ("--grid", args.grid), ("--radius", analysis_radius))
    if args.grid is None and analysis_radius is None:
        sources += (("--stock", args.stock), ("--character", args.character))
    flags = [flag for flag, value in sources if value is not None]
    remedy = "lower " + ", ".join(flags[:-1]) + (" or " if len(flags) > 1 else "") + flags[-1]
    _require_lattice(dim, radius, remedy)
    blocks = int(block_index(dim * radius**2)) + 1
    points = blocks * grid**dim
    _require(
        points <= DUAL_SIZE_LIMIT,
        f"{blocks} dyadic blocks synthesized on {grid**dim} grid points hold {points} points, "
        f"above {DUAL_SIZE_LIMIT}; {remedy}",
    )


def build_coefficients(args, radius: int | None) -> tuple[FourierCoefficients, int]:
    """The input of ``besov-norm``/``approx-demo`` as coefficients on its analysis
    lattice (``radius``, or the grid's largest alias-free one when None), and the
    grid its blocks are synthesized on; refused (exit 2) when its sizes exceed the
    dyadic-norm budget.  Only an ``--input`` file goes through a transform: the
    catalog inputs are written onto the lattice as they are defined, and their
    grid is sized from the lattice alone (a K above ``radius`` is cut off)."""
    sources = [args.input is not None, args.character is not None, args.stock is not None]
    if sum(sources) != 1:
        raise ValidationError(
            "give exactly one input: --input FILE, --character K, or --stock K"
        )
    if args.input is not None:
        _require(args.grid is None, "--input carries its own grid; drop --grid")
        f = load_periodic_function(args.input)
        dim, grid = f.dim, f.grid_size
    else:
        content = abs(args.character) if args.character is not None else args.stock
        needed = min_grid_size(max(content if radius is None else radius, 1))
        dim, grid = 1, needed if args.grid is None else args.grid
        if grid < needed:
            raise ValidationError(
                f"--grid {grid} is below the anti-aliasing margin {needed}; raise it"
            )
    _require_dyadic_budget(args, dim, grid, radius)
    lattice = FrequencyLattice(dim, max_alias_free_radius(grid) if radius is None else radius)
    if args.input is not None:
        need = min_grid_size(lattice.radius)
        _require(grid >= need, f"--input grid_size {grid} violates the anti-aliasing margin; need at least "
                 f"2(2N+1) = {need} for lattice radius {lattice.radius}; lower --radius to at most "
                 f"{max_alias_free_radius(grid)}")
        return forward_transform(f, lattice), grid
    k = lattice.points[:, 0]
    if args.character is not None:  # e^{i 2 pi K x}
        coeffs = k == args.character
    else:  # the stock family sum_{|k| <= K} <k>^{-2} e^{i 2 pi k x}
        coeffs = np.where(np.abs(k) <= args.stock, lattice.brackets() ** -2.0, 0.0)
    return FourierCoefficients(lattice, coeffs), grid


def _multi_index(vals: list[int], dim: int, flag: str) -> tuple[int, ...]:
    if len(vals) == 1 and dim == 2:
        vals = vals + [0]
    _require(len(vals) == dim,
             f"{flag} must be {dim} nonnegative integer{'' if dim == 1 else 's'} for dim={dim}, "
             f"got {','.join(map(str, vals))!r}")
    return tuple(vals)


def _require(condition: bool, remedy: str) -> None:
    if not condition:
        raise ValidationError(remedy)


def _overflow_remedy(w: float, flags: str) -> str:
    """Remedy for a dyadic norm whose weights 2^{m w} or q-th powers overflow float64."""
    return f"the weighted dyadic block norms at w = {w:g} overflow float64; lower {flags}"


def _symbol_remedy(args) -> str:
    """Remedy for a symbol whose x-Fourier table, or a sum over it, leaves float64."""
    return "check the values in --symbol-file" if args.symbol_file else "lower --m or --c, or raise --t"


def _compressions(args, a: Symbol, radii: list[int]) -> list[CompressedOperator]:
    """The compression of ``a`` at each of ``radii``, built largest first: a table or
    trace that leaves float64 is refused (exit 2, with the symbol's remedy) before
    any other diagnostic or solve."""
    try:
        operators = [CompressedOperator(a, FrequencyLattice(a.dim, r)) for r in reversed(radii)]
    except OverflowError as exc:
        raise ValidationError(f"{exc}; {_symbol_remedy(args)}") from exc
    return operators[::-1]


def _require_side(dim: int, radius: int, flag: str = "--radius") -> None:
    """Refuse a compression too large to eigensolve before anything is allocated;
    the remedy names the command's own radius ``flag``."""
    side = (2 * radius + 1) ** dim
    _require(
        side <= EIGEN_SIDE_LIMIT,
        f"radius {radius} in dim {dim} gives matrix side {side}, above the desk-scale "
        f"guard {EIGEN_SIDE_LIMIT}; lower {flag}",
    )


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

# A handler returns (body, diagnostics, CSV table or None).  The table is a header
# and lazy rows, rendered by main only under --format csv.
CsvTable = tuple[str, Iterable[list]]


def _run_trace(args) -> tuple[dict, dict, CsvTable | None]:
    a = build_symbol(args, args.radius)
    _require_side(a.dim, args.radius)
    _require(args.order_hint is None or args.order_hint < -a.dim,
             f"--order-hint {args.order_hint} is not summable in dimension {a.dim}; "
             f"lower --order-hint below {-a.dim}")
    (op,) = _compressions(args, a, [args.radius])
    # the diagnostics' refusals come before the eigensolver, the run's costliest step
    diagnostics: dict = {"trace_identity_tolerance": TRACE_IDENTITY_TOL}
    if args.order_hint is not None:
        try:
            diagnostics["tail_estimate"] = tail_estimate(a, op.lattice, args.order_hint)
        except OverflowError as exc:
            raise ValidationError(f"{exc}; pass an --order-hint nearer the symbol's order") from exc
    if args.certify_w is not None:
        try:
            bound = nuclear_quasinorm_bound(a, 1.0, args.certify_w, op.lattice)
        except OverflowError as exc:
            remedy = _overflow_remedy(args.certify_w, f"--certify-w, or {_symbol_remedy(args)}")
            raise ValidationError(remedy) from exc
        diagnostics["quasinorm_certificate"] = {
            "w": args.certify_w,
            "p": 2.0,
            "q": 2.0,
            "r": 1.0,
            "bound": bound,
        }
    (row,) = lidskii_compare(a, [op])["history"]
    body = {
        "radius": args.radius,
        "nuclear_trace": row["nuclear"],
        "spectral_trace": row["spectral"],
        "abs_difference": row["abs_diff"],
        "eigenvalue_count": len(op.lattice),
    }
    return body, diagnostics, None


def _run_lidskii(args) -> tuple[dict, dict, CsvTable | None]:
    _require(all(s < b for s, b in zip(args.radii, args.radii[1:])),
             f"--radii must be strictly increasing, got {','.join(map(str, args.radii))}; "
             "list each radius once, smallest first")
    a = build_symbol(args, max(args.radii), "--radii")
    _require_side(a.dim, max(args.radii), "--radii")
    report = lidskii_compare(a, _compressions(args, a, args.radii))
    body = {"radii": args.radii, **report}
    diagnostics = {
        "note": "nuclear/spectral agreement at every radius is a property of the "
        "finite compression; summability of the full operator is what the "
        "nuclearity checkers certify",
    }
    if not report["history_converged"]:
        diagnostics["tail_note"] = ("a sampled symbol has no decay envelope past its table"
                                    if args.symbol_file else "the symbol's frequency factor is not summable")
        if args.require_convergent:
            raise NumericalFailure(f"the nuclear-trace tail is not certified: {diagnostics['tail_note']}")
    csv_table = (
        "N,nuclear_re,nuclear_im,spectral_re,spectral_im,abs_diff",
        (
            [row["radius"], row["nuclear"].real, row["nuclear"].imag, row["spectral"].real,
             row["spectral"].imag, row["abs_diff"]]
            for row in report["history"]
        ),
    )
    return body, diagnostics, csv_table


def _run_besov_norm(args) -> tuple[dict, dict, CsvTable | None]:
    c, grid = build_coefficients(args, args.radius)
    params = BesovParams(args.w, args.p, args.q)
    blocks = block_norms(c, args.p, grid)
    try:
        norm = weighted_norm(blocks, params)
    except OverflowError as exc:
        raise ValidationError(_overflow_remedy(args.w, "--w or --q")) from exc
    body = {
        "w": args.w,
        "p": args.p,
        "q": args.q,
        "norm": norm,
        "blocks": [{"m": m, "lp_norm": v} for m, v in blocks],
    }
    return body, {}, ("m,block_lp_norm", ([m, v] for m, v in blocks))


def _run_check_class(args) -> tuple[dict, dict, CsvTable | None]:
    if args.decay_k is None:
        for flag, value in (("--decay-m", args.decay_m), ("--decay-delta", args.decay_delta)):
            _require(value is None, f"{flag} also needs --decay-k K")
    else:
        _require(args.decay_m is not None, "--decay-k also needs --decay-m ORDER")
    a = build_symbol(args, args.radius)
    _require_lattice(a.dim, args.radius, "lower --radius")  # the fit's lattice
    lattice = FrequencyLattice(a.dim, args.radius)
    alpha = _multi_index(args.alpha_idx, a.dim, "--alpha-idx")
    beta = _multi_index(args.beta_idx, a.dim, "--beta-idx")
    # the fit drops the shells with <xi> < 2, so its window |xi|_inf <= radius - max(alpha)
    # needs radius 3 to hold two shells past them
    _require(max(alpha) <= a.radius - 3, f"difference margin exhausted: order {alpha} on lattice radius "
             f"{a.radius} leaves the order fit less than radius 3; lower --alpha-idx to at most {a.radius - 3}")
    try:
        m_hat, c_hat = estimate_order(a, alpha, beta, lattice)
    except OverflowError as exc:
        raise ValidationError(f"{exc}; lower --alpha-idx or --beta-idx, or {_symbol_remedy(args)}") from exc
    body: dict = {
        "alpha": list(alpha),
        "beta": list(beta),
        "m_hat": m_hat,
        "C_hat": c_hat,
        "claimed_order": a.claimed_order,
    }
    if a.claimed_order is not None and math.isfinite(a.claimed_order):
        body["expected_slope"] = (
            a.claimed_order - a.claimed_rho * sum(alpha) + a.claimed_delta * sum(beta)
        )
    diagnostics: dict = {"fit": "shell-sup log-log least squares, brackets < 2 excluded"}
    if args.decay_k is not None:
        delta = args.decay_delta if args.decay_delta is not None else 0.0
        try:
            c_est = fourier_decay_constant(a, args.decay_k, args.decay_m, delta, lattice)
        except OverflowError as exc:
            raise ValidationError(f"{exc}; lower --decay-k or raise --decay-m") from exc
        body["decay_constant"] = {
            "k": args.decay_k,
            "m": args.decay_m,
            "delta": delta,
            "C_est": c_est,
        }
        if args.symbol_file:
            diagnostics["decay_note"] = (
                "sampled symbol: smoothness in x not verifiable, conclusion-only run"
            )
    return body, diagnostics, None


def _run_nuclearity(args) -> tuple[dict, dict, CsvTable | None]:
    if args.theorem == "tt1":  # the bracket multiplier (the default) reads --m, the heat one --t
        reader = f"--theorem tt1 with --symbol {args.symbol or 'bessel'}"
        unread = ("n", "alpha", "p1", "k", "delta", "w2", "p2", "q2", "m" if args.symbol == "heat" else "t")
    else:
        reader = f"--theorem {args.theorem}"
        unread = ("case", "p", "q", "group", "dim", "cutoff", "symbol", "t")
    for flag in unread:
        _require(getattr(args, flag) is None, f"{reader} does not read --{flag}; drop --{flag}")
    if args.theorem in ("t1", "t2"):
        needed = ("n", "r", "alpha", "p1", "k", "delta", "m", "w2")
        for flag in needed:
            _require(getattr(args, flag) is not None, f"--theorem {args.theorem} needs --{flag}")
        _require(args.r > 0 and args.p1 > 0, "degenerate parameters: need --r > 0 and --p1 > 0 "
                 f"(got --r {args.r}, --p1 {args.p1})")
        checker = check_t1 if args.theorem == "t1" else check_t2  # unset --p2, --q2: its default 2
        try:
            verdict = checker(**{flag: getattr(args, flag) for flag in needed + ("p2", "q2")
                                 if getattr(args, flag) is not None})
        except OverflowError as exc:  # the witness's finite terms sum beyond float64
            raise ValidationError("the series terms sum beyond float64; lower --m") from exc
    else:
        _require(args.case is not None, "--theorem tt1 needs --case 1|2|3|4")
        for flag in ("r", "p", "q", "cutoff"):
            _require(getattr(args, flag) is not None, f"--theorem tt1 needs --{flag}")
        _require(0.0 < args.r <= 1.0, f"--r must lie in (0, 1], got {args.r}")
        refusal = tt1_range_refusal(args.p, args.q, args.case)
        _require(not refusal, f"{refusal}; change --p or --q, or pick another --case")
        if args.symbol == "heat":
            _require(args.t is not None, "tt1 heat multiplier needs --t TIME")
        else:
            _require(args.m is not None, "tt1 bracket multiplier needs --m EXPONENT")
        args.group, args.dim = args.group or "torus", args.dim or 1
        dual = _dual(args)
        try:
            verdict = check_tt1(dual, args.r, args.p, args.q, args.case, m=args.m, t=args.t)
        except OverflowError as exc:  # finite terms whose exactly rounded sum leaves float64
            flag = "raise --t" if args.symbol == "heat" else "lower --m"
            raise ValidationError(f"the series terms sum beyond float64; {flag} or lower --cutoff") from exc
    return verdict, {"strictness": "strict inequalities checked strictly"}, None


def _dual(args, half_integers: bool = True):
    """The dual slice the flags ask for, of the group record ``--group`` names, one row
    per distinct lambda (every CLI series term depends on lambda alone), refused
    (exit 2) above the size budget or when a flag asks for what the group does not have."""
    _require(args.group == "torus" or args.dim == 1,
             f"--dim {args.dim} counts torus factors; the su2 dual is indexed by spin alone, "
             "so drop --dim")
    _require(args.group == "su2" or half_integers,
             "--integer-spins restricts the su2 spins; drop it for --group torus")
    group = {"torus": Torus(args.dim), "su2": SU2(half_integers)}[args.group]
    _require(dual_size(group, args.cutoff) <= DUAL_SIZE_LIMIT, f"the {group.name} dual at cutoff {args.cutoff} "
             f"has more than {DUAL_SIZE_LIMIT} points; lower --cutoff")
    return enumerate_dual(group, args.cutoff)


def _run_heat_trace(args) -> tuple[dict, dict, CsvTable | None]:
    dual = _dual(args, half_integers=not args.integer_spins)
    value, diag = summed_series(dual, (2.0, 0.0, args.t))
    body = {"group": args.group, "dim": args.dim, "t": args.t, "cutoff": args.cutoff,
            "value": value}
    return body, diag, None


def _run_bessel_trace(args) -> tuple[dict, dict, CsvTable | None]:
    if args.tail_correct:  # refused, or computed, before the dual is built
        _require(args.group == "torus" and args.dim == 1,
                 "tail correction is implemented for the torus with dim = 1; drop --tail-correct")
        _require(args.alpha > 1, f"tail correction needs a convergent series, got --alpha {args.alpha}; "
                 "raise --alpha above 1")
        tail, tail_bound = bessel_tail(args.cutoff, args.alpha)
    dual = _dual(args, half_integers=not args.integer_spins)
    try:
        value, diag = summed_series(dual, (2.0, -args.alpha, 0.0))
    except OverflowError as exc:  # finite terms whose exactly rounded sum leaves float64
        raise ValidationError("the series terms sum beyond float64; raise --alpha or lower --cutoff") from exc
    if args.tail_correct:  # the bound also takes the value's rounding: its terms', its sum's, this addition's
        value += tail
        diag["tail_estimate"] = math.nextafter(tail_bound + 2.0 * math.ulp(value), math.inf)
    diag["divergent"] = not diag["converged"]  # alpha at most the group's dimension
    body = {"group": args.group, "dim": args.dim, "alpha": args.alpha, "cutoff": args.cutoff,
            "tail_corrected": bool(args.tail_correct), "value": value}
    if diag["divergent"] and args.require_convergent:
        raise NumericalFailure(f"alpha = {args.alpha} diverges on a dual of dimension {dual.group.dimension}")
    return body, diag, None


def _run_approx_demo(args) -> tuple[dict, dict, CsvTable | None]:
    c, grid = build_coefficients(args, args.radius)
    params = BesovParams(args.w, args.p, args.q)
    try:
        rows = partial_sum_convergence(c, params, args.n_values, grid)
    except OverflowError as exc:
        raise ValidationError(_overflow_remedy(args.w, "--w or --q")) from exc
    body = {
        "w": args.w,
        "p": args.p,
        "q": args.q,
        "table": [{"N": n, "besov_error": e} for n, e in rows],
    }
    csv_table = ("N,besov_error", ([n, e] for n, e in rows))
    return body, {"cutoff": "frequencies with bracket <= N are kept"}, csv_table


def _run_spectrum(args) -> tuple[dict, dict, CsvTable | None]:
    a = build_symbol(args, args.radius)
    _require_side(a.dim, args.radius)
    (op,) = _compressions(args, a, [args.radius])
    eigs, residuals = eigenvalues(op, with_residuals=True)
    residual_max = float(residuals.max()) if eigs.size else 0.0
    if args.matrix_csv:  # one f-string a row; .17g spells nan/inf/-inf as render_csv does
        rows = [
            f"{i},{j},{v.real:.17g},{v.imag:.17g}\n"
            for i, row in enumerate(op.entries.tolist())
            for j, v in enumerate(row)
        ]
        emit("eta_index,xi_index,re,im\n" + "".join(rows), args.matrix_csv)
    body = {
        "radius": args.radius,
        "eigenvalues": [complex(v) for v in eigs],
        "trace": op.trace(),
    }
    csv_table = ("index,re,im", ([i, v.real, v.imag] for i, v in enumerate(eigs)))
    return body, {"max_residual": residual_max, "order": "descending |lambda|, ties by argument"}, csv_table


HANDLERS = {
    "trace": _run_trace,
    "lidskii": _run_lidskii,
    "besov-norm": _run_besov_norm,
    "check-class": _run_check_class,
    "nuclearity": _run_nuclearity,
    "heat-trace": _run_heat_trace,
    "bessel-trace": _run_bessel_trace,
    "approx-demo": _run_approx_demo,
    "spectrum": _run_spectrum,
}

# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


FINITE = _number()
FINITE_OR_INF = _number(allow_inf=True)
NATURAL = _number(int, low=0)
NATURALS = _number_list(NATURAL, "integers >= 0")
CUTOFF = _number(low=0)
LEBESGUE = _number(low=1, allow_inf=True)  # the Banach range of BesovParams
DIM = {"type": int, "choices": [1, 2]}
STORE_TRUE = {"action": "store_true"}
# no option string starts with "-" and a digit, so "-1,0" and "-1e1" are values
NEGATIVE_NUMBER = re.compile(r"^-\.?\d")

# Each command's flags, once: the add_argument keywords of its subparser, which
# read_argv also reads.  The dest of --flag-name is flag_name, as argparse derives it.
SYMBOL_FLAGS = {
    "--symbol": {"choices": ["bessel", "heat", "modulated", "character"],
                 "help": "catalog family: bessel(<xi>^m), heat(e^{-t|xi|^2}), "
                 "modulated((c+cos 2 pi x1) g(xi)), character(e^{i 2 pi x1})"},
    "--symbol-file": {"help": "sampled-symbol JSON file"},
    "--m": {"type": FINITE, "help": "bracket-power exponent (signed: -4 decays)"},
    "--t": {"type": FINITE, "help": "heat/gaussian time parameter"},
    "--c": {"type": FINITE, "help": "modulation offset (default 2)"},
    "--g": {"choices": ["bracket", "gaussian"], "help": "frequency factor of the modulated family"},
    "--dim": DIM,
}
FUNCTION_FLAGS = {  # the input function and norm of the dyadic commands (build_coefficients)
    "--input": {"help": "periodic-function JSON file"},
    "--character": {"type": int, "help": "use e^{i 2 pi K x} instead of a file"},
    "--stock": {"type": NATURAL, "help": "use the stock family truncated at K"},
    "--grid": {"type": _number(int, low=1), "help": "grid size override"},
    "--w": {"type": FINITE, "required": True},
    "--p": {"type": LEBESGUE, "required": True},
    "--q": {"type": LEBESGUE, "required": True},
}
SERIES_FLAGS = {  # heat-trace and bessel-trace
    "--group": {"choices": ["torus", "su2"], "required": True},
    "--dim": {**DIM, "default": 1},
}
COMMANDS = {  # name: (help line, flags); --format and --output follow every command's own
    "trace": ("nuclear and spectral trace at one radius", {
        **SYMBOL_FLAGS,
        "--radius": {"type": NATURAL, "required": True},
        "--order-hint": {"type": FINITE, "help": "power-law order for the truncation tail bound"},
        "--certify-w": {"type": FINITE, "help": "also report the quasi-norm certificate at this weight"},
    }),
    "lidskii": ("trace identity across increasing radii", {
        **SYMBOL_FLAGS,
        "--radii": {"type": NATURALS, "required": True, "help": "comma-separated increasing radii"},
        "--require-convergent": STORE_TRUE,
    }),
    "besov-norm": ("dyadic-block norm of a sampled function", {
        **FUNCTION_FLAGS,
        "--radius": {"type": NATURAL, "required": True},
    }),
    "check-class": ("empirical symbol order and Fourier decay", {
        **SYMBOL_FLAGS,
        "--radius": {"type": _number(int, low=8), "required": True},
        "--alpha-idx": {"type": NATURALS, "default": "0", "help": "difference multi-index, comma separated"},
        "--beta-idx": {"type": NATURALS, "default": "0", "help": "x-derivative multi-index, comma separated"},
        "--decay-k": {"type": _number(int, low=1)},
        "--decay-m": {"type": FINITE},
        "--decay-delta": {"type": FINITE},
    }),
    "nuclearity": ("run a sufficient-condition checker", {
        "--theorem": {"choices": ["t1", "t2", "tt1"], "required": True},
        "--case": {"type": int, "choices": [1, 2, 3, 4]},
        "--n": DIM,
        "--r": {"type": FINITE},
        "--alpha": {"type": FINITE},
        "--p1": {"type": FINITE},
        "--k": {"type": int},
        "--delta": {"type": FINITE},
        "--m": {"type": FINITE},
        "--w2": {"type": FINITE},
        "--p2": {"type": FINITE_OR_INF},
        "--q2": {"type": FINITE_OR_INF},
        "--p": {"type": FINITE_OR_INF},
        "--q": {"type": FINITE_OR_INF},
        "--group": {"choices": ["torus", "su2"]},
        "--dim": DIM,
        "--cutoff": {"type": CUTOFF},
        "--symbol": {"choices": ["bessel", "heat"]},
        "--t": {"type": FINITE},
    }),
    "heat-trace": ("sum d^2 exp(-t lambda) over a dual", {
        **SERIES_FLAGS,
        "--t": {"type": _number(low=0, strict=True), "required": True},
        "--cutoff": {"type": CUTOFF, "required": True},
        "--integer-spins": STORE_TRUE,
    }),
    "bessel-trace": ("sum d^2 bracket^(-alpha) over a dual", {
        **SERIES_FLAGS,
        "--alpha": {"type": FINITE, "required": True},
        "--cutoff": {"type": CUTOFF, "required": True},
        "--tail-correct": STORE_TRUE,
        "--require-convergent": STORE_TRUE,
        "--integer-spins": STORE_TRUE,
    }),
    "approx-demo": ("partial-sum convergence in a dyadic norm", {
        **FUNCTION_FLAGS,
        "--n-values": {"type": _number_list(FINITE, "finite numbers"), "required": True},
        "--radius": {"type": NATURAL},
    }),
    "spectrum": ("eigenvalues of the compressed operator", {
        **SYMBOL_FLAGS,
        "--radius": {"type": NATURAL, "required": True},
        "--matrix-csv": {"help": "also export the matrix as eta,xi,re,im CSV"},
    }),
}
OUTPUT_FLAGS = {
    "--format": {"choices": ["json", "csv"], "default": "json"},
    "--output": {"help": "write the report here instead of stdout"},
}
FLAGS = {name: {**flags, **OUTPUT_FLAGS} for name, (_, flags) in COMMANDS.items()}


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain command line, read without argparse;
    None for any other line, which ``build_parser()`` then parses or refuses.

    Plain: a command, then only its flags, each spelled in full as ``--flag
    value`` or ``--flag=value`` (a ``store_true`` flag bare); a separate value
    starts with "-" only as a number (``NEGATIVE_NUMBER``) and no value is "--";
    each value passes its flag's type and choices; every required flag is given.
    An absent flag takes its default (a str default through the flag's type, as
    argparse does), and the last repeat of a flag wins."""
    if not argv or argv[0] not in FLAGS:
        return None
    flags, given, tokens = FLAGS[argv[0]], {}, iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        spec = flags.get(flag)
        if spec is None or ("action" in spec and equals):  # the one action is store_true
            return None
        if "action" in spec:
            given[flag] = True
            continue
        if not equals:
            value = next(tokens, "--")  # a flag without its value is refused, as "--" is
            if value.startswith("-") and not NEGATIVE_NUMBER.match(value):
                return None
        if value == "--":
            return None
        try:
            value = spec.get("type", str)(value)
        except Exception:  # argparse reports the value with the usage
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, spec in flags.items():
        if flag in given:
            value = given[flag]
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default", False if "action" in spec else None)
            if isinstance(value, str):
                value = spec.get("type", str)(value)
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def build_parser():
    """The ``argparse.ArgumentParser`` of every command, built from ``FLAGS``.

    ``main`` uses it only for the lines ``read_argv`` declines: help, usage and
    errors (no command, a typo, a bad value, a missing flag), and the spellings
    the reader does not take, such as abbreviations.  Argparse is imported here,
    so a well-formed command line never imports it nor builds a parser.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            """Write help, usage and errors as a report is written: argparse drops
            the OSError of a reader gone from the pipe, this raises it."""
            if message:
                (file or sys.stderr).write(message)

    parser = Parser(
        prog="torustrace",
        description="Toroidal operator calculus: traces, dyadic norms, nuclearity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p._negative_number_matcher = NEGATIVE_NUMBER
        for flag, kwargs in FLAGS[name].items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    """Run one command.  ``read_argv`` reads a well-formed command line; any
    other goes to ``build_parser()``, which parses it, or prints help, or
    refuses it with the usage and exit 2 (a flag the command lacks, or one whose
    value is "--", with the command's own usage)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv)
    if args is None:
        import argparse

        parser = build_parser()
        try:
            if not argv or argv[0] not in HANDLERS:
                args = parser.parse_args(argv)
            else:
                args, extras = parser.parse_known_args(argv)
                (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
                if extras:
                    sub.choices[argv[0]].error(f"unrecognized arguments: {' '.join(extras)}")
                # argparse reads the value of --flag=-- as an empty list
                for flag in FLAGS[argv[0]]:
                    if getattr(args, flag[2:].replace("-", "_")) == []:
                        sub.choices[argv[0]].error(f"argument {flag}: expected one argument")
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
    try:
        body, diagnostics, csv_table = HANDLERS[args.command](args)
        if args.format == "csv":
            if csv_table is None:
                raise ValidationError(f"{args.command} has no CSV schema; use --format json")
            text = render_csv(*csv_table)
        else:
            text = render_json({"header": make_header(), "body": body, "diagnostics": diagnostics}) + "\n"
        emit(text, args.output)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (EigensolverError, NumericalFailure) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    return 0


def entrypoint() -> None:
    """The ``torustrace`` console script and ``python -m torustrace.cli``.

    Once ``main`` returns, the report is written and every file it opened is
    closed, so the process flushes stdout and stderr and leaves by
    ``os._exit``: no module teardown, exit-time collection or BLAS thread
    shutdown.  A reader gone from stdout (``| head``) gets one error line and
    exit 1; any other exception escaping ``main`` gives a traceback and exit 1.
    ``main`` does none of this, so in-process callers keep their process.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError as exc:
        sys.stderr.write(f"error: cannot write the report to stdout: {exc}\n")
        sys.stderr.flush()
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
