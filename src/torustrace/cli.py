"""Command-line interface and deterministic report emission.

Every run is fully specified by its command line (no configuration files).
Reports carry {header, body, diagnostics}; floats are serialized with 17
significant digits, complex values as [re, im] pairs, lines end with LF, and
field order is fixed, so identical inputs produce byte-identical output.  The
header timestamp honours SOURCE_DATE_EPOCH and is null otherwise.

Exit codes: 0 success, 2 validation error, 3 numerical failure (eigensolver
breakdown, or a divergence flag under --require-convergent).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from collections.abc import Iterable
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .besov import BesovParams, block_index, block_norms, partial_sum_convergence, weighted_norm
from .criteria import (SHELL_RATIO_COUNT, SHELL_RATIO_LIMIT, check_t1, check_t2, check_tt1,
                       nuclear_quasinorm_bound)
from .groups import (
    DUAL_SIZE_LIMIT,
    bessel_tail,
    bessel_terms,
    enumerate_dual,
    heat_terms,
    summed_series,
)
from .harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    forward_transform,
    max_alias_free_radius,
    min_grid_size,
)
from .io import load_periodic_function, load_sampled_symbol
from .quantize import (EIGEN_SIDE_LIMIT, TRACE_IDENTITY_TOL, CompressedOperator, EigensolverError,
                       eigenvalues)
from .sums import fsum_complex
from .symbols import (
    BracketPower,
    GaussianDecay,
    SampledSymbol,
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


class ValidationError(Exception):
    """Bad flags or files; the message carries a one-line remedy."""


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
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = None if epoch is None else datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
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
        raise ValidationError(f"cannot write {output}: {exc}; pick a writable path") from exc


# ---------------------------------------------------------------------------
# Flag plumbing
# ---------------------------------------------------------------------------


def _number(convert=float, low: float | None = None, strict: bool = False, allow_inf: bool = False):
    """argparse type that declares a number flag's range beside the flag: NaN is
    refused, +-inf unless the range includes it (Lebesgue exponents p, q in
    [1, inf]), and values below ``low`` (or at it, when ``strict``)."""
    kind = "an integer" if convert is int else "a number or inf" if allow_inf else "a finite number"
    allowed = kind if low is None else f"{kind} {'>' if strict else '>='} {low:g}"

    def parse(text: str):
        value = convert(text)  # an int can be too large for math.isnan, but is finite
        non_finite = convert is float and (math.isnan(value) or (math.isinf(value) and not allow_inf))
        if non_finite or (low is not None and (value <= low if strict else value < low)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {allowed}; pass {allowed}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid float value"
    return parse


def _number_list(item, what: str):
    """argparse type for a nonempty comma-separated list of ``item`` values."""

    def parse(text: str) -> list:
        try:
            values = [item(tok) for tok in text.split(",") if tok.strip()]
        except (ValueError, argparse.ArgumentTypeError):
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma-separated list of {what}; pass {what}, comma separated"
            )
        return values

    return parse


FINITE = _number()
FINITE_OR_INF = _number(allow_inf=True)


def _add_symbol_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--symbol",
        choices=["bessel", "heat", "modulated", "character"],
        help="catalog family: bessel(<xi>^m), heat(e^{-t|xi|^2}), "
        "modulated((c+cos 2 pi x1) g(xi)), character(e^{i 2 pi x1})",
    )
    sub.add_argument("--symbol-file", help="sampled-symbol JSON file")
    sub.add_argument("--m", type=FINITE, help="bracket-power exponent (signed: -4 decays)")
    sub.add_argument("--t", type=FINITE, help="heat/gaussian time parameter")
    sub.add_argument("--c", type=FINITE, help="modulation offset (default 2)")
    sub.add_argument(
        "--g",
        choices=["bracket", "gaussian"],
        help="frequency factor of the modulated family",
    )
    sub.add_argument("--dim", type=int, choices=[1, 2])


def _add_function_flags(sub: argparse.ArgumentParser) -> None:
    """The input function and norm of the dyadic commands (``build_coefficients``)."""
    sub.add_argument("--input", help="periodic-function JSON file")
    sub.add_argument("--character", type=int, help="use e^{i 2 pi K x} instead of a file")
    sub.add_argument("--stock", type=_number(int, low=0), help="use the stock family truncated at K")
    sub.add_argument("--grid", type=_number(int, low=1), help="grid size override")
    lebesgue = _number(low=1, allow_inf=True)  # the Banach range of BesovParams
    sub.add_argument("--w", type=FINITE, required=True)
    sub.add_argument("--p", type=lebesgue, required=True)
    sub.add_argument("--q", type=lebesgue, required=True)


def build_symbol(args) -> Symbol:
    if args.symbol_file:
        if args.symbol:
            raise ValidationError("give either --symbol or --symbol-file, not both")
        for flag in ("m", "t", "c", "g"):  # catalog flags: a table has no use for them
            _require(getattr(args, flag) is None, f"--symbol-file reads a table, not --{flag}; drop --{flag}")
        a = load_sampled_symbol(args.symbol_file)
        _require(args.dim in (None, a.dim), f"--symbol-file holds a dim {a.dim} table; drop --dim")
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
    lattice = (2 * radius + 1) ** dim
    _require(
        lattice <= DUAL_SIZE_LIMIT,
        f"radius {radius} in dim {dim} gives a lattice of {lattice} points, above "
        f"{DUAL_SIZE_LIMIT}; {remedy}",
    )
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
        try:
            f = load_periodic_function(args.input)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"malformed function file: {exc}") from exc
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
             f"{flag} must be {dim} nonnegative integers for dim={dim}, got {','.join(map(str, vals))!r}")
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
    a = build_symbol(args)
    _require_side(a.dim, args.radius)
    lattice = FrequencyLattice(a.dim, args.radius)
    try:
        op = CompressedOperator(a, lattice)
        nuc = op.trace()  # the support table's zero row: sum_xi hat{a}(0, xi)
    except OverflowError as exc:
        raise ValidationError(f"{exc}; {_symbol_remedy(args)}") from exc
    # the diagnostics' refusals come before the eigensolver, the run's costliest step
    diagnostics: dict = {"trace_identity_tolerance": TRACE_IDENTITY_TOL}
    if args.order_hint is not None:
        try:
            diagnostics["tail_estimate"] = tail_estimate(a, lattice, args.order_hint)
        except OverflowError as exc:
            raise ValidationError(f"{exc}; pass an --order-hint nearer the symbol's order") from exc
    if args.certify_w is not None:
        try:
            bound = nuclear_quasinorm_bound(a, 1.0, args.certify_w, lattice)
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
    try:
        eigs = eigenvalues(op)
        spec = fsum_complex(eigs)
    except OverflowError as exc:
        raise ValidationError(f"{exc}; {_symbol_remedy(args)}") from exc
    body = {
        "radius": args.radius,
        "nuclear_trace": nuc,
        "spectral_trace": spec,
        "abs_difference": abs(nuc - spec),
        "eigenvalue_count": int(eigs.size),
    }
    return body, diagnostics, None


def _run_lidskii(args) -> tuple[dict, dict, CsvTable | None]:
    a = build_symbol(args)
    _require_side(a.dim, max(args.radii), "--radii")
    try:
        report = lidskii_compare(a, args.radii)
    except OverflowError as exc:
        raise ValidationError(f"{exc}; {_symbol_remedy(args)}") from exc
    body = {"radii": args.radii, **report}
    if args.require_convergent and report["history_converged"] is False:
        raise NumericalFailure(
            "nuclear-trace increments do not shrink geometrically across the radii"
        )
    csv_table = (
        "N,nuclear_re,nuclear_im,spectral_re,spectral_im,abs_diff",
        (
            [row["radius"], row["nuclear"].real, row["nuclear"].imag, row["spectral"].real,
             row["spectral"].imag, row["abs_diff"]]
            for row in report["history"]
        ),
    )
    diagnostics = {
        "increment_rule": f"converged when each of the last {SHELL_RATIO_COUNT} increment ratios "
        f"(all, when fewer) is <= {SHELL_RATIO_LIMIT:g}",
        "note": "nuclear/spectral agreement at every radius is a property of the "
        "finite compression; summability of the full operator is what the "
        "nuclearity checkers certify",
    }
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
    a = build_symbol(args)
    # the fit's lattice, on the dual series' size scale, refused before it is built
    points = (2 * args.radius + 1) ** a.dim
    _require(
        points <= DUAL_SIZE_LIMIT,
        f"radius {args.radius} in dim {a.dim} gives a lattice of {points} points, above "
        f"{DUAL_SIZE_LIMIT}; lower --radius",
    )
    lattice = FrequencyLattice(a.dim, args.radius)
    alpha = _multi_index(args.alpha_idx, a.dim, "--alpha-idx")
    beta = _multi_index(args.beta_idx, a.dim, "--beta-idx")
    try:
        m_hat, c_hat = estimate_order(a, alpha, beta, lattice)
    except OverflowError as exc:
        raise ValidationError(f"{exc}; lower --m, --alpha-idx or --beta-idx") from exc
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
        c_est = fourier_decay_constant(a, args.decay_k, args.decay_m, delta, lattice)
        body["decay_constant"] = {
            "k": args.decay_k,
            "m": args.decay_m,
            "delta": delta,
            "C_est": c_est,
        }
        if isinstance(a, SampledSymbol):
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
        checker = check_t1 if args.theorem == "t1" else check_t2  # unset --p2, --q2: its default 2
        verdict = checker(**{flag: getattr(args, flag) for flag in needed + ("p2", "q2")
                             if getattr(args, flag) is not None})
    else:
        _require(args.case is not None, "--theorem tt1 needs --case 1|2|3|4")
        for flag in ("r", "p", "q", "cutoff"):
            _require(getattr(args, flag) is not None, f"--theorem tt1 needs --{flag}")
        args.group, args.dim = args.group or "torus", args.dim or 1
        dual = _dual(args)
        if args.symbol == "heat":
            _require(args.t is not None, "tt1 heat multiplier needs --t TIME")
            t = args.t
            symbol_fn = lambda dual: np.exp(-t * dual.lam)  # noqa: E731
        else:
            _require(args.m is not None, "tt1 bracket multiplier needs --m EXPONENT")
            m = args.m
            symbol_fn = lambda dual: dual.bracket**m  # noqa: E731
        try:
            verdict = check_tt1(dual, symbol_fn, args.r, args.p, args.q, args.case)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        except OverflowError as exc:  # finite terms whose exactly rounded sum leaves float64
            flag = "raise --t" if args.symbol == "heat" else "lower --m"
            raise ValidationError(f"the series terms sum beyond float64; {flag} or lower --cutoff") from exc
    return verdict, {"strictness": "strict inequalities checked strictly"}, None


def _dual(args, half_integers: bool = True):
    """The dual slice the flags ask for, one row per distinct lambda (every CLI
    series term depends on lambda alone), refused (exit 2) above the size budget or
    when a flag asks for what the group does not have."""
    _require(args.group == "torus" or args.dim == 1,
             f"--dim {args.dim} counts torus factors; the su2 dual is indexed by spin alone, "
             "so drop --dim")
    _require(args.group == "su2" or half_integers,
             "--integer-spins restricts the su2 spins; drop it for --group torus")
    try:
        return enumerate_dual(args.group, args.cutoff, dim=args.dim, half_integers=half_integers)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _run_heat_trace(args) -> tuple[dict, dict, CsvTable | None]:
    dual = _dual(args, half_integers=not args.integer_spins)
    value, diag = summed_series(dual, heat_terms(dual, args.t))
    body = {"group": args.group, "dim": args.dim, "t": args.t, "cutoff": args.cutoff,
            "value": value}
    return body, diag, None


def _run_bessel_trace(args) -> tuple[dict, dict, CsvTable | None]:
    if args.tail_correct:  # refused, or computed, before the dual is built
        _require(args.group == "torus" and args.dim == 1,
                 "tail correction is implemented for the torus with dim = 1; drop --tail-correct")
        try:
            tail = bessel_tail(args.cutoff, args.alpha)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    dual = _dual(args, half_integers=not args.integer_spins)
    divergent = args.alpha <= dual.group_dimension
    try:
        value, diag = summed_series(dual, bessel_terms(dual, args.alpha), divergent=divergent)
    except OverflowError as exc:  # finite terms whose exactly rounded sum leaves float64
        raise ValidationError("the series terms sum beyond float64; raise --alpha or lower --cutoff") from exc
    if args.tail_correct:
        value += tail
    diag["divergent"] = divergent
    body = {
        "group": args.group,
        "dim": args.dim,
        "alpha": args.alpha,
        "cutoff": args.cutoff,
        "tail_corrected": bool(args.tail_correct),
        "value": value,
    }
    if divergent and args.require_convergent:
        raise NumericalFailure(
            f"alpha = {args.alpha} diverges on a dual of dimension {dual.group_dimension}"
        )
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
    a = build_symbol(args)
    _require_side(a.dim, args.radius)
    lattice = FrequencyLattice(a.dim, args.radius)
    try:
        op = CompressedOperator(a, lattice)
        eigs, residuals = eigenvalues(op, with_residuals=True)
        trace = op.trace()
    except OverflowError as exc:
        raise ValidationError(f"{exc}; {_symbol_remedy(args)}") from exc
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
        "trace": trace,
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, or only ``command``'s subparser.

    Each ``add_argument`` builds a help formatter (terminal size, gettext
    lookups), so the whole parser costs more than many commands' numerics;
    ``main`` builds only the subcommand it runs.  The top-level usage names
    every command either way, so help, usage and errors do not depend on it.
    """
    parser = argparse.ArgumentParser(
        prog="torustrace",
        description="Toroidal operator calculus: traces, dyadic norms, nuclearity checks",
    )
    # an explicit metavar would rename the missing-command error, so only a partial parser sets it
    metavar = None if command is None else "{" + ",".join(HANDLERS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str, help: str):
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        # no option string starts with "-" and a digit, so "-1,0" and "-1e1" are values
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        return p

    natural = _number(int, low=0)
    naturals = _number_list(natural, "integers >= 0")
    cutoff = _number(low=0)

    if p := add("trace", "nuclear and spectral trace at one radius"):
        _add_symbol_flags(p)
        p.add_argument("--radius", type=natural, required=True)
        p.add_argument("--order-hint", type=FINITE, dest="order_hint",
                       help="power-law order for the truncation tail bound")
        p.add_argument("--certify-w", type=FINITE, dest="certify_w",
                       help="also report the quasi-norm certificate at this weight")

    if p := add("lidskii", "trace identity across increasing radii"):
        _add_symbol_flags(p)
        p.add_argument("--radii", type=naturals, required=True,
                       help="comma-separated increasing radii")
        p.add_argument("--require-convergent", action="store_true", dest="require_convergent")

    if p := add("besov-norm", "dyadic-block norm of a sampled function"):
        _add_function_flags(p)
        p.add_argument("--radius", type=natural, required=True)

    if p := add("check-class", "empirical symbol order and Fourier decay"):
        _add_symbol_flags(p)
        p.add_argument("--radius", type=_number(int, low=8), required=True)
        p.add_argument("--alpha-idx", type=naturals, default="0", dest="alpha_idx",
                       help="difference multi-index, comma separated")
        p.add_argument("--beta-idx", type=naturals, default="0", dest="beta_idx",
                       help="x-derivative multi-index, comma separated")
        p.add_argument("--decay-k", type=_number(int, low=1), dest="decay_k")
        p.add_argument("--decay-m", type=FINITE, dest="decay_m")
        p.add_argument("--decay-delta", type=FINITE, dest="decay_delta")

    if p := add("nuclearity", "run a sufficient-condition checker"):
        p.add_argument("--theorem", choices=["t1", "t2", "tt1"], required=True)
        p.add_argument("--case", type=int, choices=[1, 2, 3, 4])
        p.add_argument("--n", type=int, choices=[1, 2])
        p.add_argument("--r", type=FINITE)
        p.add_argument("--alpha", type=FINITE)
        p.add_argument("--p1", type=FINITE)
        p.add_argument("--k", type=int)
        p.add_argument("--delta", type=FINITE)
        p.add_argument("--m", type=FINITE)
        p.add_argument("--w2", type=FINITE)
        p.add_argument("--p2", type=FINITE_OR_INF)
        p.add_argument("--q2", type=FINITE_OR_INF)
        p.add_argument("--p", type=FINITE_OR_INF)
        p.add_argument("--q", type=FINITE_OR_INF)
        p.add_argument("--group", choices=["torus", "su2"])
        p.add_argument("--dim", type=int, choices=[1, 2])
        p.add_argument("--cutoff", type=cutoff)
        p.add_argument("--symbol", choices=["bessel", "heat"])
        p.add_argument("--t", type=FINITE)

    if p := add("heat-trace", "sum d^2 exp(-t lambda) over a dual"):
        p.add_argument("--group", choices=["torus", "su2"], required=True)
        p.add_argument("--dim", type=int, default=1, choices=[1, 2])
        p.add_argument("--t", type=_number(low=0, strict=True), required=True)
        p.add_argument("--cutoff", type=cutoff, required=True)
        p.add_argument("--integer-spins", action="store_true", dest="integer_spins")

    if p := add("bessel-trace", "sum d^2 bracket^(-alpha) over a dual"):
        p.add_argument("--group", choices=["torus", "su2"], required=True)
        p.add_argument("--dim", type=int, default=1, choices=[1, 2])
        p.add_argument("--alpha", type=FINITE, required=True)
        p.add_argument("--cutoff", type=cutoff, required=True)
        p.add_argument("--tail-correct", action="store_true", dest="tail_correct")
        p.add_argument("--require-convergent", action="store_true", dest="require_convergent")
        p.add_argument("--integer-spins", action="store_true", dest="integer_spins")

    if p := add("approx-demo", "partial-sum convergence in a dyadic norm"):
        _add_function_flags(p)
        p.add_argument("--n-values", type=_number_list(FINITE, "finite numbers"), required=True,
                       dest="n_values")
        p.add_argument("--radius", type=natural)

    if p := add("spectrum", "eigenvalues of the compressed operator"):
        _add_symbol_flags(p)
        p.add_argument("--radius", type=natural, required=True)
        p.add_argument("--matrix-csv", dest="matrix_csv",
                       help="also export the matrix as eta,xi,re,im CSV")

    for p in sub.choices.values():  # flags common to every subcommand, after its own
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    """Run one command; only its subparser is built (all of them for help or a typo)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in HANDLERS else None
    parser = build_parser(command)
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:  # a flag the command lacks is reported with the command's usage
            args, extras = parser.parse_known_args(argv)
            if extras:
                (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
                sub.choices[command].error(f"unrecognized arguments: {' '.join(extras)}")
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
    except (ValidationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (EigensolverError, NumericalFailure) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    return 0


def entrypoint() -> None:
    """The ``torustrace`` console script and ``python -m torustrace.cli``.

    A command is one short process, and the objects numpy and this package
    create at import (about 22 thousand containers) outlive it.  Freezing
    them moves them to the permanent generation, so neither a full collection
    during the run nor the collection at interpreter exit walks them again;
    that exit walk was most of the time from the end of import to the end of
    the process.  ``main`` does not freeze: callers that run it in-process
    keep their heap as it was.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
