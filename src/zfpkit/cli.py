"""Command-line interface tying the codec, bounds, and harness together.

Subcommands:

    compress    raw IEEE grid file -> container
    decompress  container -> raw IEEE grid file
    bounds      print the error constants / mode-selection formulas
    experiment  worst-case sweeps or real-grid analyses, CSV out

Output files are written to a temp file and renamed, so a failing run
never leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile

import numpy as np

from . import bounds as B
from . import experiments as X
from .codec import (
    DEFAULT_EXPONENT_BITS,
    CodecParams,
    ContainerError,
    GridShapeError,
    ParamError,
    check_exponent_bits,
    compress,
    decompress,
    read_header,
)

_SCALAR_BYTES = {"f32": 4, "f64": 8}
_SCALAR_DEFAULTS = {"f32": (24, 30), "f64": (53, 62)}


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zfpkit-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise GridShapeError(f"cannot parse dims {text!r}") from None
    if not dims:
        raise GridShapeError("dims must name at least one axis")
    return dims


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Accept '2,4,8' or 'lo:hi[:step]' (hi inclusive)."""
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        lo, hi = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        if step < 1 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        return tuple(range(lo, hi + 1, step))
    return tuple(int(p) for p in text.split(",") if p != "")


def _precision(args) -> tuple[int, int]:
    """(k, q): --k and --q where given, else the pairing of --scalar."""
    k_default, q_default = _SCALAR_DEFAULTS[args.scalar]
    return (args.k if args.k is not None else k_default,
            args.q if args.q is not None else q_default)


def _top_beta(d: int, q: int) -> int:
    """The default beta: beta_default_max(d, q), at least 0."""
    return max(B.beta_default_max(d, q), 0)


def _default_betas(candidates: tuple[int, ...], d: int, q: int) -> tuple[int, ...]:
    """The candidates up to the default beta, and the default beta itself."""
    top = _top_beta(d, q)
    return tuple(sorted({b for b in candidates if b <= top} | {top}))


def _build_params(args, d: int) -> CodecParams:
    k, q = _precision(args)
    beta = args.beta if args.beta is not None else _top_beta(d, q)
    return CodecParams(d, k, q, beta, allow_wide_beta=args.allow_appendix_b)


def cmd_compress(args) -> int:
    dims = _parse_dims(args.dims)
    d = args.d if args.d is not None else len(dims)
    if d != len(dims):
        raise GridShapeError(f"--d {d} disagrees with {len(dims)} dims")
    params = _build_params(args, d)
    grid = X.load_raw_grid(args.input, dims, args.scalar)
    payload = compress(grid, params, b_e=args.b_e)
    out = args.out or args.input + ".zfpk"
    _atomic_write(out, payload)
    raw = grid.size * _SCALAR_BYTES[args.scalar]
    name = "K_beta" if B.k_beta_applies(params.d, params.q, params.beta) else "B_beta"
    print(f"wrote {out}: {len(payload)} bytes, ratio {raw / len(payload):.4g}, "
          f"{name} = {float(X.applicable_bound_exact(params)):.6g}")
    return 0


def cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    header, _ = read_header(data)
    grid = decompress(data)
    scalar = args.scalar or ("f32" if header.k == 24 else "f64")
    dtype = np.float32 if scalar == "f32" else np.float64
    out = args.out or args.input + ".raw"
    _atomic_write(out, grid.astype(dtype).tobytes())
    print(f"wrote {out}: dims {'x'.join(map(str, header.dims))}, {scalar}")
    return 0


def _check_beta(beta: int, q: int) -> None:
    """Refuse a beta above q + 2, the most planes a container holds."""
    if beta > q + 2:
        raise ParamError(f"beta must be in [0, q+2] = [0, {q + 2}], got {beta}")


def cmd_bounds(args) -> int:
    if args.surface:
        if args.b_e is not None:
            raise ParamError("--b-e does not apply to --surface: the table has no rate column")
        d_range = _parse_int_list(args.d_range)
        k, q = _precision(args)
        beta_range = _parse_int_list(args.beta_range) if args.beta_range else range(1, q + 3)
        B.BoundInputs(d=1, k=k, q=q, beta=0)  # refuses k or q below 2 before any beta
        _check_beta(max(beta_range, default=0), q)
        rows = B.kbeta_surface(d_range, beta_range, k, q)
        buf = io.StringIO()
        B.write_surface_csv(rows, buf)
        _emit(buf.getvalue(), args.out)
        return 0
    if args.k is None or args.q is None or args.d is None or args.beta is None:
        raise ParamError("bounds needs --d, --k, --q and --beta (or --surface)")
    b_e = DEFAULT_EXPONENT_BITS if args.b_e is None else args.b_e
    check_exponent_bits(b_e)
    inp = B.BoundInputs(d=args.d, k=args.k, q=args.q, beta=args.beta,
                        e_max=args.e_max, e_min=args.e_min, b=args.b, b_e=b_e)
    _check_beta(args.beta, args.q)
    tight_max = B.beta_default_max(args.d, args.q)
    kb = B.k_beta(inp, allow_out_of_regime=True)
    regime = "" if args.beta <= tight_max else f"  (outside beta <= {tight_max})"
    # every line is computed before the first is printed, so a refused input prints nothing
    lines = [f"K_beta      = {kb:.10g}{regime}"]
    if not B.k_beta_applies(args.d, args.q, args.beta):
        lines.append(f"B_beta      = {B.b_beta(inp):.10g}")
    if args.e_max is not None and args.e_min is not None:
        cw = B.componentwise_bound(inp, allow_out_of_regime=True)
        lines.append(f"comp bound  = {cw:.10g}  (rho = {args.e_max - args.e_min})")
    if args.b is not None:
        if args.e_max is None:
            raise ParamError("an accuracy target needs --e-max as well as --b")
        try:
            beta_needed = B.beta_for_accuracy(inp)
            lines.append(f"beta for 2^-{args.b} accuracy at e_max={args.e_max}: {beta_needed}")
        except B.InfeasibleAccuracyError as e:
            lines.append(f"beta for 2^-{args.b} accuracy: infeasible ({e})")
    rate = B.rate_lower_bound(args.beta, args.d, b_e)
    lines.append(f"rate bound  >= {float(rate):.10g} bits/value (b_e = {b_e})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_experiment(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ParamError(f"--threads must be at least 1, got {args.threads}")
    k, q = _precision(args)
    if args.grid:
        if not args.dims:
            raise GridShapeError("--grid needs --dims")
        dims = _parse_dims(args.dims)
        grid = X.load_raw_grid(args.grid, dims, args.scalar)
        betas = (_parse_int_list(args.beta_range) if args.beta_range
                 else _default_betas((2, 4, 8, 16), len(dims), q))
        rows = X.analyze_grid(grid, k, q, betas, _SCALAR_BYTES[args.scalar],
                              allow_wide_beta=args.allow_appendix_b, b_e=args.b_e)
        buf = io.StringIO()
        X.write_grid_csv(rows, buf)
        _emit(buf.getvalue(), args.out)
        bad = sum(r.violations for r in rows)
        if bad:
            print(f"ERROR: {bad} block(s) exceeded the error bound", file=sys.stderr)
            return 1
        return 0
    if args.b_e is not None:
        raise ParamError("--b-e applies only with --grid: a sweep writes no container")
    d = args.d if args.d is not None else 1
    betas = (_parse_int_list(args.beta_range) if args.beta_range
             else _default_betas((8, 16, 32, 48), d, q))
    rhos = _parse_int_list(args.rho_list)
    spec = X.WorstCaseSpec(d=d, k=k, q=q, betas=betas, rhos=rhos, e_min=args.e_min or 0,
                           trials=args.trials, seed=args.seed,
                           float32=(args.scalar == "f32"),
                           allow_wide_beta=args.allow_appendix_b)
    cells, violators = X.sweep(spec, threads=args.threads)
    buf = io.StringIO()
    X.write_sweep_csv(cells, buf)
    _emit(buf.getvalue(), args.out)
    if violators:
        for rec in violators:
            print(f"VIOLATION: {rec}", file=sys.stderr)
        return 1
    return 0


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text.encode())
    else:
        sys.stdout.write(text)


def _add_common_params(sp, with_beta=True):
    sp.add_argument("--scalar", choices=("f32", "f64"), default="f64",
                    help="source scalar width (sets default k and q)")
    sp.add_argument("--d", type=int, default=None, help="grid dimensionality")
    sp.add_argument("--k", type=int, default=None, help="significand bits of the source")
    sp.add_argument("--q", type=int, default=None, help="block integer precision")
    if with_beta:
        sp.add_argument("--beta", type=int, default=None, help="bit planes kept")
    sp.add_argument("--b-e", type=int, default=None,
                    help="container exponent field width, 2..32 (default 11, or 12 when "
                         "a block is subnormal; bounds takes 11; experiment needs --grid)")


def _add_wide_beta(sp):
    sp.add_argument("--allow-appendix-b", action="store_true",
                    help="permit beta in (q-2d+2, q+2] (looser bound applies)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfpkit",
        description="Fixed-precision block compressor with verified error bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compress", help="compress a raw IEEE grid file")
    sp.add_argument("input")
    sp.add_argument("--dims", required=True, help="comma-separated grid extents")
    _add_common_params(sp)
    _add_wide_beta(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_compress)

    sp = sub.add_parser("decompress", help="decompress a container")
    sp.add_argument("input")
    sp.add_argument("--scalar", choices=("f32", "f64"), default=None,
                    help="output scalar width (default: inferred from k)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_decompress)

    sp = sub.add_parser("bounds", help="evaluate the error-bound formulas")
    _add_common_params(sp)
    sp.add_argument("--e-max", type=int, default=None, help="block exponent")
    sp.add_argument("--e-min", type=int, default=None, help="smallest block exponent")
    sp.add_argument("--b", type=int, default=None, help="accuracy target in bits")
    sp.add_argument("--surface", action="store_true",
                    help="emit the (d, beta) -> log10 K_beta table as CSV")
    sp.add_argument("--d-range", default="1:5", help="surface d range, lo:hi[:step]")
    sp.add_argument("--beta-range", default=None,
                    help="surface beta list '2,4,8' or range 'lo:hi[:step]' (default 1:q+2)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("experiment", help="bound-verification sweeps (CSV)")
    _add_common_params(sp, with_beta=False)
    _add_wide_beta(sp)
    sp.add_argument("--beta-range", default=None,
                    help="beta list '2,4,8' or range 'lo:hi[:step]'")
    sp.add_argument("--rho-list", default="0,7,14", help="exponent ranges to sweep")
    sp.add_argument("--e-min", type=int, default=0, help="base exponent of generated blocks")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=None,
                    help="worker processes (ZFPKIT_THREADS caps this)")
    sp.add_argument("--grid", default=None, help="analyze a raw grid file instead")
    sp.add_argument("--dims", default=None, help="dims of --grid")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParamError, ContainerError, GridShapeError, B.BoundDomainError,
            ValueError, OSError) as e:
        print(f"zfpkit: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
