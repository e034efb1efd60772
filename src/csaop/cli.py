"""Command-line front end.

Each subcommand reads matrix/antiunitary JSON files (see ``serialize``),
runs one library operation, prints a one-line summary to stdout, and
optionally writes a JSON or CSV artifact. Exit status: 0 on success, 1 on
a ``CsaopError`` (not C-self-adjoint, shift in the spectrum, ...), 2 on
``OSError``, ``ValueError`` (each ``serialize`` reader raises one for any
malformed object) and ``MemoryError`` (``--res``, ``--n`` too large to
allocate). Nothing else is caught.

:func:`main` is the one front end: it loads ``--H`` and then ``--C``,
builds the ``Tolerance`` and writes ``--out``. A handler gets the parsed
arguments, H, C and the tolerance (``None`` where its subcommand has no
such option), prints its summary and returns a builder of its artifact,
CSV text or a JSON object, which runs only when ``--out`` is given.

:func:`build_parser` builds the argparse tree on its first call and
returns that same parser from then on, so a process that calls
:func:`main` many times parses every call with one parser. argparse keeps
no state between parses: each gets a fresh namespace, and help and
errors go to the ``sys.stdout`` and ``sys.stderr`` of the moment. Callers
must not change the parser that :func:`build_parser` returns. A malformed
option value, or a count below its least (``--res`` under 2, ``--n`` and
``--N`` under 1), exits 2, before any file is read, with argparse's
``argument --opt: ...`` line.

:func:`main` runs each command with CPython's cyclic garbage collector
paused and then restores the caller's setting (``gc.isenabled()``), on
every way out: a return, an exception, argparse's ``SystemExit``. A
128x128 matrix is 16,384 ``[re, im]`` lists, each one an allocation the
collector tracks, so with the collector running a ``polar`` on 128x128
inputs runs 117 collections, none of which can free anything: JSON trees
hold no reference cycles, and reference counting frees every tree as
soon as it is dropped.
"""

from __future__ import annotations

import argparse
import functools
import gc
import re
import sys

import numpy as np

from . import antieig, csa, decomp, modelspaces, pauli, serialize
from .errors import CsaopError
from .linalg import DEFAULT_TOL, Tolerance, fro


def _parse_floats(form: str):
    """An argparse type: a tuple of as many comma-separated floats as ``form`` (``'re,im'``) names."""

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(map(float, text.split(",")))
        except ValueError:
            values = ()
        if len(values) != form.count(",") + 1:
            raise argparse.ArgumentTypeError(f"expected {form!r}, got {text!r}")
        return values

    return parse


def _parse_seed(text: str) -> int:
    """A seed ``numpy.random.default_rng`` takes: an integer from 0 up, of any size."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _parse_at_least(name: str, least: int):
    """An argparse type: an integer of at least ``least``, reported as ``name``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be at least {least}, got {text!r}")
        return value

    return parse


def _check(args, H, C, tol):
    checker = csa.check_c_real if args.real else csa.check_c_selfadjoint
    report = checker(H, C, tol)
    kind = "c_real" if args.real else "c_selfadjoint"
    print(f"{kind} residual={report.residual:.6e} is_csa={str(report.is_csa).lower()}")
    return report.to_json


def _gen_csa(args, H, C, tol):
    H = csa.generate_csa(C, args.seed)
    report = csa.check_c_selfadjoint(H, C)
    print(f"generated dim={H.shape[0]} seed={args.seed} residual={report.residual:.6e}")
    return lambda: serialize.matrix_to_json(H)


def _polar(args, H, C, tol):
    polar = decomp.refined_polar(H, C, tol)
    recon, commute = polar.residuals["polar"], polar.residuals["commutation"]
    # U is a partial isometry, so ||U||_F^2 is its rank
    print(f"polar residual={recon:.6e} commutation={commute:.6e} rank={round(fro(polar.U) ** 2)}")
    return lambda: serialize.polar_to_json(polar)


def _refined_svd(args, H, C, tol):
    expansion = decomp.refined_svd(H, C, tol)
    recon = expansion.residuals["reconstruction"]
    print(f"refined-svd count={len(expansion.sigmas)} reconstruction={recon:.6e}")
    return lambda: serialize.refined_svd_to_json(expansion)


def _anti_eig(args, H, C, tol):
    system = antieig.antilinear_eigensystem(H, C, complex(*args.z), tol)
    lambda1 = float(system.lambdas[0])  # ||R(z)|| = 1 / lambda1: a Python float, inf past 1e308 with no warning
    print(f"anti-eig count={len(system.lambdas)} lambda1={lambda1:.6e} resolvent_norm={1.0 / lambda1:.6e}")
    return lambda: serialize.eigensystem_to_json(system)


def _pseudospec(args, H, C, tol):
    grid = antieig.pseudospectrum(H, args.epsilon, args.grid, args.res)
    inside = int(np.count_nonzero(grid.in_pseudospectrum))
    print(f"pseudospec points={len(grid.zs)} inside={inside} epsilon={args.epsilon}")
    return lambda: serialize.pseudospectrum_csv(grid)


def _pauli_spectrum(args, H, C, tol):
    if not np.isfinite(args.kmax):
        raise ValueError("--kmax must be finite")  # before linspace turns it into nan
    # near |kmax| = 1e308 the grid overflows quietly; spectrum_sample rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        k_grid = np.linspace(-args.kmax, args.kmax, args.n)
    sample = pauli.spectrum_sample(args.alpha, k_grid)
    lam_min = sample.eigenvalues.real.min()
    print(f"pauli-spectrum alpha={args.alpha} points={args.n} min_re={lam_min:.6e}")
    return lambda: serialize.pauli_spectrum_csv(sample)


def _model_space(args, H, C, tol):
    if args.toeplitz:
        if not (args.phi1 and args.phi2) or args.N is None:
            raise ValueError("--toeplitz needs --phi1, --phi2 and --N")
        phi1 = serialize.symbol_from_json(serialize.load_json(args.phi1))
        phi2 = serialize.symbol_from_json(serialize.load_json(args.phi2))
        H = modelspaces.build_T(phi1, phi2, args.N)
        summary = f"model-space toeplitz N={args.N}"
        if args.N % 2 == 0:
            C = modelspaces.example2_conjugation(args.N)
            summary += f" residual={csa.check_c_selfadjoint(H, C).residual:.6e}"
    elif args.gamma is not None:
        C = modelspaces.conjugation_c_gamma(args.gamma)
        summary = f"model-space gamma N={args.gamma}"
    else:
        rng = np.random.default_rng(args.seed)
        params = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        if args.example == 1:
            H = modelspaces.example1_matrix(*params)
            C = modelspaces.conjugation_c_alphabeta(2, 2, np.pi)
        else:
            H = modelspaces.example2_matrix(*params)
            C = modelspaces.example2_conjugation(4)
        report = csa.check_c_selfadjoint(H, C)
        summary = f"model-space example={args.example} seed={args.seed} residual={report.residual:.6e}"
    print(summary)
    return lambda: {
        **({} if H is None else {"H": serialize.matrix_to_json(H)}),
        **({} if C is None else {"C": serialize.antiunitary_to_json(C)}),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    h_file = argparse.ArgumentParser(add_help=False)
    h_file.add_argument("--H", required=True, metavar="PATH", help="matrix JSON file")
    c_file = argparse.ArgumentParser(add_help=False)
    c_file.add_argument("--C", required=True, metavar="PATH", help="antiunitary JSON file")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol-abs", type=float, default=DEFAULT_TOL.abs,
        help="absolute tolerance, times s at scale s < 1",
    )
    tol.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.rel, help="relative tolerance")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write the JSON (CSV for the two scans) artifact here")

    parser = argparse.ArgumentParser(
        prog="csaop",
        description="Antiunitary symmetries and complex-self-adjoint matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, *parents):
        p = sub.add_parser(name, help=text, parents=[*parents, out])
        p.set_defaults(run=run)
        return p

    p = command("check", _check, "C-self-adjointness (or C-reality) residual check", h_file, c_file, tol)
    p.add_argument("--real", action="store_true", help="check C H C^-1 = H instead of H*")

    p = command("gen-csa", _gen_csa, "generate a random C-self-adjoint matrix", c_file)
    p.add_argument("--seed", type=_parse_seed, required=True)

    command("polar", _polar, "refined polar decomposition H = C^-1 J |H|", h_file, c_file, tol)
    command("refined-svd", _refined_svd, "singular-value expansion with J-fixed vectors", h_file, c_file, tol)

    p = command(
        "anti-eig", _anti_eig, "antilinear eigenvalue problem (H - zI) psi = lambda C psi", h_file, c_file, tol
    )
    p.add_argument("--z", type=_parse_floats("re,im"), required=True, metavar="RE,IM")

    p = command("pseudospec", _pseudospec, "resolvent-norm grid scan", h_file)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument(
        "--grid", type=_parse_floats("re_min,re_max,im_min,im_max"), required=True, metavar="RE0,RE1,IM0,IM1"
    )
    p.add_argument(
        "--res", type=_parse_at_least("resolution", 2), required=True, help="grid points per axis (>= 2)"
    )

    p = command("pauli-spectrum", _pauli_spectrum, "exact symbol spectrum of the spin toy model")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--n", type=_parse_at_least("n", 1), required=True, help="momentum grid points (>= 1)")

    p = command("model-space", _model_space, "model-space fixtures and Toeplitz compressions")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--example", type=int, choices=(1, 2), help="structured 4x4 fixture")
    mode.add_argument("--gamma", type=int, metavar="N", help="natural conjugation on dim N")
    mode.add_argument("--toeplitz", action="store_true", help="build a parity-split compression")
    p.add_argument("--seed", type=_parse_seed, default=0, help="fixture parameter seed")
    p.add_argument("--phi1", metavar="PATH", help="symbol JSON (toeplitz mode)")
    p.add_argument("--phi2", metavar="PATH", help="symbol JSON (toeplitz mode)")
    p.add_argument("--N", type=_parse_at_least("N", 1), help="compression dimension (toeplitz mode, >= 1)")

    return parser


def _join_negative_values(argv) -> list[str]:
    """``--opt -1e-3`` -> ``--opt=-1e-3``: argparse takes a value that starts
    with a minus and is not a plain number (``-1e-3``, ``-1.``, ``-1,0``) for
    an option."""
    joined = []
    for token in argv:
        if joined and re.fullmatch(r"--[^=]+", joined[-1]) and re.match(r"-[\d.]", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        H = serialize.matrix_from_json(serialize.load_json(args.H)) if "H" in args else None
        C = serialize.antiunitary_from_json(serialize.load_json(args.C)) if "C" in args else None
        tol = Tolerance(args.tol_abs, args.tol_rel) if "tol_abs" in args else None
        artifact = args.run(args, H, C, tol)
        if args.out:
            payload = artifact()
            if isinstance(payload, str):
                with open(args.out, "w", encoding="utf-8", newline="") as handle:
                    handle.write(payload)
            else:
                serialize.dump_json(payload, args.out)
        return 0
    except CsaopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, MemoryError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
