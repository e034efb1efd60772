"""Command-line front end.

Each subcommand reads matrix/antiunitary JSON files (see ``serialize``),
runs one library operation, prints a one-line summary to stdout, and
optionally writes a JSON or CSV artifact. Exit status: 0 on success, 1 on
domain errors (not C-self-adjoint, unsupported degeneracy, shift in the
spectrum, ...), 2 on I/O or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import antieig, csa, decomp, modelspaces, pauli, serialize
from .errors import CsaopError
from .linalg import DEFAULT_TOL, Tolerance, fro


def _parse_complex(text: str) -> complex:
    try:
        re, im = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected 're,im', got {text!r}") from exc
    return complex(re, im)


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 're_min,re_max,im_min,im_max', got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _tolerance(args) -> Tolerance:
    return Tolerance(
        abs=args.tol_abs if args.tol_abs is not None else DEFAULT_TOL.abs,
        rel=args.tol_rel if args.tol_rel is not None else DEFAULT_TOL.rel,
    )


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _add_tol_flags(parser):
    parser.add_argument("--tol-abs", type=float, default=None, help="absolute tolerance")
    parser.add_argument("--tol-rel", type=float, default=None, help="relative tolerance")


def _add_hc_flags(parser, need_c=True):
    parser.add_argument("--H", required=True, metavar="PATH", help="matrix JSON file")
    if need_c:
        parser.add_argument("--C", required=True, metavar="PATH", help="antiunitary JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csaop",
        description="Antiunitary symmetries and complex-self-adjoint matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="C-self-adjointness (or C-reality) residual check")
    _add_hc_flags(p)
    p.add_argument("--real", action="store_true", help="check C H C^-1 = H instead of H*")
    _add_tol_flags(p)
    p.add_argument("--out", metavar="PATH", help="write the report JSON here")

    p = sub.add_parser("gen-csa", help="generate a random C-self-adjoint matrix")
    p.add_argument("--C", required=True, metavar="PATH")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="PATH", help="write the matrix JSON here")

    p = sub.add_parser("polar", help="refined polar decomposition H = C^-1 J |H|")
    _add_hc_flags(p)
    _add_tol_flags(p)
    p.add_argument("--out", metavar="PATH", help="write {absH, U, J} JSON here")

    p = sub.add_parser("refined-svd", help="singular-value expansion with J-fixed vectors")
    _add_hc_flags(p)
    _add_tol_flags(p)
    p.add_argument("--out", metavar="PATH", help="write {sigmas, phis, etas} JSON here")

    p = sub.add_parser("anti-eig", help="antilinear eigenvalue problem (H - zI) psi = lambda C psi")
    _add_hc_flags(p)
    p.add_argument("--z", type=_parse_complex, required=True, metavar="RE,IM")
    _add_tol_flags(p)
    p.add_argument("--out", metavar="PATH", help="write {z, lambdas, psis} JSON here")

    p = sub.add_parser("pseudospec", help="resolvent-norm grid scan")
    _add_hc_flags(p, need_c=False)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--grid", type=_parse_bounds, required=True, metavar="RE0,RE1,IM0,IM1")
    p.add_argument("--res", type=int, required=True, help="grid points per axis (>= 2)")
    p.add_argument("--out", metavar="PATH", help="write the CSV here")

    p = sub.add_parser("pauli-spectrum", help="exact symbol spectrum of the spin toy model")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="momentum grid points")
    p.add_argument("--out", metavar="PATH", help="write the CSV here")

    p = sub.add_parser("model-space", help="model-space fixtures and Toeplitz compressions")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--example", type=int, choices=(1, 2), help="structured 4x4 fixture")
    mode.add_argument("--gamma", type=int, metavar="N", help="natural conjugation on dim N")
    mode.add_argument("--toeplitz", action="store_true", help="build a parity-split compression")
    p.add_argument("--seed", type=int, default=0, help="fixture parameter seed")
    p.add_argument("--phi1", metavar="PATH", help="symbol JSON (toeplitz mode)")
    p.add_argument("--phi2", metavar="PATH", help="symbol JSON (toeplitz mode)")
    p.add_argument("--N", type=int, help="compression dimension (toeplitz mode)")
    p.add_argument("--out", metavar="PATH", help="write the result JSON here")

    return parser


def _load_matrix(path):
    return serialize.matrix_from_json(serialize.load_json(path))


def _load_antiunitary(path):
    return serialize.antiunitary_from_json(serialize.load_json(path))


def _cmd_check(args) -> int:
    H = _load_matrix(args.H)
    C = _load_antiunitary(args.C)
    tol = _tolerance(args)
    checker = csa.check_c_real if args.real else csa.check_c_selfadjoint
    report = checker(H, C, tol)
    kind = "c_real" if args.real else "c_selfadjoint"
    print(f"{kind} residual={report.residual:.6e} is_csa={str(report.is_csa).lower()}")
    if args.out:
        serialize.dump_json(report.to_json(), args.out)
    return 0


def _cmd_gen_csa(args) -> int:
    C = _load_antiunitary(args.C)
    H = csa.generate_csa(C, args.seed)
    report = csa.check_c_selfadjoint(H, C)
    print(f"generated dim={H.shape[0]} seed={args.seed} residual={report.residual:.6e}")
    if args.out:
        serialize.dump_json(serialize.matrix_to_json(H), args.out)
    return 0


def _cmd_polar(args) -> int:
    H = _load_matrix(args.H)
    C = _load_antiunitary(args.C)
    tol = _tolerance(args)
    polar = decomp.refined_polar(H, C, tol)
    recon, commute = polar.residuals["polar"], polar.residuals["commutation"]
    # U is a partial isometry, so ||U||_F^2 is its rank
    print(f"polar residual={recon:.6e} commutation={commute:.6e} rank={round(fro(polar.U) ** 2)}")
    if args.out:
        serialize.dump_json(serialize.polar_to_json(polar), args.out)
    return 0


def _cmd_refined_svd(args) -> int:
    H = _load_matrix(args.H)
    C = _load_antiunitary(args.C)
    tol = _tolerance(args)
    expansion = decomp.refined_svd(H, C, tol)
    recon = expansion.residuals["reconstruction"]
    print(f"refined-svd count={len(expansion.sigmas)} reconstruction={recon:.6e}")
    if args.out:
        serialize.dump_json(serialize.refined_svd_to_json(expansion), args.out)
    return 0


def _cmd_anti_eig(args) -> int:
    H = _load_matrix(args.H)
    C = _load_antiunitary(args.C)
    tol = _tolerance(args)
    system = antieig.antilinear_eigensystem(H, C, args.z, tol)
    print(
        f"anti-eig count={len(system.lambdas)} lambda1={system.lambdas[0]:.6e} "
        f"resolvent_norm={1.0 / system.lambdas[0]:.6e}"  # ||R(z)|| = 1 / lambda_1
    )
    if args.out:
        serialize.dump_json(serialize.eigensystem_to_json(system), args.out)
    return 0


def _cmd_pseudospec(args) -> int:
    H = _load_matrix(args.H)
    grid = antieig.pseudospectrum(H, args.epsilon, args.grid, args.res)
    inside = int(np.count_nonzero(grid.in_pseudospectrum))
    print(f"pseudospec points={len(grid.zs)} inside={inside} epsilon={args.epsilon}")
    if args.out:
        _write_text(args.out, serialize.pseudospectrum_csv(grid))
    return 0


def _cmd_pauli_spectrum(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    if not np.isfinite(args.kmax):
        raise ValueError("--kmax must be finite")  # before linspace turns it into nan
    k_grid = np.linspace(-args.kmax, args.kmax, args.n)
    sample = pauli.spectrum_sample(args.alpha, k_grid)
    lam_min = sample.eigenvalues.real.min()
    print(f"pauli-spectrum alpha={args.alpha} points={args.n} min_re={lam_min:.6e}")
    if args.out:
        _write_text(args.out, serialize.pauli_spectrum_csv(sample))
    return 0


def _cmd_model_space(args) -> int:
    if args.toeplitz:
        if not (args.phi1 and args.phi2) or args.N is None:
            raise ValueError("--toeplitz needs --phi1, --phi2 and --N")
        phi1 = serialize.symbol_from_json(serialize.load_json(args.phi1))
        phi2 = serialize.symbol_from_json(serialize.load_json(args.phi2))
        T = modelspaces.build_T(phi1, phi2, args.N)
        payload = {"H": serialize.matrix_to_json(T)}
        summary = f"model-space toeplitz N={args.N}"
        if args.N % 2 == 0:
            C = modelspaces.example2_conjugation(args.N)
            report = csa.check_c_selfadjoint(T, C)
            payload["C"] = serialize.antiunitary_to_json(C)
            summary += f" residual={report.residual:.6e}"
    elif args.gamma is not None:
        C = modelspaces.conjugation_c_gamma(args.gamma)
        payload = {"C": serialize.antiunitary_to_json(C)}
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
        payload = {
            "H": serialize.matrix_to_json(H),
            "C": serialize.antiunitary_to_json(C),
        }
        summary = f"model-space example={args.example} seed={args.seed} residual={report.residual:.6e}"
    print(summary)
    if args.out:
        serialize.dump_json(payload, args.out)
    return 0


_DISPATCH = {
    "check": _cmd_check,
    "gen-csa": _cmd_gen_csa,
    "polar": _cmd_polar,
    "refined-svd": _cmd_refined_svd,
    "anti-eig": _cmd_anti_eig,
    "pseudospec": _cmd_pseudospec,
    "pauli-spectrum": _cmd_pauli_spectrum,
    "model-space": _cmd_model_space,
}


def _merge_negative_values(argv):
    """Join ``--grid -2,2,-2,2`` style pairs into ``--grid=-2,2,-2,2`` so
    argparse does not mistake the leading minus for an option."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--grid", "--z") and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return _DISPATCH[args.command](args)
    except CsaopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
