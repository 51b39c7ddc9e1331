"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .errors import ParseError, SeidelKitError
from .graph import (
    EXACT_TOL,
    NUMERIC_TOL,
    _compared,
    _scaled,
    adjacency_matrix,
    brute_force_isomorphic,
    cospectral,
    laplacian,
    signless_laplacian,
    spectrum,
)
from .quantum import density_from_graph, is_pure, von_neumann_entropy
from .starlike import SpectralKind, lq_switch, validate_starlike
from .strength import scan_csv, strength_scan
from .switching import switch, validate_seidel

KIND_MATRIX = {
    "adjacency": adjacency_matrix,
    "laplacian": laplacian,
    "signless": signless_laplacian,
}


def _fmt(values) -> str:
    # 10 significant digits absorbs eigensolver noise between cospectral
    # inputs; adding 0.0 drops negative zeros
    out = []
    for x in np.atleast_1d(values):
        x = complex(x)
        if abs(x.imag) > EXACT_TOL:
            out.append(f"{x.real + 0.0:.10g}{x.imag + 0.0:+.10g}i")
        else:
            out.append(f"{round(x.real, 12) + 0.0:.10g}")
    return " ".join(out)


def _require_partition(doc: io.GraphDocument, path: str):
    if doc.partition is None:
        raise ParseError(f"{path}: document carries no partition")
    return doc.partition


def cmd_validate(args) -> int:
    doc = io.read_document(args.path)
    part = _require_partition(doc, args.path)
    g = doc.graph()
    print(f"graph: {doc.metadata.get('name', args.path)}")
    print(f"order: {g.order}, cells: {len(part.cells)}, d: {len(part.d_cell)}")
    try:
        report = validate_seidel(g, part)
    except SeidelKitError as exc:
        print(f"seidel: INVALID ({type(exc).__name__}: {exc})")
        return 1
    print("seidel: valid")
    for i, cell in enumerate(part.cells):
        p, q, r = report.counts[i]
        print(f"cell {i} (size {len(cell)}): p={p} q={q} r={r}")
        if not args.quiet:
            for cat in (1, 2, 3):
                members = [v for v in part.d_cell if report.categories[(i, v)] == cat]
                if members:
                    print(f"  category {cat}: {members}")
    try:
        profiles = validate_starlike(g, part)
    except SeidelKitError as exc:
        print(f"starlike: INVALID ({type(exc).__name__}: {exc})")
        return 0
    print("starlike: valid")
    if not args.quiet:
        for prof in profiles:
            print(
                f"cell {prof.cell_index} profile: w+={prof.w_plus:g} w-={prof.w_minus:g} "
                f"w^+={prof.w_half_plus:g} w^-={prof.w_half_minus:g} q={prof.q}"
            )
    return 0


def cmd_switch(args) -> int:
    if args.force and args.kind == "adjacency":
        print("error: --force applies only to --kind laplacian or signless", file=sys.stderr)
        return 2
    doc = io.read_document(args.path)
    part = _require_partition(doc, args.path)
    g = doc.graph()
    if args.kind == "adjacency":
        result = switch(g, part, verify=args.verify)
    else:
        result = lq_switch(g, part, SpectralKind(args.kind), force=args.force, verify=args.verify)
    out_doc = io.GraphDocument.from_graph(result, partition=part, metadata=doc.metadata)
    if args.out:
        io.write_document(out_doc, args.out)
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(io.dumps_document(out_doc))
    if args.verify:
        gap, s, _, s_in, s_out = _compared(*map(KIND_MATRIX[args.kind], (g, result)), args.tol)
        print(f"spectrum in : {_fmt(_scaled(s_in, s))}")
        print(f"spectrum out: {_fmt(_scaled(s_out, s))}")
        print(f"max spectral gap: {_scaled(gap, s):.3e}")
    return 0


def cmd_spectra(args) -> int:
    doc = io.read_document(args.path)
    m = KIND_MATRIX[args.kind](doc.graph())
    print(f"kind: {args.kind}")
    print(f"spectrum: {_fmt(spectrum(m))}")
    return 0


def cmd_density(args) -> int:
    doc = io.read_document(args.path)
    rho = density_from_graph(doc.graph(), SpectralKind(args.kind))
    print(f"kind: {args.kind}, order: {rho.order}")
    for row in rho.matrix:
        print(_fmt(row))
    return 0


def cmd_entropy(args) -> int:
    doc = io.read_document(args.path)
    rho = density_from_graph(doc.graph(), SpectralKind(args.kind))
    rank = int(np.count_nonzero(rho.eigenvalues() > args.tol))
    print(f"entropy: {von_neumann_entropy(rho):.12g} bits")
    print(f"pure: {is_pure(rho, args.tol)}")
    print(f"rank: {rank}")
    return 0


def cmd_strength_scan(args) -> int:
    if args.max_order < 4:
        print("error: --max-order must be at least 4 (no composite orders below)", file=sys.stderr)
        return 2
    rows = strength_scan(args.max_order, include_blocks=args.include_blocks)
    text = scan_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        if not args.quiet:
            print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_isomorphic(args) -> int:
    g = io.read_document(args.path).graph()
    h = io.read_document(args.other).graph()
    print(f"isomorphic: {str(brute_force_isomorphic(g, h)).lower()}")
    return 0


def cmd_cospectral(args) -> int:
    a = KIND_MATRIX[args.kind](io.read_document(args.path).graph())
    b = KIND_MATRIX[args.kind](io.read_document(args.other).graph())
    print(f"cospectral ({args.kind}): {str(cospectral(a, b, args.tol)).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seidelkit",
        description="Cospectral graph construction by switching, and strengths "
        "of the switching operators.",
    )
    parser.add_argument("--tol", type=float, default=NUMERIC_TOL, help="numeric tolerance")
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a partitioned graph document")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("switch", help="switch a graph and write the result")
    p.add_argument("path")
    p.add_argument("--kind", choices=("adjacency", "laplacian", "signless"), default="adjacency")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true", help="cross-check against U A U and spectra")
    p.add_argument("--force", action="store_true", help="skip starlike validation (L, Q only)")
    p.set_defaults(fn=cmd_switch)

    p = sub.add_parser("spectra", help="print the ascending spectrum")
    p.add_argument("path")
    p.add_argument("--kind", choices=("adjacency", "laplacian", "signless"), default="laplacian")
    p.set_defaults(fn=cmd_spectra)

    p = sub.add_parser("density", help="print the graph's density matrix")
    p.add_argument("path")
    p.add_argument("--kind", choices=("laplacian", "signless"), default="laplacian")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("entropy", help="entropy, purity and rank of the graph state")
    p.add_argument("path")
    p.add_argument("--kind", choices=("laplacian", "signless"), default="laplacian")
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("strength-scan", help="strength table over composite orders")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--include-blocks", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_strength_scan)

    p = sub.add_parser("isomorphic", help="exhaustive isomorphism check of two documents")
    p.add_argument("path")
    p.add_argument("other")
    p.set_defaults(fn=cmd_isomorphic)

    p = sub.add_parser("cospectral", help="compare spectra of two documents")
    p.add_argument("path")
    p.add_argument("other")
    p.add_argument("--kind", choices=("adjacency", "laplacian", "signless"), default="laplacian")
    p.set_defaults(fn=cmd_cospectral)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SeidelKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
