"""Command line front end: classes, lift, and check subcommands.

Outputs are deterministic: the same invocation always produces byte
identical text, so files written here can serve as regression goldens.
Exit codes: 0 success (and all checks passing), 1 a congruence check
failed, 2 usage or input errors, including an output path that cannot be
written, 3 an internal failure (a RuntimeError or a failed assertion inside
the computation).  Codes 2 and 3 print a one-line "error:" message.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from sympy import isprime

from .brandt import BrandtModule
from .congruence import run_congruence_checks
from .lift import lift_eigenforms
from .orders import eichler_mass, eichler_order, maximal_order, right_ideal_classes
from .qalg import choose_presentation

DEFAULT_BOUND = 100


def parse_eigendata(text: str) -> list[tuple[int, int]]:
    """Parse "p:a,p:a,..." into a list of (prime, eigenvalue) pairs."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            p_str, a_str = chunk.split(":")
            p, a = int(p_str), int(a_str)
        except ValueError:
            raise ValueError(f"bad eigendata entry {chunk!r}, expected p:a")
        if not isprime(p):
            raise ValueError(f"eigendata prime expected, got {p}")
        out.append((p, a))
    if not out:
        raise ValueError("empty eigendata")
    return out


def _eigendata(args) -> dict[str, list[tuple[int, int]]]:
    """--ell and --bound checked and --eigen-f / --eigen-g parsed, keyed "f" / "g".

    Runs before the module is built, so bad input fails before the class walk.
    """
    if args.ell is not None and not isprime(args.ell):
        raise ValueError(f"ell must be prime, got {args.ell}")
    if args.bound is not None and args.bound < 0:
        raise ValueError(f"bound must be nonnegative, got {args.bound}")
    given = (("f", args.eigen_f), ("g", args.eigen_g))
    return {name: parse_eigendata(text) for name, text in given if text}


def _build_module(q: int, m: int) -> BrandtModule:
    # the library rejects a bad level: q prime, m positive, q*m square-free
    alg = choose_presentation(q)
    base = eichler_order(maximal_order(alg), m)
    return BrandtModule(right_ideal_classes(base))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classes(args) -> int:
    module = _build_module(args.q, args.m)
    cs = module.classes
    if args.json:
        text = json.dumps(cs.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        mult = {}
        for w in cs.weights:
            mult[w] = mult.get(w, 0) + 1
        weight_str = " ".join(f"{w}:{mult[w]}" for w in sorted(mult))
        mass = sum(Fraction(1, w) for w in cs.weights)
        formula = eichler_mass(cs.q, cs.M)
        ok = "ok" if mass == formula else "MISMATCH"
        text = (
            f"N={cs.q * cs.M} q={cs.q} M={cs.M} presentation=({cs.presentation.a},{cs.presentation.b})\n"
            f"h={cs.h}\n"
            f"weight multiset: {weight_str}\n"
            f"mass: {mass} (formula {formula}) {ok}\n"
        )
    _emit(text, args.out)
    return 0


def _lift_header(q: int, m: int, bound: int) -> str:
    return f"# N={q * m} q={q} M={m} bound={bound}"


def cmd_lift(args) -> int:
    eigendata = _eigendata(args)
    if args.discover:
        flags = {"--eigen-f": args.eigen_f, "--eigen-g": args.eigen_g}
        flags.update({"--ell": args.ell, "--bound": args.bound})
        ignored = [flag for flag, value in flags.items() if value is not None]
        if ignored:
            raise ValueError(f"lift --discover takes none of {', '.join(ignored)}")
    elif not eigendata:
        raise ValueError("lift needs --eigen-f and/or --eigen-g (or --discover)")
    elif args.json:
        raise ValueError("lift --json needs --discover")
    module = _build_module(args.q, args.m)
    cs = module.classes
    if args.discover:
        systems = module.discover_eigensystems()
        if args.json:
            payload = [
                {"eigenvalues": {str(p): a for p, a in sorted(sys_.items())}, "vector": vec}
                for sys_, vec in systems
            ]
            _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
        else:
            lines = []
            for sys_, vec in systems:
                eig_str = ",".join(f"{p}:{a}" for p, a in sorted(sys_.items()))
                lines.append(f"eigensystem {eig_str}")
                lines.append(f"  vector {vec}")
            _emit("\n".join(lines) + "\n", args.out)
        return 0

    bound = DEFAULT_BOUND if args.bound is None else args.bound
    lifts, c = lift_eigenforms(module, eigendata, bound, args.ell)
    scale_note = "primitive" if c is None else f"g rescaled by {c} to match f mod {args.ell}"
    header = _lift_header(args.q, args.m, bound)
    meta_all = {}
    for name, lifted in lifts.items():
        meta = lifted.metadata(
            cs.q * cs.M,
            cs.q,
            cs.M,
            eigendata=eigendata[name],
            sign_convention=scale_note if name == "g" else "primitive",
        )
        meta_all[name] = meta
        text = lifted.series.to_text(header=header)
        if args.out:
            path = f"{args.out}_{name}.txt"
            with open(path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(f"# metadata {json.dumps(meta, sort_keys=True)}\n")
            sys.stdout.write(text)
    if args.out:
        with open(f"{args.out}_meta.json", "w") as fh:
            fh.write(json.dumps(meta_all, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_check(args) -> int:
    if not args.eigen_f or not args.eigen_g:
        raise ValueError("check needs both --eigen-f and --eigen-g")
    if args.ell is None:
        raise ValueError("check needs --ell")
    eigendata = _eigendata(args)
    module = _build_module(args.q, args.m)
    bound = DEFAULT_BOUND if args.bound is None else args.bound
    report = run_congruence_checks(module, eigendata["f"], eigendata["g"], args.ell, bound=bound)
    text = report.to_json() if args.json else report.to_text()
    _emit(text, args.out)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brandtlift",
        description="Exact Brandt module computations: class sets, lifts, congruence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_eigen: bool):
        p.add_argument("--q", type=int, required=True, help="ramified prime")
        p.add_argument("--m", type=int, required=True, help="cofactor of the level, coprime to q")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text (lift: with --discover)")
        p.add_argument("--out", help="output path (prefix for lift files)")
        if with_eigen:
            p.add_argument(
                "--bound", type=int, help=f"q-expansion truncation bound (default {DEFAULT_BOUND})"
            )
            p.add_argument("--ell", type=int, help="congruence modulus, a prime")
            p.add_argument("--eigen-f", help="eigendata p:a,p:a,... for the first form")
            p.add_argument("--eigen-g", help="eigendata p:a,p:a,... for the second form")

    p_classes = sub.add_parser("classes", help="enumerate ideal classes and weights")
    common(p_classes, with_eigen=False)
    p_classes.set_defaults(func=cmd_classes)

    p_lift = sub.add_parser("lift", help="compute theta lifts for given eigendata")
    common(p_lift, with_eigen=True)
    p_lift.add_argument(
        "--discover",
        action="store_true",
        help="list all rational eigensystems instead of lifting",
    )
    p_lift.set_defaults(func=cmd_lift)

    p_check = sub.add_parser("check", help="run the full congruence report")
    common(p_check, with_eigen=True)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        detail = " ".join(str(exc).split()) or "no detail"
        print(f"error: internal failure ({type(exc).__name__}): {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
