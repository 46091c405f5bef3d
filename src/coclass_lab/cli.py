"""Command-line surface: validation, invariants, enumeration, witnesses, suite.

Exit codes partition outcomes: 0 success/consistent, 1 inconsistency or
failed validation, 2 usage errors, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import NonNilpotentError
from .constructions import CatalogError, builtin, load_catalog
from .fields import FieldError, FieldSpec
from .harness import (
    SUITE_BUDGET,
    closure_witness_dict,
    dim5_witness,
    heisenberg_witness,
    matrix_grid,
    predict,
    profile,
    run_suite,
    summarize,
    verify,
)
from .search import DEFAULT_BUDGET, BudgetExceededError

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUDGET_ENV = "COCLASS_LAB_BUDGET"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _env_budget(parser: argparse.ArgumentParser):
    """The budget from the environment, or None when unset or empty."""
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return None
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"{BUDGET_ENV}: {exc}")


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _resolve_algebra(spec: str, field: FieldSpec):
    name = spec[len("builtin:") :] if spec.startswith("builtin:") else spec
    return builtin(name, field)


def _cmd_validate(args) -> int:
    try:
        entries = load_catalog(args.file)
    except (CatalogError, OSError) as exc:
        _emit(args, {"ok": False, "error": str(exc)}, f"invalid: {exc}")
        return EXIT_INCONSISTENT
    names = [e.name for e in entries]
    _emit(
        args,
        {"ok": True, "entries": names},
        f"ok: {len(names)} entries valid ({', '.join(names)})" if names else "ok: empty catalog",
    )
    return EXIT_OK


def _profile_payload(name: str, algebra) -> dict:
    prof = profile(algebra)
    pred = predict(prof)
    return {"name": name, "profile": prof.as_dict(), "prediction": pred.as_dict()}


def _profile_text(payload: dict) -> str:
    prof = payload["profile"]
    pred = payload["prediction"]
    fields = ", ".join(f"{k}={v}" for k, v in prof.items())
    return f"{payload['name']}: {fields}\n  prediction: {pred['verdict']} [{pred['rule']}] {pred['description']}"


def _catalog_file(args):
    """The catalog file that verify or invariants reads, or None for a builtin."""
    if args.command == "verify":
        return args.catalog
    if os.path.exists(args.target) and not args.target.startswith("builtin:"):
        return args.target
    return None


def _targets(args) -> list:
    """(name, algebra) pairs: every entry of the catalog file, or the one builtin named."""
    path = _catalog_file(args)
    if path:
        return [(e.name, e.algebra) for e in load_catalog(path)]
    return [(args.target, _resolve_algebra(args.target, FieldSpec.prime(args.p)))]


def _cmd_invariants(args) -> int:
    payloads = [_profile_payload(name, algebra) for name, algebra in _targets(args)]
    _emit(args, {"profiles": payloads}, "\n".join(_profile_text(p) for p in payloads))
    return EXIT_OK


def _summarized(args) -> tuple:
    """The algebra named on the command line, its enumeration summary and its commuting set."""
    algebra = _resolve_algebra(args.algebra, FieldSpec.prime(args.p))
    summary, commuting, _ = summarize(algebra, args.budget)
    return algebra, summary, commuting


def _cmd_search_commuting(args) -> int:
    algebra, summary, commuting = _summarized(args)
    size = summary.commuting_size
    payload = {"size": size, "short_circuit": summary.short_circuit, "members": None}
    if summary.short_circuit:
        if args.members:
            gl = f"GL({algebra.dim},{algebra.field.p})"
            raise ValueError(f"--members lists no set for an abelian algebra: all of {gl} commutes")
        text = f"abelian algebra: commuting set = GL({algebra.dim},{algebra.field.p}), order {size}"
    else:
        text = f"commuting automorphisms: {size}"
        if args.members:
            payload["members"] = commuting.member_array().tolist()
            text += "\n" + "\n".join(map(str, payload["members"]))
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_check_subgroup(args) -> int:
    algebra, summary, _ = _summarized(args)
    size, w = summary.commuting_size, summary.witness
    payload = {"closed": summary.closed, "short_circuit": summary.short_circuit, "size": size, "witness": None}
    if summary.closure is not None:
        payload["pair_count"] = summary.closure.pair_count
    if summary.short_circuit:
        text = f"closed: abelian algebra, commuting set = GL({algebra.dim},{algebra.field.p})"
    elif w is None:
        text = f"closed: all compositions commute (|A| = {size})"
    else:
        payload["witness"] = closure_witness_dict(w, algebra.field)
        text = (
            f"not closed (|A| = {size}): composition of members "
            f"{w.f_index} and {w.g_index} fails at x = {w.vector}, [g(f(x)), x] = {w.residual}"
        )
    _emit(args, payload, text)
    return EXIT_OK


def _witness_text(report) -> str:
    lines = [f"witness {report.family} {report.params or ''} over {report.field}".rstrip()]
    lines.append(f"  beta1 = {matrix_grid(report.beta1, report.field)}")
    for name, m in sorted(report.beta2_by_variant.items()):
        lines.append(f"  beta2[{name}] = {matrix_grid(m, report.field)}")
    for v in report.variants:
        lines.append(
            f"  [{v.variant}] beta1 commuting: {v.beta1_commuting}; "
            f"beta2 automorphism: {v.beta2_automorphism}, commuting: {v.beta2_commuting}; "
            f"beta1∘beta2 commuting: {v.composition_commuting}"
        )
        if v.defect_input is not None:
            lines.append(f"    defect: x = {v.defect_input}, [x, (beta1 beta2)(x)] = {v.defect_bracket}")
    lines.append(f"  ok: {report.ok}")
    return "\n".join(lines)


def _cmd_witness(args) -> int:
    field = FieldSpec.prime(args.p)
    if args.family == "heisenberg":
        report = heisenberg_witness(args.k, args.m, field, variant=args.variant)
    else:
        report = dim5_witness(field)
    _emit(args, report.as_dict(), _witness_text(report))
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


def _cmd_verify(args) -> int:
    checked = [(verify(alg, budget=args.budget, name=name), alg.field) for name, alg in _targets(args)]
    payload = {"reports": [r.as_dict(field) for r, field in checked]}
    lines = []
    for r, _ in checked:
        status = "consistent" if r.consistent else "INCONSISTENT"
        extra = f" ({r.unverified_reason})" if r.unverified_reason else ""
        lines.append(
            f"{r.name or 'algebra'}: {r.prediction.verdict} [{r.prediction.rule}] -> {status}{extra}"
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if all(r.consistent for r, _ in checked) else EXIT_INCONSISTENT


def _cmd_suite(args) -> int:
    report = run_suite(p=args.p, budget=args.budget)
    _emit(args, report.as_dict(), report.to_text())
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coclass-lab",
        description="Exact checks on commuting automorphisms of nilpotent Lie algebras.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--budget", type=_positive_int, default=None,
                        help="candidate-extension cap for enumerations "
                        f"(default 10^8; 'suite' defaults to {SUITE_BUDGET}; "
                        f"env {BUDGET_ENV} sets the default; must be positive). "
                        "It bounds candidates, not memory: a set holds 8*n^2 bytes per "
                        "member and an enumeration peaks near two such arrays "
                        "(heisenberg_2_2 over F_3: 6,456,024 members, 1.86 GB, "
                        "within the default)")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="antisymmetry/Jacobi report for a catalog file")
    s.add_argument("file")
    s.set_defaults(func=_cmd_validate)

    s = sub.add_parser("invariants", help="structural profile of a file or builtin")
    s.add_argument("target", help="catalog file or builtin:NAME")
    s.add_argument("--p", type=int, default=None, help="builtin names only (default 3)")
    s.set_defaults(func=_cmd_invariants)

    s = sub.add_parser("search-commuting", help="enumerate the commuting automorphisms")
    s.add_argument("algebra")
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--members", action="store_true",
                   help="print member matrices (refused for an abelian algebra)")
    s.set_defaults(func=_cmd_search_commuting)

    s = sub.add_parser("check-subgroup", help="closure verdict with witness")
    s.add_argument("algebra")
    s.add_argument("--p", type=int, default=3)
    s.set_defaults(func=_cmd_check_subgroup)

    s = sub.add_parser("witness", help="the explicit non-closure witnesses")
    ws = s.add_subparsers(dest="family", required=True)
    wh = ws.add_parser("heisenberg")
    wh.add_argument("--k", type=int, default=2)
    wh.add_argument("--m", type=int, default=1)
    wh.add_argument("--p", type=int, default=3)
    wh.add_argument("--variant", choices=("printed", "corrected", "both"), default="both")
    wh.set_defaults(func=_cmd_witness)
    wd = ws.add_parser("dim5")
    wd.add_argument("--p", type=int, default=3)
    wd.set_defaults(func=_cmd_witness)

    s = sub.add_parser("verify", help="prediction vs enumeration verdicts")
    s.add_argument("target", nargs="?", metavar="algebra")
    s.add_argument("--catalog", help="verify every entry of a catalog file")
    s.add_argument("--p", type=int, default=None, help="builtin names only (default 3)")
    s.set_defaults(func=_cmd_verify)

    s = sub.add_parser("suite", help="the full acceptance battery")
    s.add_argument("--p", type=int, default=3)
    s.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and bool(args.target) == bool(args.catalog):
        parser.error("verify needs an algebra or --catalog FILE, not both")
    if args.command in ("verify", "invariants"):
        if args.p is not None and _catalog_file(args):
            parser.error("--p applies to builtin names only; a catalog file's entries keep their own field")
        args.p = 3 if args.p is None else args.p
    if args.budget is None:
        env = _env_budget(parser)
        if env is not None:
            args.budget = env
        else:
            args.budget = SUITE_BUDGET if args.command == "suite" else DEFAULT_BUDGET
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CatalogError, FieldError, NonNilpotentError, ValueError, OSError) as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
