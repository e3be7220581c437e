"""Command-line entry point: one subcommand tree per module plus verify-all.

Machine output goes to stdout, diagnostics to stderr.  --format selects
json/text/csv where both make sense; --seed makes randomized checks
reproducible; --out redirects stdout to a file.  Exit codes: 0 success,
1 failed check (or the unmarked state for ``lof reduce``), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import clifford, dirac, discrete, groups, lof, matrep, schrodinger, verify
from .matrix import SquareMatrix
from .scalars import parse_rational, scalar_to_json


def _common_flags(parser: argparse.ArgumentParser, default_format: str = "text") -> None:
    parser.add_argument("--format", choices=("json", "text", "csv"), default=default_format)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="write stdout to this path")


@contextmanager
def _output(args):
    if args.out:
        with open(args.out, "w") as handle:
            yield handle
    else:
        yield sys.stdout


def _emit_json(stream, payload) -> None:
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)) for row in rows
    )


# ---------------------------------------------------------------------------


def cmd_group_table(args) -> int:
    group = groups.builtin_group(args.group)
    table = groups.g_table_names(group) if args.gtable else group.name_table()
    kind = "gtable" if args.gtable else "multiplication"
    with _output(args) as stream:
        if args.format == "json":
            _emit_json(stream, {"group": group.label, "kind": kind, "table": table})
        elif args.format == "csv":
            for row in table:
                stream.write(",".join(row) + "\n")
        else:
            stream.write(f"{group.label} {kind} table\n")
            stream.write(_aligned(table) + "\n")
    return 0


def cmd_matrep_decompose(args) -> int:
    with open(args.matrix) as handle:
        # a JSON integer passes the digit cap of a text literal
        data = json.load(handle, parse_int=lambda digits: int(parse_rational(digits)))
    matrix = SquareMatrix.from_lists(data["matrix"] if isinstance(data, dict) else data)
    terms = matrep.decompose_matrix(matrix)
    payload = [
        {
            "perm": term.perm.cycle_string(),
            "diag": [scalar_to_json(c) for c in term.diag],
        }
        for term in terms
    ]
    reassembled = matrep.reassemble(terms, matrix.n)
    with _output(args) as stream:
        if args.format == "text":
            rows = [[t["perm"], " ".join(str(c) for c in term.diag)]
                    for t, term in zip(payload, terms)]
            stream.write(_aligned(rows) + "\n")
            stream.write(f"reassembly exact: {reassembled == matrix}\n")
        else:
            _emit_json(stream, {"terms": payload, "reassembly_exact": reassembled == matrix})
    return 0 if reassembled == matrix else 1


def cmd_matrep_isocheck(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be positive, got {args.samples}")
    if args.natural:
        key = args.group.lower()
        if not (key.startswith("s") and key[1:].isdigit()):
            print("--natural requires a symmetric group (s<n>)", file=sys.stderr)
            return 2
        action = groups.natural_action(int(key[1:]))
    else:
        group = groups.builtin_group(args.group)
        if group.order > groups.MAX_ISOCHECK_ORDER:
            raise ValueError(f"group order {group.order} exceeds the desk-scale cap of "
                             f"{groups.MAX_ISOCHECK_ORDER}")
        action = groups.regular_action(group)
    report = matrep.iso_check(action, samples=args.samples, seed=args.seed)
    payload = {
        "action": report.action_label,
        "algebra_dim": report.algebra_dim,
        "matrix_dim": report.matrix_dim,
        "homomorphism_ok": report.homomorphism_ok,
        "injective_on_basis": report.injective_on_basis,
        "image_rank": report.image_rank,
        "spans_matrix_algebra": report.spans_matrix_algebra,
        "isomorphism": report.isomorphism,
    }
    with _output(args) as stream:
        if args.format == "text":
            for key, value in payload.items():
                stream.write(f"{key}: {value}\n")
        else:
            _emit_json(stream, payload)
    return 0 if report.homomorphism_ok else 1


def cmd_iterant_eval(args) -> int:
    from .iterants import format_period2, parse_period2

    z = parse_period2(args.left)
    w = parse_period2(args.right)
    results = {
        "sum": format_period2(z + w),
        "product": format_period2(z * w),
        "left_matrix": [[str(c) for c in row] for row in matrep.to_matrix(z).rows],
        "product_matrix": [[str(c) for c in row] for row in matrep.to_matrix(z * w).rows],
    }
    with _output(args) as stream:
        if args.format == "text":
            stream.write(f"sum:     {results['sum']}\n")
            stream.write(f"product: {results['product']}\n")
        else:
            _emit_json(stream, results)
    return 0


def cmd_clifford_quaternions(args) -> int:
    triple = clifford.quaternion_triple(args.variant)
    table_ok = all(got == want for _, got, want in clifford.quaternion_products(triple))
    payload = {
        "variant": args.variant,
        "dim": triple.dim,
        "table_holds": table_ok,
    }
    if args.verify or args.format == "text":
        payload["I"] = [[str(c) for c in row] for row in triple.I.rows]
        payload["J"] = [[str(c) for c in row] for row in triple.J.rows]
        payload["K"] = [[str(c) for c in row] for row in triple.K.rows]
    with _output(args) as stream:
        if args.format == "text":
            stream.write(f"variant {args.variant} ({triple.dim}x{triple.dim}); "
                         f"16-product table holds: {table_ok}\n")
            for name in ("I", "J", "K"):
                stream.write(f"{name} =\n{getattr(triple, name)}\n")
        else:
            _emit_json(stream, payload)
    return 0 if table_ok else 1


def cmd_clifford_braid(args) -> int:
    word = [int(tok) for tok in args.word.split()]
    lhs = clifford.braid_word_matrix(args.n, word)
    payload = {"n": args.n, "word": word,
               "matrix": [[str(c) for c in row] for row in lhs.rows]}
    equal = None
    if args.compare:
        other = [int(tok) for tok in args.compare.split()]
        rhs = clifford.braid_word_matrix(args.n, other)
        equal = lhs == rhs
        payload["compare"] = other
        payload["equal"] = equal
    with _output(args) as stream:
        if args.format == "text":
            stream.write(f"word {word} on {args.n} strands:\n{lhs}\n")
            if equal is not None:
                stream.write(f"equal to word {args.compare}: {equal}\n")
        else:
            _emit_json(stream, payload)
    if equal is None:
        return 0
    return 0 if equal else 1


def cmd_clifford_fusion(args) -> int:
    powers = [
        {"n": n, "unit": power.unit, "p": power.p}
        for n, power in enumerate(clifford.fusion_powers(args.power))
    ]
    with _output(args) as stream:
        if args.format == "text":
            rows = [["n", "unit", "P"]] + [
                [str(e["n"]), str(e["unit"]), str(e["p"])] for e in powers
            ]
            stream.write(_aligned(rows) + "\n")
        elif args.format == "csv":
            stream.write("n,unit,p\n")
            for e in powers:
                stream.write(f"{e['n']},{e['unit']},{e['p']}\n")
        else:
            _emit_json(stream, {"powers": powers})
    return 0


def cmd_dirac_verify(args) -> int:
    frame = dirac.dirac_frame(args.dim)
    if args.dim == "3d":
        momentum = tuple(parse_rational(tok) for tok in args.p.split(","))
    else:
        momentum = parse_rational(args.p)
    params = dirac.OnShellParams.of(parse_rational(args.E), momentum, parse_rational(args.m))
    report = dirac.relation_report(frame, params)
    checks = [
        {"check": "on_shell", "lhs": str(params.momentum_squared + params.mass ** 2),
         "rhs": str(params.energy ** 2), "pass": params.on_shell},
        {"check": "u_squared_zero", "lhs": "U^2", "rhs": "0",
         "pass": report[f"{args.version}-u-squared"]},
        {"check": "dagger_squared_zero", "lhs": "U+^2", "rhs": "0",
         "pass": report[f"{args.version}-dagger-squared"]},
        {"check": "anticommutator", "lhs": "U U+ + U+ U",
         "rhs": "2(p+m)^2" if args.version == "conjugate" else "4E^2",
         "pass": report[f"{args.version.replace('_', '-')}-anticommutator"]},
    ]
    if "split-rebuild" in report:
        checks.extend([
            {"check": "split_squares", "lhs": "A^2, B^2", "rhs": "1, 1",
             "pass": report["split-a-squared"] and report["split-b-squared"]},
            {"check": "split_anticommute", "lhs": "AB + BA", "rhs": "0",
             "pass": report["split-anticommute"]},
            {"check": "split_rebuild", "lhs": "(A + iB)E, (A - iB)E", "rhs": "U, U+",
             "pass": report["split-rebuild"]},
        ])
    checks.append({"check": "plane_wave_residual", "lhs": "D ba U",
                   "rhs": "0" if params.on_shell else f"defect {params.shell_defect}",
                   "pass": report["plane-wave"] or not params.on_shell})
    all_pass = all(c["pass"] for c in checks)
    payload = {"version": args.version, "dim": args.dim,
               "E": str(params.energy), "p": args.p, "m": str(params.mass),
               "checks": checks, "all_pass": all_pass}
    with _output(args) as stream:
        if args.format == "text":
            rows = [["check", "pass"]] + [[c["check"], str(c["pass"])] for c in checks]
            stream.write(_aligned(rows) + "\n")
        else:
            _emit_json(stream, payload)
    return 0 if all_pass else 1


def cmd_dirac_majorana(args) -> int:
    gens = dirac.majorana_dirac_generators()
    copies = dirac.commuting_copies_check()
    payload = {
        "all_real": gens.all_real,
        "relations": gens.relation_table,
        "commuting_copies_ok": copies.ok,
    }
    if args.emit_matrices:
        payload["matrices"] = {
            name: [[str(c) for c in row] for row in matrix.rows]
            for name, matrix in (
                ("ax", gens.ax), ("ay", gens.ay), ("az", gens.az),
                ("beta_prime", gens.beta_prime),
            )
        }
    ok = gens.all_real and all(gens.relation_table.values()) and copies.ok
    with _output(args) as stream:
        if args.format == "text":
            stream.write(f"all real: {gens.all_real}\n")
            for name, value in gens.relation_table.items():
                stream.write(f"{name}: {value}\n")
            stream.write(f"commuting copies: {copies.ok}\n")
            if args.emit_matrices:
                for name, matrix in (("ax", gens.ax), ("ay", gens.ay),
                                     ("az", gens.az), ("beta_prime", gens.beta_prime)):
                    stream.write(f"{name} =\n{matrix}\n")
        else:
            _emit_json(stream, payload)
    return 0 if ok else 1


def cmd_discrete_commutator(args) -> int:
    values = [parse_rational(tok) for tok in args.seq.split(",")]
    seq = discrete.Sequence.from_values(values)
    dt = parse_rational(args.dt)
    if dt == 0:
        raise ValueError("--dt must be nonzero")
    report = discrete.basic_commutator(seq, dt)

    def poly_payload(poly):
        terms = []
        for k, coeff in poly.terms:
            window = coeff.window()
            terms.append({
                "j_power": k,
                "window": list(window) if window else None,
                "values": [str(v) for v in coeff.samples] if coeff.samples is not None
                          else str(coeff.const),
            })
        return terms

    payload = {
        "lhs": poly_payload(report.lhs),
        "rhs": poly_payload(report.rhs),
        "equal": report.equal,
    }
    with _output(args) as stream:
        if args.format == "text":
            stream.write(f"[x, Dx] terms: {payload['lhs']}\n")
            stream.write(f"J (dx)^2/dt terms: {payload['rhs']}\n")
            stream.write(f"equal on overlap: {report.equal}\n")
        else:
            _emit_json(stream, payload)
    return 0 if report.equal else 1


def _initial_fields(cfg, text: str):
    """The (even, odd) start fields named by --init."""
    kind, _, spec = text.partition(":")
    try:
        if kind == "planewave":
            return schrodinger.plane_wave_fields(cfg, int(spec))
        if kind == "gaussian":
            params = {"mu": cfg.cells / 2, "sigma": cfg.cells / 16}
            pairs = (part.split("=") for part in spec.split(","))
            given = {key: float(value) for key, value in pairs}
            if given.keys() <= params.keys():
                return schrodinger.gaussian_fields(cfg, **(params | given))
    except ValueError:
        pass
    raise ValueError(f"cannot read init {text!r}; use gaussian:mu=..,sigma=.. or planewave:k")


def cmd_schrodinger_run(args) -> int:
    cfg = schrodinger.LatticeConfig(
        cells=args.n, dx=args.dx, dt=args.dt, kappa=args.kappa, steps=args.steps
    )
    if args.sample_every < 1:
        raise ValueError(f"--sample-every must be positive, got {args.sample_every}")
    # Overflow is tested below on every value printed, so numpy's own
    # warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.dispersion is not None:
            report = schrodinger.dispersion_check(cfg, args.dispersion)
            printed = (report.measured_omega, report.rel_error)
        else:
            result = schrodinger.run(cfg, *_initial_fields(cfg, args.init))
            samples = [(index, result.psi_e[index], result.psi_o[index])
                       for index in range(0, result.pairs + 1, args.sample_every)]
            printed = [e * e + o * o for _, e, o in samples]
    if not all(np.all(np.isfinite(value)) for value in printed):
        print(f"schrodinger run failed: the fields overflowed at r = {cfg.ratio:.4f}",
              file=sys.stderr)
        return 1
    if cfg.stability_warning:
        print(f"warning: ratio r = {cfg.ratio:.4f} exceeds 1/4; expect instability",
              file=sys.stderr)
    with _output(args) as stream:
        if args.dispersion is not None:
            _emit_json(stream, {
                "k_mode": report.k_mode,
                "measured_omega": report.measured_omega,
                "predicted_omega": report.predicted_omega,
                "rel_error": report.rel_error,
                "samples": report.samples,
                "ratio": cfg.ratio,
            })
            return 0
        stream.write("t_index,cell,psi_e,psi_o,re,im,abs2\n")
        for (index, e, o), abs2 in zip(samples, printed):
            for cell in range(cfg.cells):
                re_v, im_v = e[cell], o[cell]
                stream.write(
                    f"{index},{cell},{re_v:.12g},{im_v:.12g},{re_v:.12g},{im_v:.12g},"
                    f"{abs2[cell]:.12g}\n"
                )
    return 0


def cmd_lof_reduce(args) -> int:
    if args.random:
        trials, depth, seed = args.random
        if trials < 1:
            raise ValueError(f"--random N must be positive, got {trials}")
        if not 1 <= depth <= groups.MAX_LOF_DEPTH:
            raise ValueError(f"--random DEPTH {depth} is outside 1..{groups.MAX_LOF_DEPTH}")
        disagreements = lof.confluence_fuzz(trials, max_depth=depth, orders=4, seed=seed)
        with _output(args) as stream:
            if args.format == "text":
                stream.write(f"{trials} random expressions, disagreements: {disagreements}\n")
            else:
                _emit_json(stream, {"trials": trials, "disagreements": disagreements})
        return 0 if disagreements == 0 else 1
    expr = lof.parse(args.expression)
    result = lof.reduce_expression(expr)
    with _output(args) as stream:
        if args.format == "json":
            payload = {
                "value": result.value,
                "steps": [
                    {"rule": s.rule, "location": list(s.location),
                     "before": s.before, "after": s.after}
                    for s in result.trace
                ] if args.trace else len(result.trace),
            }
            _emit_json(stream, payload)
        else:
            if args.trace:
                for s in result.trace:
                    stream.write(f"{s.rule:9s} {s.before} -> {s.after}\n")
            stream.write(result.value + "\n")
    return 0 if result.value == "marked" else 1


def cmd_verify_all(args) -> int:
    report = verify.run_verify(seed=args.seed)
    with _output(args) as stream:
        if args.format == "json":
            _emit_json(stream, {
                "entries": [
                    {"check_id": e.check_id, "area": e.area,
                     "description": e.description, "pass": e.passed,
                     "lhs": e.lhs, "rhs": e.rhs,
                     **({"witness": e.witness} if e.witness else {})}
                    for e in report.entries
                ],
                "all_passed": report.all_passed,
            })
        elif args.format == "csv":
            stream.write("check_id,area,pass,description\n")
            for e in report.entries:
                stream.write(f"{e.check_id},{e.area},{e.passed},\"{e.description}\"\n")
        else:
            rows = [["check", "area", "status", "description"]] + [
                [e.check_id, e.area, "PASS" if e.passed else "FAIL", e.description]
                for e in report.entries
            ]
            stream.write(_aligned(rows) + "\n")
            total = len(report.entries)
            passed = sum(1 for e in report.entries if e.passed)
            stream.write(f"{passed}/{total} checks passed\n")
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterant-lab",
        description="Exact-arithmetic workbench for iterant algebras and friends",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group_p = sub.add_parser("group", help="finite groups and their tables")
    group_sub = group_p.add_subparsers(dest="subcommand", required=True)
    table_p = group_sub.add_parser("table", help="emit a multiplication or identity-diagonal table")
    table_p.add_argument("--group", required=True, help="c<n>, s<n>, or klein4")
    table_p.add_argument("--gtable", action="store_true",
                         help="emit the identity-diagonal rearrangement")
    _common_flags(table_p)
    table_p.set_defaults(func=cmd_group_table)

    iter_p = sub.add_parser("iterant", help="period-two iterant arithmetic")
    iter_sub = iter_p.add_subparsers(dest="subcommand", required=True)
    eval_p = iter_sub.add_parser("eval", help="combine two period-two elements")
    eval_p.add_argument("left", help='e.g. "[1,2] + [3,4]e"')
    eval_p.add_argument("right")
    _common_flags(eval_p)
    eval_p.set_defaults(func=cmd_iterant_eval)

    matrep_p = sub.add_parser("matrep", help="matrix representation bridge")
    matrep_sub = matrep_p.add_subparsers(dest="subcommand", required=True)
    dec_p = matrep_sub.add_parser("decompose", help="diagonal-times-permutation decomposition")
    dec_p.add_argument("--matrix", required=True, help="JSON file holding the matrix")
    _common_flags(dec_p, default_format="json")
    dec_p.set_defaults(func=cmd_matrep_decompose)
    iso_p = matrep_sub.add_parser("isocheck", help="probe the representation map")
    iso_p.add_argument("--group", required=True)
    iso_p.add_argument("--natural", action="store_true",
                       help="use the natural degree-n symmetric action instead of the regular one")
    iso_p.add_argument("--samples", type=int, default=100)
    _common_flags(iso_p)
    iso_p.set_defaults(func=cmd_matrep_isocheck)

    cliff_p = sub.add_parser("clifford", help="quaternions, braiding, fusion")
    cliff_sub = cliff_p.add_subparsers(dest="subcommand", required=True)
    quat_p = cliff_sub.add_parser("quaternions", help="a quaternion triple and its table")
    quat_p.add_argument("--variant", choices=("klein4", "iota_2x2", "majorana_triple"),
                        default="klein4")
    quat_p.add_argument("--verify", action="store_true")
    _common_flags(quat_p)
    quat_p.set_defaults(func=cmd_clifford_quaternions)
    braid_p = cliff_sub.add_parser("braid", help="braid words on the generator span")
    braid_p.add_argument("--n", type=int, required=True)
    braid_p.add_argument("--word", required=True, help='e.g. "1 2 1"')
    braid_p.add_argument("--compare", default=None, help="second word to compare against")
    _common_flags(braid_p)
    braid_p.set_defaults(func=cmd_clifford_braid)
    fusion_p = cliff_sub.add_parser("fusion", help="powers of the self-dual particle")
    fusion_p.add_argument("--power", type=int, default=10)
    _common_flags(fusion_p)
    fusion_p.set_defaults(func=cmd_clifford_fusion)

    dirac_p = sub.add_parser("dirac", help="nilpotent plane-wave operator checks")
    dirac_sub = dirac_p.add_subparsers(dest="subcommand", required=True)
    dv_p = dirac_sub.add_parser("verify", help="relation report for given E, p, m")
    dv_p.add_argument("--E", required=True)
    dv_p.add_argument("--p", required=True, help="scalar, or comma-separated triple for 3d")
    dv_p.add_argument("--m", required=True)
    dv_p.add_argument("--version", choices=dirac.VERSIONS, default="time_reversed")
    dv_p.add_argument("--dim", choices=("1d", "3d"), default="1d")
    _common_flags(dv_p, default_format="json")
    dv_p.set_defaults(func=cmd_dirac_verify)
    dm_p = dirac_sub.add_parser("majorana-generators", help="the totally real generator set")
    dm_p.add_argument("--emit-matrices", action="store_true")
    _common_flags(dm_p, default_format="json")
    dm_p.set_defaults(func=cmd_dirac_majorana)

    disc_p = sub.add_parser("discrete", help="discrete non-commutative calculus")
    disc_sub = disc_p.add_subparsers(dest="subcommand", required=True)
    comm_p = disc_sub.add_parser("commutator", help="[x, Dx] against J (dx)^2/dt")
    comm_p.add_argument("--seq", required=True, help='comma-separated rationals, e.g. "0,1,0,1,0"')
    comm_p.add_argument("--dt", default="1")
    _common_flags(comm_p, default_format="json")
    comm_p.set_defaults(func=cmd_discrete_commutator)

    sch_p = sub.add_parser("schrodinger", help="staggered lattice scheme")
    sch_sub = sch_p.add_subparsers(dest="subcommand", required=True)
    run_p = sch_sub.add_parser("run", help="evolve and emit CSV, or a dispersion report")
    run_p.add_argument("--n", type=int, default=256)
    run_p.add_argument("--dx", type=float, default=1.0)
    run_p.add_argument("--dt", type=float, default=0.05)
    run_p.add_argument("--kappa", type=float, default=1.0)
    run_p.add_argument("--steps", type=int, default=2000)
    run_p.add_argument("--init", default="gaussian:mu=128,sigma=10")
    run_p.add_argument("--sample-every", type=int, default=1)
    run_p.add_argument("--dispersion", type=int, default=None,
                       help="emit the dispersion report for this mode instead of CSV")
    _common_flags(run_p, default_format="csv")
    run_p.set_defaults(func=cmd_schrodinger_run)

    lof_p = sub.add_parser("lof", help="calculus of indications")
    lof_sub = lof_p.add_subparsers(dest="subcommand", required=True)
    red_p = lof_sub.add_parser("reduce", help="reduce an expression; exit 0 marked, 1 unmarked")
    red_p.add_argument("expression", nargs="?", default="")
    red_p.add_argument("--trace", action="store_true")
    red_p.add_argument("--random", nargs=3, type=int, metavar=("N", "DEPTH", "SEED"),
                       default=None, help="fuzz N random expressions instead")
    _common_flags(red_p)
    red_p.set_defaults(func=cmd_lof_reduce)

    verify_p = sub.add_parser("verify-all", help="run the full identity suite")
    _common_flags(verify_p)
    verify_p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream pipe closed early (e.g. | head); suppress the noise
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
