"""Command-line entry point: one subcommand tree per module plus verify-all.

Machine output goes to stdout, diagnostics to stderr.  Each command computes
its exit code and its output forms; ``_write`` writes the form that --format
chose to stdout or to the --out file.  JSON is ``json.dumps(payload,
indent=2, sort_keys=True)`` byte for byte, written by one encoder in pieces:
each item of the outer two levels on its own, each deeper subtree joined into
one string, so a long ``lof reduce --trace`` list is never held as one text.
No verify-all row draws, so ``verify-all --seed`` changes no output.  Exit
codes: 0 success, 1 failed check (or the unmarked state for ``lof reduce``),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict

from . import clifford, dirac, discrete, groups, lof, matrep, schrodinger, verify
from .iterants import natural_sn_algebra, parse_period2, regular_algebra
from .matrix import SquareMatrix
from .scalars import parse_integer, parse_rational, scalar_to_json

JSON_TEXT = ("json", "text")
JSON_TEXT_CSV = ("json", "text", "csv")


def _module(sub, name: str, help: str):
    """The subcommand tree of one module."""
    return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)


def _flags(parser: argparse.ArgumentParser, func, formats=JSON_TEXT, default: str = "text") -> None:
    """Run func for parser, which reads --format with the forms func writes,
    and --out."""
    if formats:
        parser.add_argument("--format", choices=formats, default=default)
    parser.add_argument("--out", default=None, help="write stdout to this path")
    parser.set_defaults(func=func)


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


_json_string = json.encoder.encode_basestring_ascii  # a TypeError on a non-str

# each JSON scalar type's text, as json writes it; a subclass is not JSON here
_JSON_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, with
    indent (a newline and spaces) starting each line after the first."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if type(value) is dict:
        brackets = "{}"
        items = [f"{_json_string(key)}: {_json_text(item, inner)}"
                 for key, item in sorted(value.items())]
    elif type(value) in (list, tuple):
        brackets = "[]"
        items = [_json_text(item, inner) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _json_pieces(value, indent: str = "\n", levels: int = 2):
    """Yield _json_text(value, indent) in pieces: the items of the outer
    levels of containers one at a time, each deeper subtree as one string."""
    if not (levels and value and type(value) in (dict, list, tuple)):
        yield _json_text(value, indent)
        return
    inner = indent + "  "
    is_dict = type(value) is dict
    yield "{" if is_dict else "["
    # a list's keys are its indexes, which the text does not show
    for n, (key, item) in enumerate(sorted(value.items()) if is_dict else enumerate(value)):
        yield ("," if n else "") + inner + (f"{_json_string(key)}: " if is_dict else "")
        yield from _json_pieces(item, inner, levels - 1)
    yield indent + ("}" if is_dict else "]")


def _write(args, code: int, forms: dict) -> int:
    """Write the form that --format chose, or the one form of a command without
    --format, to stdout or the --out file, and return the command's exit code.

    forms maps "json" to the payload, and "text" or "csv" to a function giving
    the lines, so they are built only when written and then one at a time.  A
    command that failed before it had output gives no forms.
    """
    if not forms:
        return code
    form = args.format if "format" in args else next(iter(forms))
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as stream:
        if form == "json":
            stream.writelines(_json_pieces(forms[form]))
            stream.write("\n")
        else:
            stream.writelines(line + "\n" for line in forms[form]())
    return code


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)) for row in rows
    )


def _cells(matrix: SquareMatrix) -> list[list[str]]:
    return [[str(c) for c in row] for row in matrix.rows]


def _outcomes(relations) -> dict[str, bool]:
    """Whether each (name, lhs, rhs) relation holds, by name."""
    return {name: lhs == rhs for name, lhs, rhs in relations}


# ---------------------------------------------------------------------------


def cmd_group_table(args):
    group = groups.builtin_group(args.group)
    table = groups.g_table_names(group) if args.gtable else group.name_table()
    kind = "gtable" if args.gtable else "multiplication"
    return 0, {
        "json": {"group": group.label, "kind": kind, "table": table},
        "text": lambda: [f"{group.label} {kind} table", _aligned(table)],
        "csv": lambda: (",".join(row) for row in table),
    }


def cmd_matrep_decompose(args):
    with open(args.matrix) as handle:
        data = json.load(handle, parse_int=parse_integer)
    matrix = SquareMatrix.from_lists(data["matrix"] if isinstance(data, dict) else data)
    terms = matrep.decompose_matrix(matrix)
    exact = matrep.reassemble(terms, matrix.n) == matrix
    payload = [
        {
            "perm": groups.cycle_string(term.perm),
            "diag": [scalar_to_json(c) for c in term.diag],
        }
        for term in terms
    ]

    def text():
        yield _aligned([[t["perm"], " ".join(str(c) for c in term.diag)]
                        for t, term in zip(payload, terms)])
        yield f"reassembly exact: {exact}"

    return (0 if exact else 1), {
        "json": {"terms": payload, "reassembly_exact": exact},
        "text": text,
    }


def cmd_matrep_isocheck(args):
    if args.natural:
        family, degree = groups.parse_group_name(args.group)
        if family != "s":
            raise ValueError("--natural requires a symmetric group (s<n>)")
        algebra = natural_sn_algebra(degree)
    else:
        group = groups.builtin_group(args.group)
        if group.order > groups.MAX_ISOCHECK_ORDER:
            raise ValueError(f"group order {group.order} exceeds the desk-scale cap of "
                             f"{groups.MAX_ISOCHECK_ORDER}")
        algebra = regular_algebra(group)
    payload = matrep.iso_check(algebra)
    return (0 if payload["homomorphism_ok"] else 1), {
        "json": payload,
        "text": lambda: (f"{key}: {value}" for key, value in payload.items()),
    }


def cmd_iterant_eval(args):
    z = parse_period2(args.left)
    w = parse_period2(args.right)
    results = {
        "sum": str(z + w),
        "product": str(z * w),
        "left_matrix": _cells(matrep.to_matrix(z)),
        "product_matrix": _cells(matrep.to_matrix(z * w)),
    }
    return 0, {
        "json": results,
        "text": lambda: [f"sum:     {results['sum']}", f"product: {results['product']}"],
    }


def cmd_clifford_quaternions(args):
    triple = clifford.quaternion_triple(args.variant)
    table_ok = all(_outcomes(clifford.quaternion_products(triple)).values())
    payload = {
        "variant": args.variant,
        "dim": triple.dim,
        "table_holds": table_ok,
    }
    if args.verify:
        payload |= {name: _cells(getattr(triple, name)) for name in "IJK"}

    def text():
        yield (f"variant {args.variant} ({triple.dim}x{triple.dim}); "
               f"16-product table holds: {table_ok}")
        for name in "IJK":
            yield f"{name} =\n{getattr(triple, name)}"

    return (0 if table_ok else 1), {"json": payload, "text": text}


def _braid_word(text: str) -> list[int]:
    """The space-separated generator indices of a braid word."""
    word = []
    for token in text.split():
        if not (token[1:] if token[0] in "+-" else token).isdecimal():
            raise ValueError(f"braid word token {token!r} is not an integer; "
                             "separate the indices with spaces")
        word.append(parse_integer(token))
    return word


def cmd_clifford_braid(args):
    word = _braid_word(args.word)
    lhs = clifford.braid_word_matrix(args.n, word)
    payload = {"n": args.n, "word": word, "matrix": _cells(lhs)}
    if args.compare is not None:
        other = _braid_word(args.compare)
        payload["compare"] = other
        payload["equal"] = lhs == clifford.braid_word_matrix(args.n, other)

    def text():
        yield f"word {word} on {args.n} strands:\n{lhs}"
        if args.compare is not None:
            yield f"equal to word {other}: {payload['equal']}"

    return (0 if payload.get("equal", True) else 1), {"json": payload, "text": text}


def cmd_clifford_fusion(args):
    powers = [
        {"n": n, "unit": power.unit, "p": power.p}
        for n, power in enumerate(clifford.fusion_powers(args.power))
    ]

    def rows():
        return [[str(value) for value in e.values()] for e in powers]

    return 0, {
        "json": {"powers": powers},
        "text": lambda: [_aligned([["n", "unit", "P"]] + rows())],
        "csv": lambda: ["n,unit,p"] + [",".join(row) for row in rows()],
    }


def cmd_dirac_verify(args):
    frame = dirac.dirac_frame(args.dim)
    momentum = tuple(parse_rational(tok) for tok in args.p.split(","))
    params = dirac.OnShellParams.of(parse_rational(args.E), momentum, parse_rational(args.m))
    checks = [
        {"check": "on_shell", "lhs": str(params.momentum_squared + params.mass ** 2),
         "rhs": str(params.energy ** 2), "pass": params.on_shell},
        # the chosen version's relations and the version-free ones, by C14's names
        *({"check": name, "pass": ok}
          for name, ok in _outcomes(dirac.relations(frame, params)).items()
          if name.startswith(f"{args.version}-") or not name.startswith(dirac.VERSIONS)),
    ]
    all_pass = all(c["pass"] for c in checks)
    payload = {"version": args.version, "dim": args.dim,
               "E": str(params.energy), "p": ",".join(map(str, params.momentum)),
               "m": str(params.mass),
               "checks": checks, "all_pass": all_pass}
    return (0 if all_pass else 1), {
        "json": payload,
        "text": lambda: [_aligned([["check", "pass"]]
                                  + [[c["check"], str(c["pass"])] for c in checks])],
    }


def cmd_dirac_majorana(args):
    gens = dirac.majorana_dirac_generators()
    all_real = all(_outcomes(clifford.real_relations(gens)).values())
    relations = _outcomes(dirac.generator_relations(gens))
    copies_ok = all(_outcomes(dirac.commuting_copy_relations()).values())
    payload = {
        "all_real": all_real,
        "relations": relations,
        "commuting_copies_ok": copies_ok,
    }
    matrices = gens.items() if args.emit_matrices else ()
    if matrices:
        payload["matrices"] = {name: _cells(matrix) for name, matrix in matrices}
    ok = all_real and all(relations.values()) and copies_ok

    def text():
        yield f"all real: {all_real}"
        for name, value in relations.items():
            yield f"{name}: {value}"
        yield f"commuting copies: {copies_ok}"
        for name, matrix in matrices:
            yield f"{name} =\n{matrix}"

    return (0 if ok else 1), {"json": payload, "text": text}


def cmd_discrete_commutator(args):
    values = [parse_rational(tok) for tok in args.seq.split(",")]
    seq = discrete.Sequence.from_values(values)
    dt = parse_rational(args.dt)
    if dt == 0:
        raise ValueError("--dt must be nonzero")
    lhs, rhs = discrete.basic_commutator(seq, dt)
    left, right = discrete.on_overlap(lhs, rhs)
    equal = left == right

    def poly_payload(poly):
        return [{"j_power": k, "window": list(c.window()) if c.window() else None,
                 "values": list(map(str, c.samples)) if c.samples is not None else str(c.const)}
                for k, c in poly.terms]

    payload = {"lhs": poly_payload(lhs), "rhs": poly_payload(rhs), "equal": equal}
    return (0 if equal else 1), {
        "json": payload,
        "text": lambda: [f"[x, Dx] terms: {payload['lhs']}",
                         f"J (dx)^2/dt terms: {payload['rhs']}",
                         f"equal on overlap: {equal}"],
    }


def _initial_fields(cfg, text: str):
    """The (even, odd) start fields named by --init.  A gaussian parameter left
    out takes its default: mu = cells*dx/2, the middle of the ring, and sigma =
    cells*dx/16.  A centre off the ring [0, cells*dx) or a plane wave that does
    not fit the lattice is refused."""
    kind, _, spec = text.partition(":")
    ring = cfg.cells * cfg.dx
    params = {"mu": ring / 2, "sigma": ring / 16}
    try:
        if kind == "planewave":
            k_mode = int(spec)
        if kind == "gaussian":
            pairs = (part.split("=") for part in spec.split(",")) if spec else ()
            params |= {key: float(value) for key, value in pairs}
    except ValueError:
        kind = None
    if kind == "planewave":
        return schrodinger.plane_wave_fields(cfg, k_mode)
    if kind == "gaussian" and params.keys() == {"mu", "sigma"}:
        mu, sigma = params["mu"], params["sigma"]
        if not (0 <= mu < ring or math.isnan(mu)):
            raise ValueError(f"gaussian centre mu = {mu} is off the ring [0, {ring}) "
                             f"of {cfg.cells} cells of width dx = {cfg.dx}")
        if sigma > 0:
            fields = schrodinger.gaussian_fields(cfg, mu, sigma)
            if all(math.isfinite(v) for field in fields for v in field):
                return fields
    raise ValueError(f"cannot read init {text!r}; use gaussian:mu=..,sigma=.. or planewave:k")


def cmd_schrodinger_run(args):
    cfg = schrodinger.LatticeConfig(
        cells=args.n, dx=args.dx, dt=args.dt, kappa=args.kappa, steps=args.steps
    )
    if args.dispersion is not None and (args.init, args.sample_every) != (None, None):
        raise ValueError("--dispersion runs its own plane wave and writes no CSV; "
                         "give no --init and no --sample-every")
    init = "gaussian:sigma=10" if args.init is None else args.init
    every = 1 if args.sample_every is None else args.sample_every
    if every < 1:
        raise ValueError(f"--sample-every must be positive, got {every}")
    kept = cfg.steps // 2 // every + 1  # the tick pairs the CSV writes
    if args.dispersion is None and cfg.cells * kept > groups.MAX_LATTICE_ROWS:
        raise ValueError(f"{cfg.cells} cells x {kept} samples is {cfg.cells * kept} CSV rows, "
                         f"over the cap of {groups.MAX_LATTICE_ROWS}; raise --sample-every")
    # the dispersion report follows one mode, which does not show the growth
    # of the lattice's highest modes from r = 1/2 on
    if args.dispersion is not None and cfg.stability_warning:
        print(f"schrodinger run failed: --dispersion needs r < 1/2, got r = {cfg.ratio:.4f}",
              file=sys.stderr)
        return 1, {}
    if args.dispersion is not None:
        report = schrodinger.dispersion_check(cfg, args.dispersion)
        printed = [(report.measured_omega, report.rel_error)]
    else:
        samples = schrodinger.run(cfg, *_initial_fields(cfg, init), every=every)
        printed = [[a * a + b * b for a, b in zip(e, o)] for e, o in samples]
    # each printed value is tested; abs2 = e^2 + o^2 is finite only where e and o are
    if not all(math.isfinite(v) for row in printed for v in row):
        print(f"schrodinger run failed: the fields overflowed at r = {cfg.ratio:.4f}",
              file=sys.stderr)
        return 1, {}
    if args.dispersion is not None:
        return 0, {"json": {**asdict(report), "ratio": cfg.ratio}}
    if cfg.stability_warning:
        print(f"warning: ratio r = {cfg.ratio:.4f} is at least 1/2; expect instability",
              file=sys.stderr)

    def rows():
        yield "t_index,cell,psi_e,psi_o,re,im,abs2"
        for sample, ((e, o), abs2) in enumerate(zip(samples, printed)):
            index = sample * every
            for cell in range(cfg.cells):
                re_v, im_v = e[cell], o[cell]
                yield (f"{index},{cell},{re_v:.12g},{im_v:.12g},{re_v:.12g},{im_v:.12g},"
                       f"{abs2[cell]:.12g}")

    return 0, {"csv": rows}


def cmd_lof_reduce(args):
    if args.random:
        if args.expression is not None or args.trace:
            raise ValueError("--random draws its own expressions; give no EXPR and no --trace")
        trials, depth, seed = args.random
        if not 1 <= trials <= groups.MAX_LOF_TRIALS:
            raise ValueError(f"--random N {trials} is outside 1..{groups.MAX_LOF_TRIALS}")
        if not 1 <= depth <= groups.MAX_LOF_DEPTH:
            raise ValueError(f"--random DEPTH {depth} is outside 1..{groups.MAX_LOF_DEPTH}")
        disagreements = lof.confluence_fuzz(trials, max_depth=depth, orders=4, seed=seed)
        return (0 if disagreements == 0 else 1), {
            "json": {"trials": trials, "disagreements": disagreements},
            "text": lambda: [f"{trials} random expressions, disagreements: {disagreements}"],
        }
    expr = lof.parse(args.expression or "")
    if args.trace:
        result = lof.reduce_expression(expr)
        value, trace = result.value, result.trace
        steps = [{"rule": s.rule, "location": list(s.location),
                  "before": s.before, "after": s.after} for s in trace]
    else:
        value, steps = lof.reduce_untraced(expr)
        trace = ()
    return (0 if value == "marked" else 1), {
        "json": {"value": value, "steps": steps},
        "text": lambda: [*(f"{s.rule:9s} {s.before} -> {s.after}" for s in trace), value],
    }


def cmd_verify_all(args):
    entries = verify.run_verify(seed=args.seed)
    all_passed = all(e.passed for e in entries)

    def text():
        yield _aligned([["check", "area", "status", "description"]] + [
            [e.check_id, e.area, "PASS" if e.passed else "FAIL", e.description]
            for e in entries
        ])
        yield f"{sum(1 for e in entries if e.passed)}/{len(entries)} checks passed"

    return (0 if all_passed else 1), {
        "json": {
            "entries": [
                {"check_id": e.check_id, "area": e.area,
                 "description": e.description, "pass": e.passed,
                 "lhs": e.lhs, "rhs": e.rhs,
                 **({"witness": e.witness} if e.witness else {})}
                for e in entries
            ],
            "all_passed": all_passed,
        },
        "text": text,
        "csv": lambda: ["check_id,area,pass,description"] + [
            f"{e.check_id},{e.area},{e.passed},\"{e.description}\"" for e in entries],
    }


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a minus and a digit, as in -1,0,0 or -1/2, as a value; so do its subparsers."""

    def _parse_optional(self, arg_string):
        return None if arg_string[1:2].isdigit() else super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    call and every main(); do not mutate it.  Sharing is safe because
    parse_args returns a new Namespace each time, no default is mutable, and
    argparse looks sys.stdout and sys.stderr up when it prints."""
    parser = _Parser(
        prog="iterant-lab",
        description="Exact-arithmetic workbench for iterant algebras and friends",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group_sub = _module(sub, "group", "finite groups and their tables")
    table_p = group_sub.add_parser("table", help="emit a multiplication or identity-diagonal table")
    table_p.add_argument("--group", required=True, help="c<n>, s<n>, or klein4")
    table_p.add_argument("--gtable", action="store_true",
                         help="emit the identity-diagonal rearrangement")
    _flags(table_p, cmd_group_table, JSON_TEXT_CSV)

    iter_sub = _module(sub, "iterant", "period-two iterant arithmetic")
    eval_p = iter_sub.add_parser("eval", help="combine two period-two elements")
    eval_p.add_argument("left", help='e.g. "[1,2] + [3,4]e"')
    eval_p.add_argument("right")
    _flags(eval_p, cmd_iterant_eval)

    matrep_sub = _module(sub, "matrep", "matrix representation bridge")
    dec_p = matrep_sub.add_parser("decompose", help="diagonal-times-permutation decomposition")
    dec_p.add_argument("--matrix", required=True, help="JSON file holding the matrix")
    _flags(dec_p, cmd_matrep_decompose, default="json")
    iso_p = matrep_sub.add_parser("isocheck",
                                  help="prove whether the representation map is an isomorphism")
    iso_p.add_argument("--group", required=True)
    iso_p.add_argument("--natural", action="store_true",
                       help="use the natural degree-n symmetric action instead of the regular one")
    iso_p.add_argument("--seed", type=int, default=7,
                       help="accepted, but no longer changes the result: the check draws nothing")
    _flags(iso_p, cmd_matrep_isocheck)

    cliff_sub = _module(sub, "clifford", "quaternions, braiding, fusion")
    quat_p = cliff_sub.add_parser("quaternions", help="a quaternion triple and its table")
    quat_p.add_argument("--variant", choices=("klein4", "iota_2x2", "majorana_triple"),
                        default="klein4")
    quat_p.add_argument("--verify", action="store_true")
    _flags(quat_p, cmd_clifford_quaternions)
    braid_p = cliff_sub.add_parser("braid", help="braid words on the generator span")
    braid_p.add_argument("--n", type=int, required=True)
    braid_p.add_argument("--word", required=True, help='e.g. "1 2 1"')
    braid_p.add_argument("--compare", default=None, help="second word to compare against")
    _flags(braid_p, cmd_clifford_braid)
    fusion_p = cliff_sub.add_parser("fusion", help="powers of the self-dual particle")
    fusion_p.add_argument("--power", type=int, default=10)
    _flags(fusion_p, cmd_clifford_fusion, JSON_TEXT_CSV)

    dirac_sub = _module(sub, "dirac", "nilpotent plane-wave operator checks")
    dv_p = dirac_sub.add_parser("verify", help="relation report for given E, p, m")
    dv_p.add_argument("--E", required=True)
    dv_p.add_argument("--p", required=True, help="scalar, or comma-separated triple for 3d")
    dv_p.add_argument("--m", required=True)
    dv_p.add_argument("--version", choices=dirac.VERSIONS, default="time_reversed")
    dv_p.add_argument("--dim", choices=("1d", "3d"), default="1d")
    _flags(dv_p, cmd_dirac_verify, default="json")
    dm_p = dirac_sub.add_parser("majorana-generators", help="the totally real generator set")
    dm_p.add_argument("--emit-matrices", action="store_true")
    _flags(dm_p, cmd_dirac_majorana, default="json")

    disc_sub = _module(sub, "discrete", "discrete non-commutative calculus")
    comm_p = disc_sub.add_parser("commutator", help="[x, Dx] against J (dx)^2/dt")
    comm_p.add_argument("--seq", required=True, help='comma-separated rationals, e.g. "0,1,0,1,0"')
    comm_p.add_argument("--dt", default="1")
    _flags(comm_p, cmd_discrete_commutator, default="json")

    sch_sub = _module(sub, "schrodinger", "staggered lattice scheme")
    run_p = sch_sub.add_parser("run", help="evolve and emit CSV, or a dispersion report")
    run_p.add_argument("--n", type=int, default=256)
    run_p.add_argument("--dx", type=float, default=1.0)
    run_p.add_argument("--dt", type=float, default=0.05)
    run_p.add_argument("--kappa", type=float, default=1.0)
    run_p.add_argument("--steps", type=int, default=2000)
    run_p.add_argument("--init", help="CSV only; default gaussian:sigma=10, centred on the "
                                      "ring (mu = n*dx/2)")
    run_p.add_argument("--sample-every", type=int, help="CSV only; default 1")
    run_p.add_argument("--dispersion", type=int, default=None,
                       help="emit the dispersion report for this mode instead of CSV")
    _flags(run_p, cmd_schrodinger_run, formats=())

    lof_sub = _module(sub, "lof", "calculus of indications")
    red_p = lof_sub.add_parser("reduce", help="reduce an expression; exit 0 marked, 1 unmarked")
    red_p.add_argument("expression", nargs="?", default=None)
    red_p.add_argument("--trace", action="store_true")
    red_p.add_argument("--random", nargs=3, type=int, metavar=("N", "DEPTH", "SEED"),
                       default=None, help="fuzz N random expressions instead")
    _flags(red_p, cmd_lof_reduce)

    verify_p = sub.add_parser("verify-all", help="run the full identity suite")
    verify_p.add_argument("--seed", type=int, default=7,
                          help="accepted, but no longer changes the result: no row draws")
    _flags(verify_p, cmd_verify_all, JSON_TEXT_CSV)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _write(args, *args.func(args))
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
