"""Output checks for the benchmark, computed apart from the program.

Each check takes the exit code and standard output of one CLI call and raises
``Mismatch`` when they are wrong.  The expected values come from this file's
own arithmetic (``Fraction`` pairs for Gaussian rationals, integer
signed-permutation products, a linear-time mark evaluator) or from properties
the method must have, never from a recorded copy of the program's output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import factorial

Gauss = tuple[Fraction, Fraction]
ZERO: Gauss = (Fraction(0), Fraction(0))
ONE: Gauss = (Fraction(1), Fraction(0))


class Mismatch(Exception):
    """An output that breaks what the benchmark knows about it."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as err:
        raise Mismatch(f"output is not JSON: {err}") from None


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions.


def gauss(text: str) -> Gauss:
    """Read "a/b", "a/b+c/di", "-i", "3i" and the like."""
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    real, imag = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    im = {"": Fraction(1), "+": Fraction(1), "-": Fraction(-1)}.get(imag)
    return (Fraction(real) if real else Fraction(0), im if im is not None else Fraction(imag))


def gauss_json(obj: dict) -> Gauss:
    return (Fraction(*obj["re"]), Fraction(*obj["im"]))


def gmul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] + b[0], a[1] + b[1])


def matmul(a: list[list[Gauss]], b: list[list[Gauss]]) -> list[list[Gauss]]:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = gadd(acc, gmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def identity(n: int, value: Gauss = ONE) -> list[list[Gauss]]:
    return [[value if i == j else ZERO for j in range(n)] for i in range(n)]


def read_matrix(rows) -> list[list[Gauss]]:
    return [[gauss(str(cell)) for cell in row] for row in rows]


# ---------------------------------------------------------------------------
# verify-all


def check_verify_all(code: int, out: str) -> None:
    data = _json(out)
    entries = data["entries"]
    ids = [e["check_id"] for e in entries]
    require(len(ids) == len(set(ids)), "check ids are not unique")
    failing = [e["check_id"] for e in entries if e["pass"] is not True]
    require(not failing, f"rows fail: {failing[:5]}")
    criteria = {i.split(".", 1)[0] for i in ids}
    missing = [f"C{k:02d}" for k in range(1, 18) if f"C{k:02d}" not in criteria]
    require(not missing, f"criteria missing: {missing}")
    require(data["all_passed"] is True and code == 0, "verify-all does not report success")


# ---------------------------------------------------------------------------
# Mark calculus.


def mark_value(text: str) -> bool:
    """A mark is marked iff no child is marked; a forest iff any item is."""
    stack: list[list[bool]] = [[]]
    for ch in text:
        if ch == "(":
            stack.append([])
        elif ch == ")":
            children = stack.pop()
            stack[-1].append(not any(children))
    require(len(stack) == 1, "unbalanced expression")
    return any(stack[0])


def _value_name(marked: bool) -> str:
    return "marked" if marked else "unmarked"


def check_lof_reduce(expr: str):
    expected = _value_name(mark_value(expr))

    def check(code: int, out: str) -> None:
        data = _json(out)
        require(data["value"] == expected, f"value {data['value']}, expected {expected}")
        require(isinstance(data["steps"], int) and data["steps"] >= 0, "step count missing")
        require(code == (0 if expected == "marked" else 1), f"exit code {code} for {expected}")

    return check


def check_lof_trace(expr: str):
    expected = _value_name(mark_value(expr))

    def check(code: int, out: str) -> None:
        data = _json(out)
        require(data["value"] == expected, f"value {data['value']}, expected {expected}")
        require(code == (0 if expected == "marked" else 1), f"exit code {code} for {expected}")
        current = expr or "*"
        for step in data["steps"]:
            require(step["rule"] in ("calling", "crossing"), f"unknown rule {step['rule']!r}")
            require(step["before"] == current, "trace steps do not chain")
            require(
                step["after"].count("(") < step["before"].count("("),
                f"step {step['before']} -> {step['after']} does not shrink the mark count",
            )
            current = step["after"]
        require(current in ("()", "*"), f"trace ends at {current!r}")
        require((current == "()") == (expected == "marked"), "trace ends at the wrong value")

    return check


def check_lof_random(trials: int):
    def check(code: int, out: str) -> None:
        data = _json(out)
        require(data["trials"] == trials, "trial count differs from the request")
        require(data["disagreements"] == 0 and code == 0, "random rule orders disagree")

    return check


# ---------------------------------------------------------------------------
# The README tour.


def period2_matrix(parts: tuple[Fraction, Fraction, Fraction, Fraction]) -> list[list[Gauss]]:
    """[a,b] + [c,d]e is the matrix [[a, c], [d, b]]."""
    a, b, c, d = ((x, Fraction(0)) for x in parts)
    return [[a, c], [d, b]]


def check_iterant_eval(left, right):
    lm, rm = period2_matrix(left), period2_matrix(right)
    product = matmul(lm, rm)

    def check(code: int, out: str) -> None:
        data = _json(out)
        require(code == 0, f"exit code {code}")
        require(read_matrix(data["left_matrix"]) == lm, "left matrix differs from [[a,c],[d,b]]")
        require(read_matrix(data["product_matrix"]) == product,
                "product matrix differs from the product of the input matrices")

    return check


def cycle_images(text: str, n: int) -> list[int]:
    """0-based images of a 1-based cycle string such as "(132)(45)"."""
    images = list(range(n))
    for cycle in text.replace(")", "").split("(")[1:]:
        points = [int(ch) - 1 for ch in cycle]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return images


def check_decompose(matrix: list[list[Gauss]]):
    n = len(matrix)

    def check(code: int, out: str) -> None:
        data = _json(out)
        require(code == 0 and data["reassembly_exact"] is True, "reassembly not exact")
        terms = data["terms"]
        require(len(terms) == factorial(n), f"{len(terms)} terms for n = {n}")
        perms = [tuple(cycle_images(t["perm"], n)) for t in terms]
        require(len(set(perms)) == len(perms), "a permutation repeats")
        total = [[ZERO] * n for _ in range(n)]
        for images, term in zip(perms, terms):
            for i, cell in enumerate(term["diag"]):
                total[i][images[i]] = gadd(total[i][images[i]], gauss_json(cell))
        scale = Fraction(1, factorial(n - 1))
        resum = [[(x * scale, y * scale) for x, y in row] for row in total]
        require(resum == matrix, "terms do not re-sum to the input matrix")

    return check


def check_isocheck(order: int, natural: bool):
    def check(code: int, out: str) -> None:
        data = _json(out)
        require(code == 0 and data["homomorphism_ok"] is True, "not a homomorphism")
        require(data["image_rank"] == order * order,
                f"rank {data['image_rank']}, expected {order * order}")
        require(data["isomorphism"] is (not natural),
                f"isomorphism {data['isomorphism']} for a {'natural' if natural else 'regular'} action")

    return check


def check_quaternions(code: int, out: str) -> None:
    data = _json(out)
    require(code == 0 and data["table_holds"] is True, "16-product table does not hold")
    i, j, k = (read_matrix(data[name]) for name in ("I", "J", "K"))
    minus_one = identity(len(i), (Fraction(-1), Fraction(0)))
    require(matmul(i, i) == minus_one and matmul(j, j) == minus_one
            and matmul(k, k) == minus_one, "a unit does not square to -1")
    require(matmul(i, j) == k and matmul(matmul(i, j), k) == minus_one, "IJ = K or IJK = -1 fails")


def signed_braid(n: int, word: list[int]) -> list[tuple[int, int]]:
    """Row i of the product: (column, sign) of the image of generator i + 1.

    Braid generator k sends c_k to c_{k+1} and c_{k+1} to -c_k.
    """
    rows = [(i, 1) for i in range(n)]
    for k in word:
        step = [(i, 1) for i in range(n)]
        step[k - 1], step[k] = (k, 1), (k - 1, -1)
        rows = [(step[col][0], sign * step[col][1]) for col, sign in rows]
    return rows


def check_braid(n: int, word: list[int], other: list[int]):
    lhs = signed_braid(n, word)
    equal = lhs == signed_braid(n, other)

    def check(code: int, out: str) -> None:
        data = _json(out)
        expected = [["0"] * n for _ in range(n)]
        for i, (col, sign) in enumerate(lhs):
            expected[i][col] = str(sign)
        require(data["matrix"] == expected, "braid matrix differs from the signed-permutation product")
        require(data["equal"] is equal, f"equal is {data['equal']}, expected {equal}")
        require(code == (0 if equal else 1), f"exit code {code}")

    return check


def check_fusion(power: int):
    def check(code: int, out: str) -> None:
        powers = _json(out)["powers"]
        require(code == 0 and [p["n"] for p in powers] == list(range(power + 1)), "wrong powers listed")
        previous, current = 1, 0  # F(-1), F(0)
        for entry in powers:
            require(entry["unit"] == previous and entry["p"] == current,
                    f"P^{entry['n']} = {entry['unit']} + {entry['p']}P is not Fibonacci")
            previous, current = current, previous + current

    return check


def check_dirac(energy: Fraction, momentum: tuple[Fraction, ...], mass: Fraction):
    shell = sum(p * p for p in momentum) + mass * mass
    require(shell == energy * energy, "generated triple is off shell")

    def check(code: int, out: str) -> None:
        data = _json(out)
        failing = [c["check"] for c in data["checks"] if c["pass"] is not True]
        require(not failing and data["all_pass"] is True and code == 0, f"checks fail: {failing}")
        on_shell = next(c for c in data["checks"] if c["check"] == "on_shell")
        require(Fraction(on_shell["lhs"]) == shell and Fraction(on_shell["rhs"]) == shell,
                "on-shell report differs from p^2 + m^2 = E^2")

    return check


def check_majorana(emitted: bool):
    def check(code: int, out: str) -> None:
        data = _json(out)
        require(code == 0 and data["all_real"] is True and data["commuting_copies_ok"] is True,
                "generator report fails")
        require(all(v is True for v in data["relations"].values()), "a relation fails")
        if not emitted:
            return
        mats = {name: read_matrix(rows) for name, rows in data["matrices"].items()}
        require(all(y == 0 for m in mats.values() for row in m for _, y in row), "a generator is not real")
        one, minus_one = identity(4), identity(4, (Fraction(-1), Fraction(0)))
        for name, m in mats.items():
            square = matmul(m, m)
            require(square == (minus_one if name == "beta_prime" else one), f"{name}^2 is wrong")
        names = sorted(mats)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                x, y = mats[names[a]], mats[names[b]]
                anti = [[gadd(p, q) for p, q in zip(r, s)] for r, s in zip(matmul(x, y), matmul(y, x))]
                require(anti == identity(4, ZERO), f"{names[a]} and {names[b]} do not anticommute")

    return check


def check_commutator(code: int, out: str) -> None:
    require(_json(out)["equal"] is True and code == 0, "[x, Dx] differs from J (dx)^2/dt")


def check_group_table(gtable: bool):
    def check(code: int, out: str) -> None:
        table = _json(out)["table"]
        n = len(table)
        names = set(table[0])
        require(code == 0 and len(names) == n, "first row is not a permutation of the elements")
        for row in table:
            require(len(row) == n and set(row) == names, "a row is not a permutation")
        for col in zip(*table):
            require(set(col) == names, "a column is not a permutation")
        identity_name = "()" if "()" in names else "1"
        require(identity_name in names, "no element is named as the identity")
        if gtable:
            require(all(table[i][i] == identity_name for i in range(n)),
                    "the identity does not fill the diagonal")

    return check


def check_dispersion(k_mode: int):
    def check(code: int, out: str) -> None:
        data = _json(out)
        require(code == 0 and data["k_mode"] == k_mode, "wrong mode reported")
        require(data["ratio"] <= 0.25, "input outside the stable range")
        for key in ("measured_omega", "predicted_omega", "rel_error"):
            require(math.isfinite(data[key]), f"{key} is not finite")
        require(data["rel_error"] < 0.02, f"rel_error {data['rel_error']} at r = {data['ratio']}")

    return check


def handled_cleanly(code: int | None, out: str, err: str) -> bool:
    """A bad input must give a one-line error and exit 2, or exit 1 with no NaN."""
    if code == 2:
        error_lines = [line for line in err.splitlines() if "error" in line.lower()]
        return len(error_lines) == 1 and "Traceback" not in err
    return code == 1 and "nan" not in out.lower()
