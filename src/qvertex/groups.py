"""Finite subgroups of SU(2) as pure character-table data.

A group is a table: conjugacy classes with centralizer orders, the inverse-class
involution, the matrix of irreducible character values, and the natural
2-dimensional character pi of the SU(2) embedding.  A character value is a
constant Laurent (an element of Q(zeta_N), N the group's conductor or a
divisor of it).  Nothing here touches group elements; every downstream
computation runs off this data.

Built-ins: cyclic(n), binary_dihedral(n), binary_tetrahedral.  The E7/E8 groups
(binary octahedral/icosahedral) can be supplied through the text file format
documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .scalar import L_ONE, L_ZERO, Laurent, _lift


@dataclass(frozen=True)
class ClassData:
    label: str
    centralizer_order: int
    inverse_class: int
    element_order: int


@dataclass(frozen=True)
class GroupData:
    name: str
    order: int
    conductor: int
    classes: tuple[ClassData, ...]
    char_table: tuple[tuple[Laurent, ...], ...]  # rows = characters, cols = classes
    natural_char: tuple[Laurent, ...]
    cartan_layout: tuple | None = None  # ("A", n) | ("D", n) | ("E", 6); None for file groups

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(int(row[0].as_rational()) for row in self.char_table)

    def class_size(self, c: int) -> int:
        return self.order // self.classes[c].centralizer_order

    def inv(self, c: int) -> int:
        return self.classes[c].inverse_class

    def zeta(self, c: int) -> int:
        return self.classes[c].centralizer_order


def build_group(spec: str) -> GroupData:
    """Parse a group spec string: cyclic:N | bd:N | bt | file:PATH."""
    for prefix, build in (("cyclic:", cyclic), ("bd:", binary_dihedral)):
        if spec.startswith(prefix):
            try:
                n = int(spec[len(prefix):])
            except ValueError:
                raise ValueError(f"group spec {spec!r}: expected {prefix}N with an integer N") from None
            return build(n)
    if spec == "bt":
        return binary_tetrahedral()
    if spec.startswith("file:"):
        return load_group_file(spec.split(":", 1)[1])
    raise ValueError(f"unknown group spec {spec!r}")


# --------------------------------------------------------------------------
# built-in constructions


def cyclic(n: int) -> GroupData:
    """Z/nZ in SU(2) via diag(zeta_n, zeta_n^-1); McKay graph = affine A_{n-1}."""
    if n < 1:
        raise ValueError("cyclic(n) needs n >= 1")
    table = tuple(
        tuple(Laurent.root(n, i * j) for j in range(n))
        for i in range(n)
    )
    classes = tuple(
        ClassData(
            label=f"c{j}",
            centralizer_order=n,
            inverse_class=(-j) % n,
            element_order=n // gcd(n, j) if j else 1,
        )
        for j in range(n)
    )
    natural = tuple(table[1 % n][j] + table[(n - 1) % n][j] for j in range(n))
    return GroupData(
        name=f"cyclic({n})",
        order=n,
        conductor=n,
        classes=classes,
        char_table=table,
        natural_char=natural,
        cartan_layout=("A", n - 1),
    )


def binary_dihedral(n: int) -> GroupData:
    """Binary dihedral <a, b | a^{2n}=1, b^2=a^n, bab^-1=a^-1>, order 4n.

    Class order: e, a^1..a^{n-1}, a^n, b-coset (even powers), ab-coset (odd).
    Character order matches the affine D_{n+2} layout: the two fork nodes at the
    trivial end, the 2-dimensional chain chi_1..chi_{n-1}, then the far fork.
    """
    if n < 2:
        raise ValueError("binary_dihedral(n) needs n >= 2")
    order = 4 * n
    cond = 2 * n if n % 2 == 0 else 4 * n
    m = 2 * n  # a has order 2n

    classes = [ClassData("e", order, 0, 1)]
    for k in range(1, n):
        classes.append(ClassData(f"a{k}", m, k, m // gcd(m, k)))
    classes.append(ClassData(f"a{n}", order, n, 2))
    # b-classes; for odd n inversion swaps them (b^-1 = a^n b lands in the odd coset)
    ib, iab = (n + 1, n + 2) if n % 2 == 0 else (n + 2, n + 1)
    classes.append(ClassData("b", 4, ib, 4))
    classes.append(ClassData("ab", 4, iab, 4))

    one = L_ONE
    neg = -L_ONE

    def one_dim(alpha: int, beta: Laurent) -> tuple[Laurent, ...]:
        # rho(a) = alpha (as +-1), rho(b) = beta
        row = [one]
        for k in range(1, n + 1):
            row.append(one if (alpha == 1 or k % 2 == 0) else neg)
        row.append(beta)
        row.append(beta if alpha == 1 else -beta)
        return tuple(row)

    def two_dim(k: int) -> tuple[Laurent, ...]:
        row = [Laurent.of(2)]
        for j in range(1, n):
            row.append(Laurent.root(m, k * j) + Laurent.root(m, -k * j))
        row.append(Laurent.of(2 if (k * n) % m == 0 else -2))
        row.extend([L_ZERO, L_ZERO])
        return tuple(row)

    beta0 = one if n % 2 == 0 else Laurent.root(4)  # beta^2 = (-1)^n
    rows = [one_dim(1, one), one_dim(1, neg)]
    rows.extend(two_dim(k) for k in range(1, n))
    rows.append(one_dim(-1, beta0))
    rows.append(one_dim(-1, -beta0))
    table = tuple(rows)

    natural = table[2]  # chi_1 is the SU(2) embedding
    return GroupData(
        name=f"binary_dihedral({n})",
        order=order,
        conductor=cond,
        classes=tuple(classes),
        char_table=table,
        natural_char=natural,
        cartan_layout=("D", n + 2),
    )


def binary_tetrahedral() -> GroupData:
    """The binary tetrahedral group 2T = SL(2,3), order 24, McKay graph E6 hat.

    Class order: e, z=-1, the order-4 class, w, w^2 (order 3), -w, -w^2 (order 6).
    Character order: 1, 1', 1'', 2=pi, 2'=2x1', 2''=2x1'', 3.
    """
    N = 12
    w = Laurent.root(N, 4)  # primitive cube root
    w2 = Laurent.root(N, 8)
    r = Laurent.of

    classes = (
        ClassData("e", 24, 0, 1),
        ClassData("z", 24, 1, 2),
        ClassData("i", 4, 2, 4),
        ClassData("w", 6, 4, 3),
        ClassData("w2", 6, 3, 3),
        ClassData("-w", 6, 6, 6),
        ClassData("-w2", 6, 5, 6),
    )
    table = (
        (r(1), r(1), r(1), r(1), r(1), r(1), r(1)),
        (r(1), r(1), r(1), w, w2, w, w2),
        (r(1), r(1), r(1), w2, w, w2, w),
        (r(2), r(-2), r(0), r(-1), r(-1), r(1), r(1)),
        (r(2), r(-2), r(0), -w, -w2, w, w2),
        (r(2), r(-2), r(0), -w2, -w, w2, w),
        (r(3), r(3), r(-1), r(0), r(0), r(0), r(0)),
    )
    return GroupData(
        name="binary_tetrahedral",
        order=24,
        conductor=N,
        classes=classes,
        char_table=table,
        natural_char=table[3],
        cartan_layout=("E", 6),
    )


# --------------------------------------------------------------------------
# validation


def validate_group(g: GroupData) -> list[str]:
    """Check every structural invariant; returns the list of violations."""
    bad: list[str] = []
    n = g.n_classes

    # shape and ranges first: the identities below index and divide by these
    if not n:
        return ["the group has no classes"]
    if len(g.char_table) != n:
        return [f"char_table has {len(g.char_table)} rows for {n} classes"]
    if any(len(row) != n for row in g.char_table):
        return ["char_table is not square"]
    if len(g.natural_char) != n:
        return [f"natural character has {len(g.natural_char)} values for {n} classes"]
    for cd in g.classes:
        if not 0 <= cd.inverse_class < n:
            return [f"inverse class index {cd.inverse_class} of {cd.label} is outside 0..{n - 1}"]
        if cd.centralizer_order < 1 or cd.element_order < 1:
            return [f"centralizer and element orders of {cd.label} must be positive"]

    if sum(g.class_size(c) for c in range(n)) != g.order:
        bad.append("class sizes do not sum to |G| (class equation)")
    for c, cd in enumerate(g.classes):
        if g.order % cd.centralizer_order:
            bad.append(f"centralizer order of {cd.label} does not divide |G|")
        if g.classes[cd.inverse_class].inverse_class != c:
            bad.append(f"inverse-class map not an involution at {cd.label}")
        if g.classes[cd.inverse_class].centralizer_order != cd.centralizer_order:
            bad.append(f"centralizer order differs on inverse class of {cd.label}")
        if g.order % cd.element_order:
            bad.append(f"element order of {cd.label} does not divide |G|")
    if g.classes[0].inverse_class != 0 or g.classes[0].centralizer_order != g.order:
        bad.append("class 0 is not the identity class")

    if any(v != 1 for v in g.char_table[0]):
        bad.append("character 0 is not trivial")
    try:
        dims = g.dims
        if any(d <= 0 for d in dims):
            bad.append("non-positive character dimension")
        elif sum(d * d for d in dims) != g.order:
            bad.append("sum of squared dimensions differs from |G|")
    except ValueError:
        bad.append("character dimension is not rational")
        dims = None

    # row orthogonality: <gamma_i, gamma_j> = delta_ij
    for i in range(n):
        for j in range(n):
            acc = L_ZERO
            for c in range(n):
                acc = acc + (g.char_table[i][c] * g.char_table[j][g.inv(c)]).scale(Fraction(1, g.zeta(c)))
            if acc != (1 if i == j else 0):
                bad.append(f"row orthogonality fails at characters ({i},{j})")
    # column orthogonality: sum_gamma gamma(c') gamma(c^-1) = delta zeta_c
    for c in range(n):
        for cp in range(n):
            acc = L_ZERO
            for i in range(n):
                acc = acc + g.char_table[i][cp] * g.char_table[i][g.inv(c)]
            if acc != (g.zeta(c) if c == cp else 0):
                bad.append(f"column orthogonality fails at classes ({c},{cp})")

    if g.natural_char[0] != 2:
        bad.append("natural character has dimension != 2")
    for c in range(n):
        if g.natural_char[g.inv(c)] != g.natural_char[c]:
            bad.append(f"natural character not self-conjugate at class {c}")
    return bad


def multiplicity(g: GroupData, a: tuple[Laurent, ...], b: tuple[Laurent, ...], k: int) -> int:
    """<a * b, gamma_k>, the multiplicity of gamma_k in the product of the characters a and b."""
    acc = L_ZERO
    for c in range(g.n_classes):
        acc = acc + (a[c] * b[c] * g.char_table[k][g.inv(c)]).scale(Fraction(1, g.zeta(c)))
    val = acc.as_rational()
    if val.denominator != 1:
        raise ValueError(f"non-integral multiplicity {val}")
    return int(val)


# --------------------------------------------------------------------------
# stored extended Cartan matrices (McKay targets)


def extended_cartan(layout: tuple) -> list[list[int]]:
    """Extended ADE Cartan matrix in the vertex order the builders use."""
    kind, n = layout
    if kind == "A":
        # affine A_n: n+1 vertices in cycle order (A_0 degenerates to [0], A_1 to -2s)
        m = n + 1
        if m == 1:
            return [[0]]
        if m == 2:
            return [[2, -2], [-2, 2]]
        out = [[0] * m for _ in range(m)]
        for i in range(m):
            out[i][i] = 2
            out[i][(i + 1) % m] = -1
            out[i][(i - 1) % m] = -1
        return out
    if kind == "D":
        # affine D_n with our ordering [f0, f1, chain..., g0, g1]; n+1 vertices
        m = n + 1
        chain = m - 4  # number of 2-dim chain nodes = n - 3
        out = [[0] * m for _ in range(m)]
        for i in range(m):
            out[i][i] = 2

        def link(i, j):
            out[i][j] = out[j][i] = -1

        link(0, 2)
        link(1, 2)
        for t in range(chain - 1):
            link(2 + t, 3 + t)
        link(2 + chain - 1, m - 2)
        link(2 + chain - 1, m - 1)
        return out
    if kind == "E" and n == 6:
        # order [1, 1', 1'', 2, 2', 2'', 3]: arms 1-2-3, 1'-2'-3, 1''-2''-3
        out = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
        for a, b in [(0, 3), (1, 4), (2, 5), (3, 6), (4, 6), (5, 6)]:
            out[a][b] = out[b][a] = -1
        return out
    raise ValueError(f"no stored Cartan matrix for {layout}")


def mckay_matrix(g: GroupData) -> list[list[int]]:
    """2*delta_ij - mult(gamma_j in pi*gamma_i), the McKay/Cartan matrix at q=1."""
    n = g.n_classes
    return [[(2 if i == j else 0) - multiplicity(g, g.natural_char, g.char_table[i], j) for j in range(n)] for i in range(n)]


# --------------------------------------------------------------------------
# group data files

_HEADER_KEYS = ("name", "order", "conductor", "classes")
_VALUES = "each V semicolon-joined POWER:RATIONAL pairs with nonzero denominators"
_RECORDS = {  # the shape of each record, named when a record does not parse
    "name": "name NAME", "order": "order N, an integer", "conductor": "conductor N, an integer",
    "classes": "classes K, an integer", "class": "class LABEL CENTRALIZER INVERSE_INDEX ELEMENT_ORDER, three integers",
    "char": f"char V1 ... VK, {_VALUES}", "natural": f"natural V1 ... VK, {_VALUES}",
}


def dump_group_file(g: GroupData, path: str) -> None:
    lines = [
        f"name {g.name}",
        f"order {g.order}",
        f"conductor {g.conductor}",
        f"classes {g.n_classes}",
    ]
    for cd in g.classes:
        lines.append(f"class {cd.label} {cd.centralizer_order} {cd.inverse_class} {cd.element_order}")

    def render(v: Laurent) -> str:
        n, c = v.coords()
        if g.conductor % n:
            raise ValueError(f"a value at conductor {n} does not live at the group's conductor {g.conductor}")
        pairs = [(i, x) for i, x in enumerate(_lift(n, g.conductor, c)) if x]
        return ";".join(f"{i}:{x}" for i, x in pairs) if pairs else "0:0"

    for row in g.char_table:
        lines.append("char " + " ".join(render(v) for v in row))
    lines.append("natural " + " ".join(render(v) for v in g.natural_char))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_group_file(path: str) -> GroupData:
    """Parse the text format written by dump_group_file; validates before returning.

    Grammar (one record per line, '#' comments allowed):
        name NAME / order N / conductor N / classes K
        class LABEL CENTRALIZER INVERSE_INDEX ELEMENT_ORDER     (K times)
        char V1 ... VK                                          (K times)
        natural V1 ... VK
    where each V is semicolon-joined root-power:rational pairs, e.g. 0:1;2:-1/2
    meaning 1*zeta^0 - 1/2*zeta^2 at the declared conductor.
    """
    head: dict = {}  # name: str, the other headers: int
    classes: list[ClassData] = []
    char_rows: list[tuple[Laurent, ...]] = []
    natural: tuple[Laurent, ...] | None = None

    def parse_value(tok: str) -> Laurent:
        acc = L_ZERO
        for pair in tok.split(";"):
            p, x = pair.split(":")
            acc = acc + Laurent.root(head["conductor"], int(p)).scale(Fraction(x))
        return acc

    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, rest = line.partition(" ")
            if key not in _RECORDS:
                raise ValueError(f"unknown record {key!r} in {path}")
            if key in ("char", "natural") and head.get("conductor", 0) < 1:
                raise ValueError(f"group file rejected: a {key} row needs a positive conductor header before it")
            try:
                if key == "name":
                    head[key] = rest.strip()
                elif key in _HEADER_KEYS:
                    head[key] = int(rest)
                elif key == "class":
                    label, cent, invc, eo = rest.split()
                    classes.append(ClassData(label, int(cent), int(invc), int(eo)))
                elif key == "char":
                    char_rows.append(tuple(parse_value(t) for t in rest.split()))
                else:
                    natural = tuple(parse_value(t) for t in rest.split())
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"group file rejected: a {key} record reads {_RECORDS[key]}; got {line!r}") from None

    missing = [k for k in _HEADER_KEYS if k not in head]
    if missing:
        raise ValueError(f"group file missing header fields: {missing}")
    if natural is None:
        raise ValueError("group file missing natural character row")
    if len(classes) != head["classes"]:
        raise ValueError(f"group file rejected: header declares classes {head['classes']} but {len(classes)} class lines follow")
    g = GroupData(
        name=head["name"],
        order=head["order"],
        conductor=head["conductor"],
        classes=tuple(classes),
        char_table=tuple(char_rows),
        natural_char=natural,
        cartan_layout=None,
    )
    bad = validate_group(g)
    if bad:
        raise ValueError(f"group file rejected: {bad[0]}")
    return g
