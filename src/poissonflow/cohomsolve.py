"""Exact solver for the coboundary equation Q = [[Y,P]].

The unknown Y is a vector field whose r components are homogeneous
polynomials of one degree D; matching coefficients of [[Y,P]] - Q turns the
equation into a linear system over Q.  Solutions come as one particular
field plus a basis of the kernel of [[.,P]] at degree D: the solution set
is an affine coset, exactly as the gauge freedom demands.

The column of the unknown x^a xi_i is [[x^a xi_i, P]].  The ``multivec``
bracket formula, with its signs from the ``multivec`` sign ledger, gives

    [[x^a xi_i, P]] = x^a d/dx^i(P) - sum_k a_k x^(a-e_k) xi_i ^ (d/dxi_k>P),

so ``assemble`` builds the r bivectors d/dx^i(P) and the r^2 bivectors
xi_i ^ (d/dxi_k>P) once and makes every column from monomial shifts of
them, with no bracket per unknown.  It shifts packed codes, not tuples:
each (component, monomial) pair is one int, the r exponents in fields of
w = max(1, out_deg.bit_length()) bits with the component's number above
them, where out_deg is the coefficient degree of [[Y,P]].  Every row
monomial, and every table term shifted by x^a or x^(a-e_k), has total
degree out_deg < 2^w, so no field carries into the next, and a shift is
one int add of the code of a or of a - e_k.  The row grid, right-hand side
and labels come from ``multivector_columns_system``, the one builder of a
system from multivector terms.

Rows are sparse from assembly to elimination: ``{col: coeff}`` over the
nonzero entries.  The assembled systems are 1-2.5% dense, so a reduction
step in ``solve_raw`` touches only the nonzero entries of two rows.  Rows
enter one at a time, in the order given, and each column keeps at most one
pivot row, a row whose leading (smallest) column it is.  An arriving row
is reduced against the pivot row of its leading column until it leads at a
column with no pivot row, where it becomes the pivot row, or vanishes.
When it is shorter than the stored pivot row, counting its right-hand
side, the two change places first: the shorter row is kept as the pivot
row, and the old one is reduced in its place, which keeps the fill-in of
the pivot rows low.  The pivot rows always span the same space as the rows
taken so far, so the pivot columns in the end are those of the reduced
echelon form of the row space, whichever rows hold them.  The pivot
columns fix the answer: the particular solution sets every free unknown to
0 and each kernel vector sets one free unknown to 1, and both are unique.
A row that reduces to 0 = b ends the solve at once; it is the first row,
in the given order, that contradicts the rows before it, and its label is
reported as the infeasibility witness, which depends on the row order and
on nothing else.  Back-substitution stays in integers: one bottom-up pass
over the pivot rows serves the particular solution and every kernel
vector, each held as integer numerators over its own denominator and
returned in that sparse form: a map ``{col: value}`` of its nonzero
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm

from .errors import DimensionError, PreconditionError
from .multivec import (Multivector, _merge_indices, _x_partial, _xi_left,
                       schouten)
from .ratpoly import (ANY_DEGREE, MAX_MONOMIALS, Poly, _check_int,
                      _coefficient, _is_int, _number_text, common_degree,
                      ratnorm)


def _monomial_count(nvars: int, degree: int) -> int:
    """The number of monomials of total degree ``degree`` in ``nvars``
    variables; ``DimensionError`` for a negative ``nvars`` or a count past
    ``MAX_MONOMIALS``."""
    if nvars < 0:
        raise DimensionError("monomials in %d variables" % nvars)
    if degree < 0:
        return 0
    if nvars == 0:
        return 1 if degree == 0 else 0
    # the count is comb(degree + k, k) >= 2**k, with k the smaller of
    # nvars - 1 and degree, so a k past the bound's bit length needs no count
    k = min(nvars - 1, degree)
    count = comb(degree + nvars - 1, k) if k < MAX_MONOMIALS.bit_length() else None
    if count is None or count > MAX_MONOMIALS:
        raise DimensionError("more than %d monomials of degree %s in %d variables"
                             % (MAX_MONOMIALS, _number_text(degree), nvars))
    return count


def monomials(nvars: int, degree: int):
    """Exponent tuples of total degree ``degree`` in descending grlex order.

    A negative degree has no monomials; a negative ``nvars``, or more than
    ``MAX_MONOMIALS`` monomials, raises ``DimensionError`` before any tuple
    is built.  The tuples are made in one loop, each from the one before,
    so any number of variables up to the bound works.
    """
    if not _monomial_count(nvars, degree):
        return []
    if nvars < 2:
        return [(degree,) * nvars]
    a = [degree] + [0] * (nvars - 1)
    out = [tuple(a)]
    last = nvars - 1
    i = 0 if degree else -1  # the last nonzero exponent before a[last]
    while i >= 0:
        # the next tuple down: one unit from a[i] and all of a[last] go to a[i + 1]
        a[i] -= 1
        if i + 1 < last:
            a[i + 1], a[last] = a[last] + 1, 0
            i += 1
        else:
            a[last] += 1
            while i >= 0 and not a[i]:
                i -= 1
        out.append(tuple(a))
    return out


def _bound(count: int, what: str) -> None:
    """DimensionError when an ansatz or its row grid holds more than
    ``MAX_MONOMIALS`` entries, raised before either is built."""
    if count > MAX_MONOMIALS:
        raise DimensionError("%d %s, more than %d" % (count, what, MAX_MONOMIALS))


# -- raw exact linear algebra -------------------------------------------


@dataclass
class RawSolution:
    status: str                       # "solved" | "infeasible"
    particular: dict | None = None    # {col: value}; free unknowns 0, absent
    kernel: list = field(default_factory=list)  # a {col: value} per free unknown
    witness: object = None            # label of the first row, in the given
                                      # order, that contradicts the rows before it


def solve_raw(matrix, rhs, row_labels=None, ncols=None) -> RawSolution:
    """Solve A x = b exactly over the rationals.

    Each row of ``matrix`` is a mapping ``{col: coeff}``, ints or Fractions,
    over columns in ``range(ncols)``; ``ncols`` is the number of unknowns
    and must be given when there are rows.  A column outside that range, a
    negative ``ncols``, or ``rhs`` and ``row_labels`` not having one entry
    per row raise ``DimensionError``; an entry or right-hand side that is
    neither an int nor a Fraction raises ``TypeError``.  All rows are
    checked before any is eliminated.

    Each row is scaled by the lcm of its denominators to integers (a row of
    ints is taken as it is), and its zero values are dropped: they must
    never become pivot candidates.  The module docstring gives the
    elimination scheme and why its answer does not depend on the pivot
    rows.  A row with an entry ``factor`` at the leading column of a pivot
    row ``base`` with pivot ``piv`` becomes ``(piv/g)*row - (factor/g)*base``,
    where ``g = gcd(piv, factor)``, divided by its content.  A reduction
    that leaves ``0 = b``, of the arriving row or of the pivot row it
    swapped out, ends the solve, and the arriving row's label is the
    witness.

    Back-substitution is in integers too: it walks the pivot rows once, by
    descending pivot column, for the particular solution and every kernel
    vector at once.
    Each vector keeps integer numerators over its own denominator, and a
    row touches only the vectors that are nonzero in its columns.  A pivot
    that does not divide a vector's sum rescales that vector alone.
    Each vector is returned as a map ``{col: value}`` of its nonzero values
    in column order, each reduced and an int wherever it is integral.
    """
    if ncols is None and matrix:
        raise DimensionError("solve_raw: a system with rows needs ncols")
    ncols = ncols or 0
    if ncols < 0:
        raise DimensionError("solve_raw: %d unknowns" % ncols)
    if row_labels is None:
        row_labels = range(len(matrix))
    if len(rhs) != len(matrix) or len(row_labels) != len(matrix):
        raise DimensionError("solve_raw: %d rows, %d right-hand sides, %d labels"
                             % (len(matrix), len(rhs), len(row_labels)))
    cols = set(range(ncols))
    rows = []
    for row, b, label in zip(matrix, rhs, row_labels):
        # True == 1 and 0.0 == 0: the range test alone lets bools and floats in
        if not (row.keys() <= cols and set(map(type, row)) <= {int}):
            bad = [c for c in row if not _is_int(c) or c not in cols]
            if bad:
                raise DimensionError("solve_raw: column %r in a system of %d unknowns"
                                     % (bad[0], ncols))
        types = set(map(type, row.values()))
        types.add(type(b))
        if types != {int}:
            if not types <= {int, Fraction}:    # TypeError on a float or a bool
                row = {c: _coefficient(x) for c, x in row.items()}
                b = _coefficient(b)
            m = lcm(b.denominator, *[x.denominator for x in row.values()])
            row = {c: int(x * m) for c, x in row.items()}
            b = int(b * m)
        if all(row.values()):
            entries = dict(row)
        else:
            entries = {c: x for c, x in row.items() if x}
        if b:
            entries[ncols] = b
        if entries:
            rows.append((entries, label))

    # pivots[c] is the pivot row whose leading column is c; b sits at key
    # ncols, which no unknown can take, so a row led by it reads 0 = b
    pivots = {}
    for row, label in rows:
        while row:
            col = min(row)
            if col == ncols:
                return RawSolution(status="infeasible", witness=label)
            base = pivots.get(col)
            if base is None:
                pivots[col] = row
                break
            if len(row) < len(base):
                pivots[col], row, base = row, base, row
            piv, factor = base[col], row[col]
            g = gcd(piv, factor) if piv > 0 else -gcd(piv, factor)
            a, f = piv // g, factor // g    # a > 0, so a == 1 when piv | factor
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            # base[col] cancels row[col], so the loop deletes col from row
            for c, v in base.items():
                v = row.get(c, 0) - f * v
                if v:
                    row[c] = v
                else:
                    del row[c]
            if row:
                content = gcd(*row.values())
                if content > 1:
                    row = {c: v // content for c, v in row.items()}

    free_cols = [c for c in range(ncols) if c not in pivots]
    # vector 0 is the particular solution, -1 at key ncols; vector k >= 1
    # is the kernel vector with 1 at free_cols[k - 1]
    nums = [{ncols: -1}] + [{fc: 1} for fc in free_cols]
    dens = [1] * len(nums)
    holders = {ncols: [0]}      # column -> the vectors nonzero there
    for k, fc in enumerate(free_cols, 1):
        holders[fc] = [k]
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        sums = {}
        for c, a in row.items():
            for v in holders.get(c, ()):
                sums[v] = sums.get(v, 0) + a * nums[v][c]
        piv = row[col]
        here = []
        for v, s in sums.items():
            if not s:
                continue
            q, r = divmod(s, piv)
            if r:
                m = abs(piv) // gcd(s, piv)
                nums[v] = {c: m * x for c, x in nums[v].items()}
                dens[v] *= m
                q = m * s // piv
            nums[v][col] = -q
            here.append(v)
        if here:
            holders[col] = here

    del nums[0][ncols]          # the right-hand side's -1
    vectors = [{c: Fraction(x[c], d) if x[c] % d else x[c] // d
                for c in sorted(x)} for x, d in zip(nums, dens)]
    return RawSolution(status="solved", particular=vectors[0], kernel=vectors[1:])


def multivector_columns_system(columns, target: Multivector, row_labels=None):
    """Sparse rows of 'sum_k x_k * columns[k] = target', one per coefficient.

    Rows are labelled by (xi-index tuple, exponent tuple) pairs: by
    ``row_labels`` when given, which must cover every term of the columns
    and the target, else by the sorted joint support.  Row k is the mapping
    ``{c: coefficient of row_labels[k] in columns[c]}``, empty when no
    column has that term.  Returns (rows, rhs, row_labels, ncols), the
    arguments of ``solve_raw``.
    """
    if row_labels is None:
        support = set()
        for mv in list(columns) + [target]:
            for idx, poly in mv.components.items():
                for exps in poly.terms:
                    support.add((idx, exps))
        row_labels = sorted(support)
    index = {lab: k for k, lab in enumerate(row_labels)}
    rows = [{} for _ in row_labels]
    rhs = [0] * len(row_labels)
    try:
        for c, mv in enumerate(columns):
            for idx, poly in mv.components.items():
                for exps, coeff in poly.terms.items():
                    rows[index[(idx, exps)]][c] = coeff
        for idx, poly in target.components.items():
            for exps, coeff in poly.terms.items():
                rhs[index[(idx, exps)]] = coeff
    except KeyError as missing:
        raise DimensionError("multivector_columns_system: the row labels miss "
                             "the term %r" % (missing.args[0],)) from None
    return rows, rhs, row_labels, len(columns)


# -- the coboundary ansatz ------------------------------------------------


@dataclass
class AnsatzSpec:
    """Shape of the unknown field: r components, each homogeneous of degree D."""

    nvars: int
    degree: int

    def __post_init__(self):
        _check_int(self.nvars, "ansatz nvars")
        _check_int(self.degree, "ansatz degree")
        if self.nvars < 1:
            raise PreconditionError("ansatz needs at least one variable")
        if self.degree < 0:
            raise PreconditionError("ansatz degree must be nonnegative")

    @property
    def unknown_count(self) -> int:
        return self.nvars * comb(self.degree + self.nvars - 1, self.nvars - 1)

    def basis(self):
        """Unknown order: component index major, grlex-descending monomial."""
        _bound(self.nvars * _monomial_count(self.nvars, self.degree),
               "unknowns in a degree-%d ansatz over %d variables"
               % (self.degree, self.nvars))
        monos = monomials(self.nvars, self.degree)
        return [(i, exps) for i in range(1, self.nvars + 1) for exps in monos]

    def field_from_coefficients(self, coeffs) -> Multivector:
        basis = self.basis()
        if len(coeffs) != len(basis):
            raise DimensionError("coefficient vector has wrong length")
        return _field(self.nvars, basis,
                      {k: ratnorm(c) for k, c in enumerate(coeffs) if c})


def _field(nvars: int, basis, coeffs) -> Multivector:
    """The field sum_k coeffs[k] * x^a xi_i over ``basis`` = [(i, a), ...]
    from a ``solve_raw`` map ``{k: coeffs[k]}`` of nonzero reduced values."""
    comps = {}
    for k, c in coeffs.items():
        i, exps = basis[k]
        comps.setdefault((i,), {})[exps] = c
    return Multivector._raw(nvars, {
        idx: Poly._raw(nvars, terms) for idx, terms in comps.items()})


@dataclass
class AnsatzSystem:
    """Exact linear system A x = b with labelled rows and columns."""

    matrix: list            # a sparse row {col: coeff} per row label, or {}
    rhs: list
    row_labels: list        # ((i,j) component, exponent tuple) per row
    col_labels: list        # (component index, exponent tuple) per unknown
    spec: AnsatzSpec

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)


@dataclass
class Solution:
    """Affine solution set of a solvable instance, or an infeasibility witness."""

    status: str             # "solved" | "infeasible"
    spec: AnsatzSpec | None = None
    particular: Multivector | None = None
    kernel_basis: list = field(default_factory=list)
    witness: tuple | None = None

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)

    def contains(self, y: Multivector) -> bool:
        """Membership of y in particular + span(kernel_basis), decided exactly."""
        if self.status != "solved":
            return False
        system = multivector_columns_system(self.kernel_basis, y - self.particular)
        return solve_raw(*system).status == "solved"


def _homdeg(p: Multivector, what: str) -> int:
    degs = [poly.is_homogeneous() for poly in p.components.values()]
    if None in degs:
        raise PreconditionError("%s has non-homogeneous coefficients" % what)
    d = common_degree(degs)
    if d is None:
        raise PreconditionError("%s has mixed coefficient degrees" % what)
    if d is ANY_DEGREE:
        raise PreconditionError("%s is zero, so it has no coefficient degree"
                                % what)
    return d


def default_degree(q: Multivector, p: Multivector) -> int:
    """deg(Q coefficients) - deg(P coefficients) + 1, the degree forced on Y."""
    dq = _homdeg(q, "target bivector")
    dp = _homdeg(p, "Poisson bivector")
    return dq - dp + 1


def assemble(q: Multivector, p: Multivector, spec: AnsatzSpec) -> AnsatzSystem:
    """Linear system whose solutions Y satisfy [[Y,P]] = Q.

    Column k holds the coefficients of [[e_k,P]] for the k-th ansatz unknown
    e_k = x^a xi_i; rows run over the full (component, monomial) grid at the
    bracket's output degree.  The ``multivec`` formula
    [[Y,P]] = sum_k (Y)<d/dxi_k . d/dx^k(P) - (d/dx^k Y) . d/dxi_k>(P)
    gives each column as

        [[x^a xi_i, P]] = x^a d/dx^i(P) - sum_k a_k x^(a-e_k) xi_i ^ (d/dxi_k>P).

    Signs: the right derivative of xi_i by xi_i removes position 0 of a
    1-tuple, sign (-1)^(1-1-0) = +1, and the scalar x^a wedges without a
    sign, so the first term is unsigned; in the second, d/dx^k(x^a xi_i) =
    a_k x^(a-e_k) xi_i keeps xi_i in front, so the ledger's left derivative
    d/dxi_k>P and its merge with xi_i carry every remaining sign.  Both
    tables, the r bivectors d/dx^i(P) and the r^2 bivectors
    xi_i ^ (d/dxi_k>P), are built once, with ``_x_partial``, ``_xi_left``
    and ``_merge_indices``, and packed by ``_packer``: an entry of the
    column of x^a xi_i sits at the row whose code is a term's code plus the
    code of a, or of a - e_k.  Entries that cancel are dropped.  For P = 0
    the tables are empty, every column is zero and the rows are the terms
    of Q, so the system is solvable exactly when Q = 0.
    """
    if q.nvars != p.nvars or q.nvars != spec.nvars:
        raise DimensionError("dimension mismatch between Q, P and the ansatz")
    if not p.is_grade(2):
        raise PreconditionError("P must be a bivector")
    if not (q.is_grade(2) or q.is_zero()):
        raise PreconditionError("Q must be a bivector")
    r = spec.nvars
    if p.is_zero():
        matrix, rhs, row_labels, _ = multivector_columns_system([], q)
        return AnsatzSystem(matrix, rhs, row_labels, spec.basis(), spec)
    out_deg = spec.degree + _homdeg(p, "Poisson bivector") - 1
    if not q.is_zero():
        dq = _homdeg(q, "target bivector")
        if dq != out_deg:
            raise PreconditionError(
                "structurally empty system: [[Y,P]] has coefficient degree "
                "%d but Q has degree %d" % (out_deg, dq))
    _bound(comb(r, 2) * _monomial_count(r, out_deg),
           "coefficients of a degree-%d bivector over %d variables"
           % (out_deg, r))
    comps = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    monos = monomials(r, out_deg)
    basis = spec.basis()
    matrix, rhs, row_labels, _ = multivector_columns_system(
        [], q, list(product(comps, monos)))
    pack, offset = _packer(r, out_deg, comps)
    index = {offset[c] + m: k for k, (c, m) in
             enumerate(product(comps, map(pack, monos)))}
    dx = [_coded_terms(_x_partial(p, i), pack, offset) for i in range(1, r + 1)]
    left = [_xi_left(p, k) for k in range(1, r + 1)]
    dxi = [[_coded_terms(_xi_wedge(i, lk), pack, offset) for lk in left]
           for i in range(1, r + 1)]
    units = [pack(e) for e in monomials(r, 1)]
    for col, (i, a) in enumerate(basis):
        entries = {}
        base = pack(a)
        for key, c in dx[i - 1]:
            key += base
            entries[key] = entries.get(key, 0) + c
        for k, ak in enumerate(a):
            if not ak:
                continue
            shift = base - units[k]
            for key, c in dxi[i - 1][k]:
                key += shift
                entries[key] = entries.get(key, 0) - ak * c
        for key, c in entries.items():
            if c:
                matrix[index[key]][col] = c if type(c) is int else ratnorm(c)
    return AnsatzSystem(matrix, rhs, row_labels, basis, spec)


def _packer(r: int, out_deg: int, comps):
    """(pack, offset) for one ``assemble`` call: ``pack(exps)`` puts the r
    exponents in fields of w = max(1, out_deg.bit_length()) bits, x1
    highest, and a term (idx, exps) has the code ``offset[idx] +
    pack(exps)``, the position of ``idx`` in ``comps`` above the fields.
    ``pack`` is linear, so a code plus ``pack(a)``, or ``pack(a) -
    pack(e_k)``, is the code of the shifted term; the module docstring says
    why no field carries.
    """
    w = max(1, out_deg.bit_length())

    def pack(exps):
        v = 0
        for e in exps:
            v = (v << w) + e
        return v

    return pack, {c: n << (w * r) for n, c in enumerate(comps)}


def _coded_terms(mv: Multivector, pack, offset):
    """The (code, coefficient) terms of a bivector, coded by ``_packer``."""
    return [(offset[idx] + pack(exps), c) for idx, poly in mv.components.items()
            for exps, c in poly.terms.items()]


def _xi_wedge(i: int, mv: Multivector) -> Multivector:
    """xi_i ^ mv for a 1-vector mv: each xi_j moves to ``_merge_indices``'s
    sorted pair with its sign, and j = i drops out.  This is ``wedge`` with
    a constant coefficient 1, without its polynomial products."""
    out = {}
    for idx, poly in mv.components.items():
        merged = _merge_indices((i,), idx)
        if merged:
            out[merged[0]] = poly if merged[1] > 0 else -poly
    return Multivector._raw(mv.nvars, out)


def solve(sys: AnsatzSystem) -> Solution:
    """Solve an assembled system; see solve_raw for the elimination scheme."""
    raw = solve_raw(sys.matrix, sys.rhs, sys.row_labels, sys.n_cols)
    if raw.status == "infeasible":
        return Solution(status="infeasible", spec=sys.spec, witness=raw.witness)
    r, basis = sys.spec.nvars, sys.col_labels
    return Solution(
        status="solved",
        spec=sys.spec,
        particular=_field(r, basis, raw.particular),
        kernel_basis=[_field(r, basis, v) for v in raw.kernel])


def trivialize(q: Multivector, p: Multivector, degree: int | None = None) -> Solution:
    """Solve Q = [[Y,P]] over homogeneous degree-D polynomial fields.

    Q must be a cocycle of P (a non-cocycle cannot be a coboundary); solved
    results are re-checked so the residual is exactly zero.
    """
    if not schouten(p, q).is_zero():
        raise PreconditionError("target is not a cocycle: [[P,Q]] != 0")
    if degree is None:
        if q.is_zero():
            raise PreconditionError("zero target needs an explicit ansatz degree")
        degree = default_degree(q, p)
    sol = solve(assemble(q, p, AnsatzSpec(p.nvars, degree)))
    if sol.status == "solved":
        residual = schouten(sol.particular, p) - q
        if not residual.is_zero():
            raise AssertionError("solver returned a non-solution")
    return sol
