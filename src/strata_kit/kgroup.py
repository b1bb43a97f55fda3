"""Grothendieck-group bookkeeping for products of segment classes.

Classes of irreducible representations are written Z(m) for a multisegment
m; the empty multisegment denotes the one-dimensional class of the trivial
group.  A term is a commutative product of such classes, and an element is
an integer combination of terms.

One table, :func:`expand`, writes each class in the segment classes Z(Δ),
in which the ring on infinite-period lines is polynomial (Zelevinsky): a
class is the product of its linked components, and a ladder component is
Tadić's determinant (Lapid-Mínguez).  Any other component, every class on
a finite-period line and every unknown derivative stays one opaque atom, as
do the factors of a product whose expansion would outgrow one ladder's.
The derivative is the ring homomorphism with D(Z(Δ)) = Z(Δ) + Z(Δ⁻), the
second summand in degree dim Δ, applied to that expansion; an element is one
of its components D^g, and :func:`check_identity` decides on the expanded
difference.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import Optional

from .errors import ShapeError, WraparoundError
from .multisegments import Multisegment, degenerates_to
from .segments import Segment, relate, top_minus
from .values import Keyed, Value, set_key

# A term is a commutative product of irreducible classes, stored as a
# canonically sorted tuple of atoms; the empty tuple is the trivial class.
Term = tuple

# A ladder of more segments stays opaque: its determinant has k! terms.
MAX_LADDER = 6
# No product or derivative forms more products of terms than the complete
# derivative of one such ladder, 6! * 2**6 = 46 080.
MAX_PRODUCTS = math.factorial(MAX_LADDER) << MAX_LADDER


class OpaqueDerivative(Keyed):
    """Placeholder for a derivative component no registered rule computes."""

    __slots__ = ("source", "degree")

    def __init__(self, source: str, degree: int) -> None:
        self._init(source, degree)
        set_key(self, (source, degree))

    def __str__(self) -> str:
        return f"?D^{self.degree}({self.source})"


# Structural order of atoms.  A placeholder's key has 2 entries and a class
# key 6 per segment, so a placeholder never ties with a class.
_atom_key = attrgetter("_key")


def _sorted_term(atoms) -> Term:
    """Canonical commutative product: drop trivial atoms, sort the rest.

    Only the trivial class, the empty multisegment, has an empty key.
    """
    return tuple(sorted([a for a in atoms if a._key], key=_atom_key))


def _add_term(acc: dict, term: Term, coeff: int) -> None:
    new = acc.get(term, 0) + coeff
    if new:
        acc[term] = new
    else:
        acc.pop(term, None)


def _term_str(term: Term) -> str:
    """The printed product, its atoms in string order."""
    if not term:
        return "1"
    return " * ".join(
        sorted(str(a) if isinstance(a, OpaqueDerivative) else f"Z{a}" for a in term)
    )


class GradedVirtual:
    """A Grothendieck-group element: an integer combination of terms.

    Elements are values; no method changes one after construction.  The
    constructor makes each term canonical: trivial atoms dropped, the rest
    sorted.
    """

    def __init__(self, terms: Optional[dict] = None) -> None:
        combo: dict[Term, int] = {}
        for term, c in (terms or {}).items():
            _add_term(combo, _sorted_term(term), c)
        self.terms = combo

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedVirtual) and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{c}*" if c != 1 else "") + _term_str(t)
            for t, c in sorted(self.terms.items(), key=lambda kv: _term_str(kv[0]))
        )


def _wrap(terms: dict[Term, int]) -> GradedVirtual:
    """Wrap a new combination whose terms are already canonical and merged."""
    out = GradedVirtual.__new__(GradedVirtual)
    out.terms = terms
    return out


def _add_combo(acc: dict, combo: dict, coeff: int = 1) -> dict:
    """Add coeff times the combination into acc and return acc."""
    for term, c in combo.items():
        _add_term(acc, term, coeff * c)
    return acc


def _multiply(acc: dict[Term, int], combos) -> dict[Term, int]:
    """Add the product of combinations into acc and return acc.

    Each output term is the atoms of one term per factor, sorted once; the
    factors hold canonical terms, so no trivial atom needs dropping.
    """
    for choice in itertools.product(*[combo.items() for combo in combos]):
        atoms: list = []
        coeff = 1
        for term, c in choice:
            atoms += term
            coeff *= c
        _add_term(acc, tuple(sorted(atoms, key=_atom_key)), coeff)
    return acc


def _leibniz(tables, degree: int, limit=math.inf) -> Optional[dict[Term, int]]:
    """One layer of the graded product of derivative tables (the Leibniz
    rule): each choice of one layer per table with degrees summing to degree
    adds the product of those layers.  Past limit choices, partial choices
    that pass degree or cannot reach it are dropped as they form (no degree
    is negative), and the result is None if more than limit remain."""
    tables = list(tables)
    if math.prod(map(len, tables)) <= limit:
        choices = [c for c in itertools.product(*tables) if sum(c) == degree]
    else:
        reach = list(itertools.accumulate(map(max, reversed(tables)), initial=0))
        partial = [((), 0)]
        for t, rest in zip(tables, reach[-2::-1]):
            partial = [(c + (d,), s + d) for c, s in partial for d in t
                       if degree <= s + rest + d and s + d <= degree]
            if len(partial) > limit:
                return None
        choices = [c for c, s in partial if s == degree]
    result: dict[Term, int] = {}
    for degrees in choices:
        _multiply(result, [t[d] for t, d in zip(tables, degrees)])
    return result


def _components(segs) -> list[list[Segment]]:
    """Segments of infinite-period lines grouped into linked components."""
    comps: list[list[Segment]] = []
    for s in segs:
        merged, rest = [s], []
        for comp in comps:
            if any(relate(s, t).linked for t in comp):
                merged += comp
            else:
                rest.append(comp)
        comps = rest + [merged]
    return comps


def _ladder(m) -> dict[Term, int]:
    """A class as Tadić's determinant sum_w sgn(w) prod_i Z([a_w(i), b_i])
    if it is a ladder of 2 to MAX_LADDER segments on an infinite-period line
    (stored with ends and starts strictly decreasing), else as itself;
    Z([a, a-1]) is 1, and a product with a segment [a, b], b < a-1, is 0."""
    segs = m.segments if m.__class__ is Multisegment and m.infinite_period else ()
    steps = zip(segs, segs[1:])
    if not 1 < len(segs) <= MAX_LADDER or any(s.a <= t.a or s.b <= t.b for s, t in steps):
        return {(m,): 1}
    line = segs[0].cuspidal
    acc: dict[Term, int] = {}
    for w in itertools.permutations(range(len(segs))):
        atoms = []
        for i, j in enumerate(w):
            a, b = segs[j].a, segs[i].b
            if b < a - 1:
                break
            if b >= a:
                atoms.append(Multisegment.from_sorted((Segment(line, a, b),)))
        else:
            inversions = sum(x > y for x, y in itertools.combinations(w, 2))
            _add_term(acc, tuple(sorted(atoms, key=_atom_key)), (-1) ** inversions)
    return acc


def _factors(atom) -> list:
    """The classes whose product an atom is: on infinite-period lines, its
    linked components (Zelevinsky), and the rest of its segments as one."""
    if atom.__class__ is OpaqueDerivative or len(atom.segments) == 1:
        return [atom]
    comps = _components(s for s in atom.segments if s.infinite_period)
    comps.append([s for s in atom.segments if not s.infinite_period])
    return [Multisegment(c) for c in comps if c]


def expand(term: Term) -> dict[Term, int]:
    """A term as a combination of products of segment classes.

    Each factor expands by :func:`_ladder`.  A product whose expansion would
    have more terms than one ladder of MAX_LADDER segments keeps its factors
    opaque, to bound the work.
    """
    if all(map(_is_segment, term)):
        return {term: 1}
    factors = [m for atom in term for m in _factors(atom)]
    expansions = list(map(_ladder, factors))
    if math.prod(map(len, expansions)) > math.factorial(MAX_LADDER):
        return {_sorted_term(factors): 1}
    return _multiply({}, expansions)


def _is_segment(atom) -> bool:
    return atom.__class__ is Multisegment and len(atom.segments) == 1


def _segment_table(atom: Multisegment) -> dict[int, dict[Term, int]]:
    """D(Z(Δ)) = Z(Δ) + Z(Δ⁻), the second layer in degree dim Δ."""
    d = atom.segments[0]
    lower = (Multisegment.from_sorted((top_minus(d),)),) if d.length > 1 else ()
    return {0: {(atom,): 1}, d.dim: {lower: 1}}


def term_derivative(term: Term, degree: int, limit: int = MAX_PRODUCTS) -> Optional[dict[Term, int]]:
    """The degree-``degree`` derivative component of a product of atoms, as a
    combination, or None if unknown.

    D is the ring homomorphism given by the segment tables, applied to the
    product's expansion.  It is unknown when that holds an opaque atom, or
    would form more than ``limit`` products.
    """
    expansion = expand(term)
    limit //= len(expansion)
    acc: dict[Term, int] = {}
    for t, coeff in expansion.items():
        if not all(map(_is_segment, t)):
            return None
        layer = _leibniz(map(_segment_table, t), degree, limit)
        if layer is None:
            return None
        if len(expansion) == 1 and coeff == 1:  # a product of segments
            return layer
        _add_combo(acc, layer, coeff)
    return acc


def resolve_pair(d1: Segment, d2: Segment) -> list[Multisegment]:
    """Constituents [Z({d1,d2}), Z({d2 union d1})] of Z(d1) x Z(d2).

    Requires d2 to precede d1 with the pair juxtaposed (the two-constituent
    short exact sequence case).
    """
    rel = relate(d2, d1)
    if not (rel.precedes and rel.juxtaposed):
        raise ShapeError("not a juxtaposed preceding pair")
    return [Multisegment.of(d1, d2), Multisegment.of(Segment(d1.cuspidal, d2.a, d1.b))]


def lemcomp_derivative(rho_top: Segment, delta: Segment) -> Multisegment:
    """Degree-k derivative of Z({[c,c], delta}): replace delta by its top truncation."""
    if not (
        rho_top.length == 1
        and rho_top.infinite_period
        and rho_top.cuspidal == delta.cuspidal
        and delta.b == rho_top.a - 1
    ):
        raise ShapeError("expected a singleton just above the segment's end")
    return Multisegment.of(rho_top, top_minus(delta))


def weirdcase_constituents(alpha: int, delta: Segment) -> list[Multisegment]:
    """Constituents of Z([alpha+1,alpha+1]) x Z({[alpha,alpha], delta}).

    For any delta ending at alpha-1 the two constituents are
    {[alpha+1,alpha+1], [alpha,alpha], delta} and {[alpha,alpha+1], delta}.
    Requires an infinite-period line, as :func:`resolve_pair` does.
    """
    if not delta.infinite_period:
        raise WraparoundError("weirdcase undefined with wraparound")
    if delta.b != alpha - 1:
        raise ShapeError("expected a segment ending at alpha-1")
    line = delta.cuspidal
    s_mid = Segment(line, alpha, alpha)
    s_top = Segment(line, alpha + 1, alpha + 1)
    s_pair = Segment(line, alpha, alpha + 1)
    return [Multisegment.of(s_top, s_mid, delta), Multisegment.of(s_pair, delta)]


# --------------------------------------------------------------------------
# Element constructors and the identity checker
# --------------------------------------------------------------------------


def ZClass(m: Multisegment) -> GradedVirtual:
    """The class Z(m) of the irreducible with multisegment m."""
    return _wrap({(m,) if m._key else (): 1})


def SegmentProduct(segments) -> GradedVirtual:
    """The product Z(Δ1)...Z(Δk) of segment classes, as one term."""
    atoms = [Multisegment.from_sorted((s,)) for s in segments]
    return _wrap({tuple(sorted(atoms, key=_atom_key)): 1})


def ProductExpr(factors) -> GradedVirtual:
    """The product of elements, each choice of one term per factor multiplied
    out once.

    Raises ShapeError, before multiplying, when that would form more than
    MAX_PRODUCTS products of terms.
    """
    combos = [f.terms for f in factors]
    count = math.prod(map(len, combos))
    if count > MAX_PRODUCTS:
        raise ShapeError(f"product of {len(combos)} factors would form {count} terms, "
                         f"more than {MAX_PRODUCTS}")
    return _wrap(_multiply({}, combos))


def SumExpr(terms) -> GradedVirtual:
    """The sum of elements."""
    terms = iter(terms)
    first = next(terms, None)
    acc = dict(first.terms) if first is not None else {}
    for x in terms:
        _add_combo(acc, x.terms)
    return _wrap(acc)


def DerivativeExpr(degree: int, inner: GradedVirtual) -> GradedVirtual:
    """The degree-g derivative component of an element.

    Terms with a class of unknown derivative become opaque placeholder atoms,
    which later force an "unverifiable" verdict rather than a guess; so does
    a term whose derivative would form more than its even share of
    MAX_PRODUCTS products.
    """
    if degree < 0:
        raise ShapeError(f"derivative order must be >= 0, got {degree}")
    if degree == 0:
        return inner
    share = MAX_PRODUCTS // (len(inner.terms) or 1)
    acc: dict[Term, int] = {}
    for term, coeff in inner.terms.items():
        layer = term_derivative(term, degree, share)
        if layer is None:
            layer = {(OpaqueDerivative(_term_str(term), degree),): 1}
        _add_combo(acc, layer, coeff)
    return _wrap(acc)


class Verdict(Value):
    """Outcome of an identity check: verified, unverifiable, or refuted."""

    __slots__ = ("status", "reason", "witness_degree")

    def __init__(
        self, status: str, reason: str = "", witness_degree: Optional[int] = None
    ) -> None:
        self._init(status, reason, witness_degree)

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def __str__(self) -> str:
        if self.status == "verified":
            return "verified"
        if self.status == "unverifiable":
            return f"unverifiable: {self.reason}"
        return f"refuted at degree {self.witness_degree}"


def _undecided(combo: dict[Term, int]) -> Optional[str]:
    """None when a nonzero expanded combination has a coefficient that no
    opaque term can cancel; else its smallest undecided term, printed.

    Each opaque class Z(c) is the standard product of c plus products of
    multisegments strictly below c (Zelevinsky), so the coefficient of a
    standard product is decided unless it lies strictly below the lead of an
    opaque term with the same finite-period class.  An unknown derivative,
    or a product of two finite-period classes, leaves the combination
    undecided.
    """
    stuck, opaque = [], []
    for term in combo:
        fin = [a for a in term if a.__class__ is OpaqueDerivative or not a.infinite_period]
        if len(fin) > 1 or fin and fin[0].__class__ is OpaqueDerivative:
            stuck.append(term)
        elif any(len(a.segments) > 1 for a in term if a.infinite_period):
            opaque.append(term)
    if stuck:
        return min(map(_term_str, stuck))
    if not opaque:
        return None

    def lead(term):
        """The term's finite-period class and the multisegment of its standard product."""
        fin = tuple(a for a in term if not a.infinite_period)
        return fin, Multisegment([s for a in term if a.infinite_period for s in a.segments])

    coeffs: dict[tuple, int] = {}
    for term, coeff in combo.items():
        key = lead(term)
        coeffs[key] = coeffs.get(key, 0) + coeff
    tops = [lead(term) for term in opaque]
    for (fin, m), coeff in coeffs.items():
        if coeff and not any(f == fin and top != m and degenerates_to(top, m) for f, top in tops):
            return None
    return min(map(_term_str, opaque))


def check_identity(lhs: GradedVirtual, rhs: GradedVirtual) -> Verdict:
    """Decide an identity on the expanded difference of its sides; never guesses.

    Every term of the difference is expanded by :func:`expand`.  The result
    is "verified" when the expansion is zero, with opaque atoms as free
    symbols; "refuted" when a coefficient is nonzero and no opaque term can
    cancel it; and otherwise "unverifiable", naming the smallest undecided
    term.  Every element lives in degree 0, the degree a verdict names.
    """
    combo: dict[Term, int] = {}
    for term, coeff in _add_combo(dict(lhs.terms), rhs.terms, -1).items():
        _add_combo(combo, expand(term), coeff)
    if not combo:
        return Verdict("verified")
    undecided = _undecided(combo)
    if undecided is None:
        return Verdict("refuted", witness_degree=0)
    return Verdict("unverifiable", reason=f"undecomposed product remains at degree 0: {undecided}")
