"""Graded Grothendieck-group bookkeeping for products of segment classes.

Classes of irreducible representations are written Z(m) for a multisegment
m; the empty multisegment denotes the one-dimensional class of the trivial
group.  A term is a commutative product of such classes; a graded virtual
element assigns an integer combination of terms to each derivative order.
Derivatives follow the Leibniz rule, with each class contributing its
known graded derivative: a single segment has exactly one positive-degree
derivative Z(segment)^(n) = Z(segment minus top twist), the
singleton-over-segment shape Z({[c,c],[a,c-1]}) has the two extra degrees
established by the composition and juxtaposition lemmas below, and a
pairwise-unlinked multisegment is the product of its segments' classes.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Optional

from .errors import ShapeError, WraparoundError
from .multisegments import Multisegment, lambda_of
from .partitions import Partition
from .segments import Segment, linked, relate, top_minus
from .values import Keyed, Value, set_key

# A term is a commutative product of irreducible classes, stored as a
# canonically sorted tuple of atoms; the empty tuple is the trivial class.
Term = tuple

MAX_REWRITE_STEPS = 10000


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


def _class(m: Multisegment) -> dict[Term, int]:
    """The degree-0 combination of the class Z(m)."""
    return {(m,) if m._key else (): 1}


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
    """A graded Grothendieck-group element: derivative order -> combination of terms.

    Elements are values; no method changes one after construction.  The
    constructor makes each term canonical: trivial atoms dropped, the rest
    sorted.
    """

    def __init__(self, layers: Optional[dict] = None) -> None:
        merged: dict[int, dict[Term, int]] = {}
        for g, combo in (layers or {}).items():
            layer = merged.setdefault(g, {})
            for term, c in combo.items():
                _add_term(layer, _sorted_term(term), c)
        self.layers: dict[int, dict[Term, int]] = {g: c for g, c in merged.items() if c}

    def degrees(self) -> list[int]:
        return sorted(self.layers)

    def layer(self, degree: int) -> dict[Term, int]:
        return dict(self.layers.get(degree, {}))

    def top_degree(self) -> int:
        return max(self.layers) if self.layers else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedVirtual) and self.layers == other.layers

    def __str__(self) -> str:
        if not self.layers:
            return "0"
        chunks = []
        for g in self.degrees():
            combo = " + ".join(
                (f"{c}*" if c != 1 else "") + _term_str(t)
                for t, c in sorted(self.layers[g].items(), key=lambda kv: _term_str(kv[0]))
            )
            chunks.append(f"deg {g}: {combo}")
        return "; ".join(chunks)


def _wrap(layers: dict[int, dict[Term, int]]) -> GradedVirtual:
    """Wrap layers whose terms are already merged, dropping empty layers."""
    out = GradedVirtual.__new__(GradedVirtual)
    out.layers = {g: combo for g, combo in layers.items() if combo}
    return out


def _add_layers(acc: dict, layers: dict, coeff: int = 1) -> dict:
    """Add coeff times the graded layers into acc and return acc."""
    for g, combo in layers.items():
        layer = acc.setdefault(g, {})
        for term, c in combo.items():
            _add_term(layer, term, coeff * c)
    return acc


def _degree_zero(x: GradedVirtual) -> dict[Term, int]:
    """The terms of an element that lives in degree 0 only."""
    if x.layers.keys() - {0}:
        raise ShapeError(f"expected a degree-0 element, got {x}")
    return x.layers.get(0, {})


def _multiply(acc: dict[Term, int], combos) -> dict[Term, int]:
    """Add the product of degree-0 combinations into acc and return acc.

    Each output term is the atoms of one term per factor, sorted once; the
    factors hold canonical terms, so no trivial atom needs dropping.
    """
    for choice in itertools.product(*[combo.items() for combo in combos]):
        atoms: tuple = ()
        coeff = 1
        for term, c in choice:
            atoms += term
            coeff *= c
        _add_term(acc, tuple(sorted(atoms, key=_atom_key)), coeff)
    return acc


def _leibniz(tables, degree: Optional[int] = None) -> dict[int, dict[Term, int]]:
    """Graded product of graded derivative tables (the Leibniz rule).

    Each choice of one layer per table contributes the product of those
    layers in the sum of their degrees.  With ``degree`` given, only the
    choices summing to it are multiplied, so only that layer is built.
    """
    tables = list(tables)
    result: dict[int, dict[Term, int]] = {}
    for degrees in itertools.product(*tables):
        g = sum(degrees)
        if degree is None or g == degree:
            _multiply(result.setdefault(g, {}), [t[d] for t, d in zip(tables, degrees)])
    return result


def _unlinked(pairs) -> bool:
    """No pair of segments is linked: their product is irreducible (Zelevinsky)."""
    return not any(linked(x, y) for x, y in pairs)


def _is_lemcomp(top: Segment, lower: Segment) -> bool:
    """The composition-lemma shape {[c,c], [a,c-1]} on one infinite-period line."""
    return (
        top.length == 1
        and top.infinite_period
        and top.same_line(lower)
        and lower.b == top.a - 1
    )


def _composition(top: Segment, lower: Segment) -> tuple[Multisegment, Multisegment]:
    """Degree-k and degree-2k derivatives of Z({top, lower}) in the lemcomp shape."""
    shorter = top_minus(lower)
    return Multisegment.of(top, shorter), Multisegment.of(shorter)


def _juxtaposed(d1: Segment, d2: Segment) -> list[Multisegment]:
    """Constituents of Z(d1) x Z(d2) for d2 juxtaposed and preceding d1."""
    return [Multisegment.of(d1, d2), Multisegment.of(Segment(d1.cuspidal, d2.a, d1.b))]


def atom_derivative(atom: Multisegment) -> Optional[dict[int, dict[Term, int]]]:
    """Complete graded derivative of an irreducible class, or None if unknown.

    Known shapes: single segments, the singleton-over-segment shape handled
    by the composition lemma, and pairwise-unlinked multisegments (the
    trivial class among them), whose class is the product of their segments.
    """
    segs = atom.segments
    if len(segs) == 1:
        d = segs[0]
        return {0: {(atom,): 1}, d.dim: _class(Multisegment.of(top_minus(d)))}
    if len(segs) == 2 and _is_lemcomp(*segs):
        k = segs[0].dim
        mid, bottom = _composition(*segs)
        return {0: {(atom,): 1}, k: {(mid,): 1}, 2 * k: _class(bottom)}
    if atom.infinite_period and _unlinked(itertools.combinations(segs, 2)):
        return _leibniz(atom_derivative(Multisegment.of(s)) for s in segs)
    return None


def term_derivative(term: Term, degree: Optional[int] = None) -> Optional[GradedVirtual]:
    """Leibniz expansion of a product of atoms; None if any factor is unknown.

    With ``degree`` given, only the layer of that degree is built.
    """
    tables = []
    for atom in term:
        table = None if isinstance(atom, OpaqueDerivative) else atom_derivative(atom)
        if table is None:
            return None
        tables.append(table)
    return _wrap(_leibniz(tables, degree))


def _derivative(degree: int, combo: dict[Term, int]) -> dict[Term, int]:
    """The degree-g derivative component of a combination, as DerivativeExpr."""
    if degree == 0:
        return dict(combo)
    acc: dict[Term, int] = {}
    for term, coeff in combo.items():
        graded = term_derivative(term, degree)
        if graded is None:
            _add_term(acc, (OpaqueDerivative(_term_str(term), degree),), coeff)
            continue
        for t2, c2 in graded.layers.get(degree, {}).items():
            _add_term(acc, t2, coeff * c2)
    return acc


def total_derivative(x: GradedVirtual) -> GradedVirtual:
    """All graded derivative components of a degree-0 element.

    Raises ShapeError when some term has a class with no known derivative.
    """
    acc: dict[int, dict[Term, int]] = {}
    for term, coeff in _degree_zero(x).items():
        graded = term_derivative(term)
        if graded is None:
            raise ShapeError(f"no known derivative of {_term_str(term)}")
        _add_layers(acc, graded.layers, coeff)
    return _wrap(acc)


def highest_derivative_of_product(m: Multisegment) -> tuple[Partition, Multisegment]:
    """(highest derivative partition, the multisegment with every top twist removed)."""
    return lambda_of(m), Multisegment(top_minus(d) for d in m.segments)


def resolve_pair(d1: Segment, d2: Segment) -> list[Multisegment]:
    """Constituents [Z({d1,d2}), Z({d2 union d1})] of Z(d1) x Z(d2).

    Requires d2 to precede d1 with the pair juxtaposed (the two-constituent
    short exact sequence case).
    """
    rel = relate(d2, d1)
    if not (rel.precedes and rel.juxtaposed):
        raise ShapeError("not a juxtaposed preceding pair")
    return _juxtaposed(d1, d2)


def lemcomp_derivative(rho_top: Segment, delta: Segment) -> Multisegment:
    """Degree-k derivative of Z({[c,c], delta}): replace delta by its top truncation."""
    if rho_top.is_empty or delta.is_empty:
        raise ShapeError("expected nonempty segments")
    if not _is_lemcomp(rho_top, delta):
        raise ShapeError("expected a singleton just above the segment's end")
    return _composition(rho_top, delta)[0]


def weirdcase_constituents(alpha: int, delta: Segment) -> list[Multisegment]:
    """Constituents of Z([alpha+1,alpha+1]) x Z({[alpha,alpha], delta}).

    For any delta ending at alpha-1 the two constituents are
    {[alpha+1,alpha+1], [alpha,alpha], delta} and {[alpha,alpha+1], delta}.
    Requires an infinite-period line, as :func:`resolve_pair` does.
    """
    if not (delta.is_empty or delta.infinite_period):
        raise WraparoundError("weirdcase undefined with wraparound")
    if delta.is_empty or delta.b != alpha - 1:
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
    """The class Z(m) of the irreducible with multisegment m, in degree 0."""
    return _wrap({0: _class(m)})


def ProductExpr(factors) -> GradedVirtual:
    """The graded product of elements (the Leibniz rule over their layers)."""
    return _wrap(_leibniz(f.layers for f in factors))


def SumExpr(terms) -> GradedVirtual:
    """The sum of elements, degree by degree."""
    acc: dict[int, dict[Term, int]] = {}
    for x in terms:
        _add_layers(acc, x.layers)
    return _wrap(acc)


def DerivativeExpr(degree: int, inner: GradedVirtual) -> GradedVirtual:
    """The degree-g derivative component of a degree-0 element, in degree 0.

    Terms with a class of unknown derivative become opaque placeholder atoms,
    which later force an "unverifiable" verdict rather than a guess.
    """
    if degree < 0:
        raise ShapeError(f"derivative order must be >= 0, got {degree}")
    return _wrap({0: _derivative(degree, _degree_zero(inner))})


def _try_rewrite_pair(a1: Multisegment, a2: Multisegment) -> Optional[list[Multisegment]]:
    """One rewriting step on a product of two classes, or None.

    Rules: merge classes with no linked pair across them into one; split a
    juxtaposed pair of single segments into its two constituents; split a
    singleton times a singleton-over-segment class into its two
    constituents.  Each returns the classes whose sum replaces the product.
    No rule applies on a finite-period line, where linking is undefined.
    """
    if not (a1.infinite_period and a2.infinite_period):
        return None
    if _unlinked(itertools.product(a1.segments, a2.segments)):
        return [a1.union(a2)]
    if len(a1) == 1 and len(a2) == 1:
        s1, s2 = a1.segments[0], a2.segments[0]
        rel = relate(s2, s1)
        if rel.juxtaposed:
            return _juxtaposed(s1, s2) if rel.precedes else _juxtaposed(s2, s1)
    for single, other in ((a1, a2), (a2, a1)):
        if (
            len(single) == 1
            and len(other) == 2
            and _is_lemcomp(*other.segments)
            # the singleton sits just above the shape's singleton top
            and _is_lemcomp(single.segments[0], other.segments[0])
        ):
            top, lower = other.segments
            return weirdcase_constituents(top.a, lower)
    return None


def normalize(combo: dict[Term, int]) -> dict[Term, int]:
    """Exhaustively apply the registered rewriting rules to every product term."""
    current = dict(combo)
    for _ in range(MAX_REWRITE_STEPS):
        changed = False
        nxt: dict[Term, int] = {}
        for term, coeff in current.items():
            rewritten = None
            if len(term) > 1 and all(isinstance(a, Multisegment) for a in term):
                # Pairs are tried in the atoms' string order: the normal form
                # reached depends on which rule fires first.
                atoms = tuple(sorted(term, key=str))
                for i, j in itertools.combinations(range(len(atoms)), 2):
                    rewritten = _try_rewrite_pair(atoms[i], atoms[j])
                    if rewritten is not None:
                        break
            if rewritten is None:
                _add_term(nxt, term, coeff)
                continue
            changed = True
            rest = atoms[:i] + atoms[i + 1 : j] + atoms[j + 1 :]
            for atom in rewritten:
                _add_term(nxt, _sorted_term(rest + (atom,)), coeff)
        current = nxt
        if not changed:
            return current
    raise ShapeError("rewriting did not terminate within the step budget")


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


def check_identity(lhs: GradedVirtual, rhs: GradedVirtual) -> Verdict:
    """Compare two elements after exhaustive rewriting; never guesses.

    The result is "verified" when the normal forms agree in every degree,
    "refuted" at the lowest disagreeing degree, and "unverifiable" when the
    disagreement involves a product no registered rule decomposes.
    """
    diff = _add_layers({g: dict(combo) for g, combo in lhs.layers.items()}, rhs.layers, -1)
    # Rewriting is linear, so the difference is normalized once, after the
    # terms the two sides share have cancelled.
    diff = _wrap({g: normalize(combo) for g, combo in diff.items() if combo})
    if not diff.layers:
        return Verdict("verified")
    for g in diff.degrees():
        stuck = [
            _term_str(term)
            for term in diff.layers[g]
            if len(term) > 1 or any(isinstance(a, OpaqueDerivative) for a in term)
        ]
        if stuck:
            # Name the smallest, so the reason does not depend on term order.
            return Verdict(
                "unverifiable",
                reason=f"undecomposed product remains at degree {g}: {min(stuck)}",
            )
    return Verdict("refuted", witness_degree=min(diff.layers))
