"""Finitely presented multigraded algebras and their limit subschemes.

A presentation is a polynomial ring with Z^n variable weights modulo
homogeneous relations.  The two geometric operations, taking the subscheme
of points flowing to a limit and taking the fixed locus, both act by
substituting zero for a set of variables and canonicalizing what is left.

Dimension counts for truncations live on monomial quotients, where graded
components have standard-monomial bases and all counting is exact.
"""

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import lattice
from .errors import (
    InfiniteDimension,
    InhomogeneousError,
    MonoidHasUnits,
    NotMinimalPresentation,
    RankMismatch,
    WeightOutsideMonoid,
)

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class VariableWeighting:
    torus_rank: int
    variables: tuple  # tuple of (name, weight tuple)

    def __post_init__(self):
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for name, weight in self.variables:
            if not _IDENT.match(name):
                raise ValueError(f"invalid variable name {name!r}")
            if len(weight) != self.torus_rank:
                raise RankMismatch(
                    f"weight of {name} has length {len(weight)}, expected {self.torus_rank}"
                )
            lattice.require_integers(weight, f"weight of {name}")

    @property
    def names(self):
        return [name for name, _ in self.variables]

    @property
    def weights(self):
        return [weight for _, weight in self.variables]


@dataclass(frozen=True)
class GradedPolynomial:
    """Terms (coefficient, exponent tuple), canonically ordered.

    Canonical form: like terms merged, zero coefficients dropped, terms in
    descending lexicographic order on exponent vectors.
    """

    terms: tuple

    @property
    def is_zero(self):
        return not self.terms

    def sort_key(self):
        return tuple((t[1], (t[0].numerator, t[0].denominator)) for t in self.terms)


def make_polynomial(terms):
    """Canonical GradedPolynomial from (coeff, exponents) pairs: an int or
    Fraction coefficient and non-negative int exponents, else ValueError."""
    merged = {}
    for coeff, exps in terms:
        if type(coeff) is not int and not isinstance(coeff, Fraction):
            raise ValueError(f"coefficient {coeff!r} is not an int or a Fraction")
        lattice.require_integers(exps, "exponent")
        if min(exps, default=0) < 0:
            raise ValueError(f"exponents {tuple(exps)} include a negative entry")
        exps = tuple(exps)
        merged[exps] = merged.get(exps, Fraction(0)) + coeff
    out = [(c, e) for e, c in merged.items() if c != 0]
    out.sort(key=lambda t: t[1], reverse=True)
    return GradedPolynomial(terms=tuple(out))


def monic(poly):
    if poly.is_zero:
        return poly
    lead = poly.terms[0][0]
    return GradedPolynomial(terms=tuple((c / lead, e) for c, e in poly.terms))


@dataclass(frozen=True)
class GradedPresentation:
    weighting: VariableWeighting
    relations: tuple  # tuple of GradedPolynomial


@dataclass(frozen=True)
class MonomialQuotient:
    """Polynomial ring modulo a monomial ideal, given by minimal generators."""

    weighting: VariableWeighting
    minimal_generators: tuple  # tuple of exponent tuples, an antichain

    def __post_init__(self):
        nvars = len(self.weighting.variables)
        for g in self.minimal_generators:
            if len(g) != nvars:
                raise RankMismatch(f"monomial {tuple(g)} does not have {nvars} exponents")
            lattice.require_integers(g, "monomial")
            if any(e < 0 for e in g):
                raise ValueError(f"monomial {tuple(g)} has a negative exponent")
        gens = minimalize_monomials(self.minimal_generators)
        object.__setattr__(self, "minimal_generators", gens)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize_monomials(monomials):
    """Reduce a monomial set to the divisibility antichain of its minima."""
    mons = sorted({tuple(m) for m in monomials})
    kept = []
    for m in mons:
        if not any(_divides(k, m) for k in kept):
            kept = [k for k in kept if not _divides(m, k)]
            kept.append(m)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class StabilizationReport:
    weight: tuple
    n_lambda: int
    dimensions: tuple  # dim (A_n)_lambda for n = 0..n_max
    stable: bool
    limit_dimension: int  # dim A_lambda, counted directly


def weight_of(exps, weighting):
    if len(exps) != len(weighting.variables):
        raise RankMismatch(
            f"monomial has {len(exps)} exponents, weighting has "
            f"{len(weighting.variables)} variables"
        )
    total = [0] * weighting.torus_rank
    for e, (_, w) in zip(exps, weighting.variables):
        for i in range(weighting.torus_rank):
            total[i] += e * w[i]
    return tuple(total)


def check_homogeneous(poly, weighting):
    """Common weight of all terms; raises InhomogeneousError on a mismatch."""
    if poly.is_zero:
        return (0,) * weighting.torus_rank
    first = weight_of(poly.terms[0][1], weighting)
    for _, exps in poly.terms[1:]:
        w = weight_of(exps, weighting)
        if w != first:
            raise InhomogeneousError(first, w)
    return first


def outsider_variables(presentation, monoid):
    """Variables whose weight lies outside the saturation of the monoid."""
    w = presentation.weighting
    if monoid.rank != w.torus_rank:
        raise RankMismatch(
            f"monoid rank {monoid.rank} != torus rank {w.torus_rank}"
        )
    return [
        name for name, weight in w.variables if not lattice.contains(monoid, weight)
    ]


def _substitute_zero(presentation, removed_names):
    """Set the named variables to zero and canonicalize the presentation."""
    w = presentation.weighting
    keep = [i for i, (name, _) in enumerate(w.variables) if name not in removed_names]
    new_weighting = VariableWeighting(
        torus_rank=w.torus_rank,
        variables=tuple(w.variables[i] for i in keep),
    )
    removed_idx = [i for i in range(len(w.variables)) if i not in keep]
    relations = []
    for rel in presentation.relations:
        kept_terms = [
            (c, tuple(e[i] for i in keep))
            for c, e in rel.terms
            if all(e[i] == 0 for i in removed_idx)
        ]
        poly = monic(make_polynomial(kept_terms))
        if not poly.is_zero:
            relations.append(poly)
    relations = sorted(set(relations), key=GradedPolynomial.sort_key)
    return GradedPresentation(weighting=new_weighting, relations=tuple(relations))


def bb_plus(presentation, monoid):
    """Presentation of the subscheme of points with a limit under the monoid.

    The ideal of that subscheme is generated by the outsider variables: a
    monomial in insider variables has insider weight (the monoid's saturation
    is closed under addition), so every outsider monomial has an outsider
    variable as a divisor.
    """
    if not lattice.has_zero(monoid):
        raise MonoidHasUnits(
            "monoid has nontrivial units; apply reduce_to_zero first"
        )
    for rel in presentation.relations:
        check_homogeneous(rel, presentation.weighting)
    return _substitute_zero(presentation, set(outsider_variables(presentation, monoid)))


def fixed_locus(presentation):
    """Presentation of the fixed subscheme: every nonzero-weight variable dies."""
    for rel in presentation.relations:
        check_homogeneous(rel, presentation.weighting)
    zero = (0,) * presentation.weighting.torus_rank
    removed = {
        name for name, weight in presentation.weighting.variables if weight != zero
    }
    return _substitute_zero(presentation, removed)


def open_immersion_check(presentation, monoid):
    """Whether the limit subscheme is an open neighbourhood of the origin.

    Requires a presentation minimal at the origin (relations in the square of
    the irrelevant ideal), so the variable weights read off the cotangent
    space there; the check is that none of them is outsider.
    """
    if not lattice.has_zero(monoid):
        raise MonoidHasUnits(
            "monoid has nontrivial units; apply reduce_to_zero first"
        )
    for rel in presentation.relations:
        check_homogeneous(rel, presentation.weighting)
        for _, exps in rel.terms:
            if sum(exps) < 2:
                raise NotMinimalPresentation(
                    "relation has a term of degree < 2; minimize the "
                    "presentation at the origin first"
                )
    return not outsider_variables(presentation, monoid)


def _split_variables(quotient, monoid):
    """Indices of zero-weight and nonzero-weight variables, with checks."""
    w = quotient.weighting
    if monoid.rank != w.torus_rank:
        raise RankMismatch(
            f"monoid rank {monoid.rank} != torus rank {w.torus_rank}"
        )
    zero = (0,) * w.torus_rank
    zero_idx, pos_idx = [], []
    for i, (name, weight) in enumerate(w.variables):
        if not lattice.contains(monoid, weight):
            raise WeightOutsideMonoid(
                f"variable {name} has weight {weight} outside the monoid"
            )
        (zero_idx if weight == zero else pos_idx).append(i)
    return zero_idx, pos_idx


def _zero_weight_bounds(quotient, zero_idx):
    """Exponent bounds for zero-weight variables from pure-power generators.

    Without a pure power x_i^e in the ideal, the weight-graded components are
    infinite dimensional and no count exists.
    """
    bounds = {}
    for i in zero_idx:
        best = None
        for g in quotient.minimal_generators:
            if g[i] > 0 and all(g[j] == 0 for j in range(len(g)) if j != i):
                best = g[i] if best is None else min(best, g[i])
        if best is None:
            name = quotient.weighting.variables[i][0]
            raise InfiniteDimension(
                f"zero-weight variable {name} has no pure power in the ideal; "
                "graded components are infinite dimensional"
            )
        bounds[i] = best
    return bounds


def _pairing(a, b):
    return sum(x * y for x, y in zip(a, b))


def _standard_monomials(quotient, monoid, budget, kempf=None):
    """Weight and J-order of every standard monomial of cost at most budget.

    Each nonzero-weight variable costs 1, so the cost is the J-order, or its
    Kempf degree when a Kempf vector is given, which is at least the J-order.
    Zero-weight variables cost nothing and stay below their pure-power bounds.
    """
    zero_idx, pos_idx = _split_variables(quotient, monoid)
    bounds = _zero_weight_bounds(quotient, zero_idx)
    w = quotient.weighting
    costs = {
        i: 1 if kempf is None else _pairing(kempf, w.variables[i][1]) for i in pos_idx
    }
    level = [((0,) * len(w.variables), 0)] if budget >= 0 else []
    for i in pos_idx + zero_idx:
        c = costs.get(i, 0)
        level = [
            (exps[:i] + (e,) + exps[i + 1:], cost + e * c)
            for exps, cost in level
            for e in range(bounds[i] if i in bounds else (budget - cost) // c + 1)
        ]
    for exps, _ in level:
        if not any(_divides(g, exps) for g in quotient.minimal_generators):
            yield weight_of(exps, w), sum(exps[i] for i in pos_idx)


def truncate(quotient, monoid, n):
    """Graded dimensions of the n-th truncation A / (M + J^(n+1)), where J is
    the ideal of nonzero-weight variables.

    Returns {weight: dimension} over all weights realized at this level.
    """
    if not lattice.has_zero(monoid):
        raise MonoidHasUnits(
            "monoid has nontrivial units; apply reduce_to_zero first"
        )
    if n < 0:
        raise ValueError("truncation level must be nonnegative")
    return dict(Counter(w for w, _ in _standard_monomials(quotient, monoid, n)))


def _weight_orders(quotient, monoid, weight):
    """The checked weight, its Kempf degree n_lambda (0 when negative) and the
    J-orders of its standard monomials, all of Kempf degree n_lambda."""
    kempf = lattice.kempf_vector(monoid).w
    weight = tuple(weight)
    if len(weight) != monoid.rank:
        raise RankMismatch(
            f"weight has length {len(weight)}, monoid has rank {monoid.rank}"
        )
    lattice.require_integers(weight, "weight")
    n_lambda = max(_pairing(kempf, weight), 0)
    monomials = _standard_monomials(quotient, monoid, n_lambda, kempf)
    return weight, n_lambda, [order for w, order in monomials if w == weight]


def graded_dimension(quotient, monoid, weight):
    """dim A_weight of the full quotient, by direct standard-monomial count.

    Finite because every nonzero-weight variable has positive pairing with
    the Kempf vector, bounding exponents by the Kempf degree of the weight.
    """
    return len(_weight_orders(quotient, monoid, weight)[2])


def stabilization_check(quotient, monoid, weight, n_max):
    """Dimension sequence of truncations in one weight, with its stability bound.

    For a torus the isotypic component of a weight is the single character, so
    the bound is its Kempf degree n_lambda = <kempf vector, weight>.  The
    dimension at level n counts the monomials of the weight of J-order <= n.
    """
    weight, n_lambda, orders = _weight_orders(quotient, monoid, weight)
    by_order = [0] * (n_max + 1)
    for order in orders:
        if order <= n_max:
            by_order[order] += 1
    dims = tuple(accumulate(by_order))
    return StabilizationReport(
        weight=weight,
        n_lambda=n_lambda,
        dimensions=dims,
        stable=len(set(dims[n_lambda:])) <= 1,
        limit_dimension=len(orders),
    )


def algebraize_check(quotient, monoid, weight_bound):
    """Whether truncations at level n_lambda recover every graded component of
    Kempf degree at most weight_bound."""
    kempf = lattice.kempf_vector(monoid).w
    if weight_bound < 0:
        raise ValueError("weight bound must be nonnegative")
    # the truncation at n_lambda keeps as many monomials of a weight as the
    # full quotient exactly when none of them has J-order above n_lambda
    monomials = _standard_monomials(quotient, monoid, weight_bound, kempf)
    return all(order <= _pairing(kempf, w) for w, order in monomials)
