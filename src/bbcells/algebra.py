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
    NotMinimalPresentation,
    RankMismatch,
    WeightOutsideMonoid,
    require_instance,
    require_natural,
    require_rank,
    require_sequence,
    require_vector,
)

IDENT = re.compile("[A-Za-z][A-Za-z0-9_]*")  # variable names: ASCII identifiers


def require_names(names):
    """The tuple of the names, taken in order, which must be distinct ASCII
    identifiers (IDENT), else ValueError at the first name that is not."""
    checked = []
    for name in names:
        if not isinstance(name, str) or not IDENT.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        checked.append(name)
    if len(set(checked)) != len(checked):
        raise ValueError("variable names must be unique")
    return tuple(checked)


def _name_of(variable):
    """The name of a variable, which must be a (name, weight) pair."""
    if len(require_sequence(variable, "variable")) != 2:
        raise ValueError(f"variable {variable!r} is not a (name, weight) pair")
    return variable[0]


@dataclass(frozen=True)
class VariableWeighting:
    torus_rank: int
    variables: tuple  # tuple of (name, weight tuple)

    def __post_init__(self):
        require_rank(self.torus_rank, "torus rank")
        require_names(map(_name_of, require_sequence(self.variables, "variables")))
        object.__setattr__(self, "variables", tuple(
            (name, require_vector(weight, self.torus_rank, f"weight of {name}"))
            for name, weight in self.variables))

    @property
    def names(self):
        return [name for name, _ in self.variables]


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


def _require_exponents(exps, nvars):
    """The tuple of exps, which must be nvars nonnegative ints."""
    exps = require_vector(exps, nvars, "monomial")
    if min(exps, default=0) < 0:
        raise ValueError(f"monomial {exps} has a negative exponent")
    return exps


def make_polynomial(terms):
    """Canonical GradedPolynomial from a list or tuple of (coeff, exponents)
    pairs: an int or Fraction coefficient and non-negative int exponents, as
    many in every term as in the first, else ValueError or RankMismatch."""
    merged = {}
    for term in require_sequence(terms, "terms"):
        if len(require_sequence(term, "term")) != 2:
            raise ValueError(f"term {term!r} is not a (coefficient, exponents) pair")
        coeff, exps = term
        if type(coeff) is not int and not isinstance(coeff, Fraction):
            raise ValueError(f"coefficient {coeff!r} is not an int or a Fraction")
        if not merged:
            nvars = len(exps) if isinstance(exps, (list, tuple)) else 0
        exps = _require_exponents(exps, nvars)
        merged[exps] = merged.get(exps, Fraction(0)) + coeff
    out = [(c, e) for e, c in merged.items() if c != 0]
    out.sort(key=lambda t: t[1], reverse=True)
    return GradedPolynomial(terms=tuple(out))


@dataclass(frozen=True)
class GradedPresentation:
    """A weighting and its relations, each checked homogeneous here."""

    weighting: VariableWeighting
    relations: tuple  # tuple of GradedPolynomial

    def __post_init__(self):
        require_instance(self.weighting, VariableWeighting, "weighting")
        for rel in require_sequence(self.relations, "relations"):
            check_homogeneous(require_instance(rel, GradedPolynomial, "relation"),
                              self.weighting)


@dataclass(frozen=True)
class MonomialQuotient:
    """Polynomial ring modulo a monomial ideal, given by minimal generators."""

    weighting: VariableWeighting
    minimal_generators: tuple  # tuple of exponent tuples, an antichain

    def __post_init__(self):
        require_instance(self.weighting, VariableWeighting, "weighting")
        nvars = len(self.weighting.variables)
        gens = require_sequence(self.minimal_generators, "minimal generators")
        gens = [_require_exponents(g, nvars) for g in gens]
        object.__setattr__(self, "minimal_generators", minimalize_monomials(gens))


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
    """`stable`: the dimensions from level n_lambda on are all equal; vacuously
    true when n_max < n_lambda, since no computed level reaches the bound."""

    weight: tuple
    n_lambda: int
    dimensions: tuple  # dim (A_n)_lambda for n = 0..n_max
    stable: bool
    limit_dimension: int  # dim A_lambda, counted directly


def weight_of(exps, weighting):
    exps = require_vector(exps, len(weighting.variables), "monomial")
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
    """Variables whose weight lies outside the saturation of the monoid; a
    presentation or a monomial quotient."""
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
        terms = make_polynomial(kept_terms).terms
        if terms:  # made monic: every coefficient over the leading one
            lead = terms[0][0]
            relations.append(GradedPolynomial(tuple((c / lead, e) for c, e in terms)))
    relations = sorted(set(relations), key=GradedPolynomial.sort_key)
    return GradedPresentation(weighting=new_weighting, relations=tuple(relations))


def bb_plus(presentation, monoid):
    """Presentation of the subscheme of points with a limit under the monoid.

    The ideal of that subscheme is generated by the outsider variables: a
    monomial in insider variables has insider weight (the monoid's saturation
    is closed under addition), so every outsider monomial has an outsider
    variable as a divisor.
    """
    lattice.require_zero(monoid)
    return _substitute_zero(presentation, set(outsider_variables(presentation, monoid)))


def fixed_locus(presentation):
    """Presentation of the fixed subscheme: every nonzero-weight variable dies."""
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
    lattice.require_zero(monoid)
    if any(sum(exps) < 2 for rel in presentation.relations for _, exps in rel.terms):
        raise NotMinimalPresentation(
            "relation has a term of degree < 2; minimize the "
            "presentation at the origin first"
        )
    return not outsider_variables(presentation, monoid)


def _counting_plan(quotient, monoid):
    """Every check a count needs: the variable weights lie in the monoid, and
    a zero-weight variable without a pure power raises InfiniteDimension."""
    w = quotient.weighting
    outside = outsider_variables(quotient, monoid)
    if outside:
        name = outside[0]
        raise WeightOutsideMonoid(
            f"variable {name} has weight {dict(w.variables)[name]} outside the monoid"
        )
    for i, (name, weight) in enumerate(w.variables):
        powers = [g[i] for g in quotient.minimal_generators if 0 < g[i] == sum(g)]
        if not powers and not any(weight):
            raise InfiniteDimension(
                f"zero-weight variable {name} has no pure power in the ideal; "
                "graded components are infinite dimensional"
            )


def _pairing(a, b):
    return sum(x * y for x, y in zip(a, b))


def _standard_monomials(quotient, monoid, budget, kempf=None):
    """Weight and J-order of every standard monomial of cost at most budget >= 0.

    Each nonzero-weight variable costs 1, so the cost is the J-order, or its
    Kempf degree when a Kempf vector is given, which is at least the J-order.
    Zero-weight variables cost nothing.  The exponent of variable i stays
    below g_i for every minimal generator g whose support ends at i and
    whose earlier exponents divide the monomial's, which is exactly what
    keeps every generator from dividing it; a zero-weight variable has a
    pure power among them.  The unit ideal leaves nothing.
    """
    _counting_plan(quotient, monoid)
    w, gens = quotient.weighting, quotient.minimal_generators
    level = [((), 0, 0, (0,) * w.torus_rank)] if all(map(any, gens)) else []
    for i, (_, weight) in enumerate(w.variables):
        ends = [(g[:i], g[i]) for g in gens if g[i] and not any(g[i + 1:])]
        step = 1 if any(weight) else 0
        c = step if kempf is None else _pairing(kempf, weight)
        level = [
            (exps + (e,), cost + e * c, order + e * step,
             tuple(x + e * y for x, y in zip(total, weight)))
            for exps, cost, order, total in level
            for e in range(min([g for pre, g in ends if _divides(pre, exps)]
                               + ([(budget - cost) // c + 1] if c else [])))
        ]
    return [(total, order) for _, _, order, total in level]


def truncate(quotient, monoid, n):
    """Graded dimensions of the n-th truncation A / (M + J^(n+1)), where J is
    the ideal of nonzero-weight variables.

    Returns {weight: dimension} over all weights realized at this level.
    """
    lattice.require_zero(monoid)
    require_natural(n, "truncation level")
    return dict(Counter(w for w, _ in _standard_monomials(quotient, monoid, n)))


def _weight_orders(quotient, monoid, weight):
    """The checked weight, its Kempf degree n_lambda (0 when negative) and the
    J-orders of its standard monomials, all of Kempf degree n_lambda."""
    kempf = lattice.kempf_vector(monoid).w
    weight = require_vector(weight, monoid.rank, "weight")
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
    `stable` is vacuously true when n_max < n_lambda.
    """
    weight, n_lambda, orders = _weight_orders(quotient, monoid, weight)
    if type(n_max) is not int:
        raise ValueError("n_max must be an integer")
    require_natural(n_max, "n_max")
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
    Kempf degree at most weight_bound.  After the checks of the counts, in
    their order, it is True: the Kempf vector of the pointed monoid pairs to
    an integer >= 1 with every nonzero point of the saturated cone, so every
    standard monomial of weight lambda has J-order at most n_lambda."""
    lattice.require_zero(monoid)
    require_natural(weight_bound, "weight bound")
    _counting_plan(quotient, monoid)
    return True
