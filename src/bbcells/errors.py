"""Exception hierarchy shared across the library and the CLI, and the
exact-integer input checks that raise it: every vector the library takes is
a list or tuple of ints, and every rank, level or size is an int."""


class DomainError(Exception):
    """Base for all structured library errors; `code` keys the CLI output."""

    code = "domain-error"


class RankMismatch(DomainError):
    code = "rank-mismatch"


class MonoidHasUnits(DomainError):
    code = "monoid-has-units"


class InhomogeneousError(DomainError):
    code = "inhomogeneous-relation"

    def __init__(self, weight_a, weight_b):
        self.weight_a = tuple(weight_a)
        self.weight_b = tuple(weight_b)
        super().__init__(
            f"relation mixes terms of weight {self.weight_a} and {self.weight_b}"
        )


class NotMinimalPresentation(DomainError):
    code = "not-minimal-presentation"


class WeightOutsideMonoid(DomainError):
    code = "weight-outside-monoid"


class InfiniteDimension(DomainError):
    code = "infinite-dimension"


class NonGenericWeight(DomainError):
    code = "non-generic-weight"

    def __init__(self, partition, weight, tangent_weight):
        self.partition = tuple(partition)
        self.weight = tuple(weight)
        self.tangent_weight = tuple(tangent_weight)
        super().__init__(
            f"weight {self.weight} pairs to zero with tangent weight "
            f"{self.tangent_weight} at partition {self.partition}"
        )


class PolynomialSyntaxError(DomainError):
    code = "syntax-error"

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


class UnknownVariable(DomainError):
    code = "unknown-variable"

    def __init__(self, name, offset):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown variable '{name}' (at byte {offset})")


class ExponentOverflow(DomainError):
    code = "exponent-overflow"


def require_sequence(values, what):
    """The tuple of values, which must be a list or tuple."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} {values!r} is not a list or tuple")
    return tuple(values)


def require_instance(value, cls, what):
    """The value, which must be an instance of cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{what} {value!r} is not a {cls.__name__}")
    return value


def require_vector(values, length, what):
    """The tuple of values, which must be a list or tuple of `length` ints;
    bool, a subclass of int, is rejected too."""
    values = require_sequence(values, what)
    if len(values) != length:
        raise RankMismatch(f"{what} {values} has length {len(values)}, expected {length}")
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} entry {x!r} is not an integer")
    return values


def require_natural(n, what):
    """Raise ValueError unless n is an int, not a bool, of at least 0."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{what} must be a nonnegative integer")


def require_rank(rank, what):
    """Raise RankMismatch unless rank is an int, not a bool, of at least 1."""
    if type(rank) is not int or rank < 1:
        raise RankMismatch(f"{what} must be a positive integer")
