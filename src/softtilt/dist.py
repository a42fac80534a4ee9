"""Finite joint distributions over named discrete variables.

A `JointTable` holds one flat list of Python ints over a common denominator
(a power of two for float input, since doubles are dyadic; the lcm for
`Fraction` input), one per cell of the alphabet product, indexed mixed-radix
with the last variable fastest as `iter_group_assignments` orders them.
Marginals are integer sums and mass ratios are integer ratios, so no rounding
occurs before a query returns a float: conditionals are correctly rounded
`int / int` quotients, marginalizing in stages equals marginalizing in one
step *exactly*, and the pointwise mutual information is bit-identical under
argument exchange because both orders form the same integer ratio. Masses
are returned as `Fraction`. A table is immutable once built (cells,
variables, `tol_norm`), so each marginal is memoized as a flat int list.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from numbers import Rational

from .errors import UndefinedPMI, ValidationError, ZeroMassContext

DEFAULT_TOL_NORM = 1e-12
_MIN_NORMAL = 2.0**-1022  # smallest positive normal double


@dataclass(frozen=True)
class VariableSpec:
    """A named variable with a fixed, ordered alphabet of string labels.

    Alphabet order is canonical: it drives flattened indexing everywhere.
    """

    name: str
    alphabet: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("variable name must be a nonempty string")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not self.alphabet:
            raise ValidationError(f"variable {self.name!r} has an empty alphabet")
        for label in self.alphabet:
            if not isinstance(label, str):
                raise ValidationError(
                    f"variable {self.name!r}: labels must be strings, got {label!r}"
                )
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValidationError(f"variable {self.name!r} has repeated labels")


class Assignment:
    """An immutable set of variable bindings, canonically ordered by name.

    Doubles as the key type for events: equality, hashing and iteration are
    insensitive to the order bindings were given in, so a lookup keyed on
    {X=0, Y=1} and one keyed on {Y=1, X=0} hit the same entry. Iteration
    yields the bound names; str() renders the bindings as reports do: X=0,Y=1.
    """

    __slots__ = ("_items",)

    def __init__(self, bindings: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        if isinstance(bindings, Assignment):
            bindings = bindings._items
        seen: dict[str, str] = {}
        for pair in bindings.items() if isinstance(bindings, Mapping) else bindings:
            try:
                name, label = pair
            except (TypeError, ValueError):
                raise ValidationError(f"binding must be a (name, label) pair, got {pair!r}")
            if not isinstance(name, str) or not isinstance(label, str):
                raise ValidationError(f"bindings must map str to str, got {name!r}={label!r}")
            if name in seen:
                raise ValidationError(f"variable {name!r} bound twice")
            seen[name] = label
        self._items: tuple[tuple[str, str], ...] = tuple(sorted(seen.items()))

    @classmethod
    def _of(cls, items: tuple[tuple[str, str], ...]) -> "Assignment":
        """Trusted constructor: items are valid bindings already sorted by name."""
        a = object.__new__(cls)
        a._items = items
        return a

    @property
    def items_sorted(self) -> tuple[tuple[str, str], ...]:
        """The bindings sorted by name; also the canonical lexicographic sort key."""
        return self._items

    def __getitem__(self, name: str) -> str:
        return dict(self._items)[name]

    def __iter__(self):
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def union(self, other: "Assignment | Mapping[str, str]") -> "Assignment":
        """Combine bindings; a variable bound on both sides must agree."""
        merged = dict(self._items)
        for name, label in as_assignment(other)._items:
            if merged.setdefault(name, label) != label:
                raise ValidationError(
                    f"conflicting bindings for {name!r}: {merged[name]!r} vs {label!r}"
                )
        return Assignment._of(tuple(sorted(merged.items())))

    def restrict(self, names: Iterable[str]) -> "Assignment":
        keep = set(names)
        return Assignment._of(tuple(item for item in self._items if item[0] in keep))

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"Assignment({inner})"

    def __str__(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self._items) or "{}"


def as_assignment(value: Assignment | Mapping[str, str] | Iterable[tuple[str, str]]) -> Assignment:
    if isinstance(value, Assignment):
        return value
    return Assignment(value)


def iter_group_assignments(specs: Iterable[VariableSpec]):
    """All full assignments over a variable group, last variable fastest."""
    specs = tuple(specs)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValidationError(f"variable names must be distinct, got {names!r}")
    order = sorted(range(len(names)), key=names.__getitem__)
    for combo in itertools.product(*(s.alphabet for s in specs)):
        yield Assignment._of(tuple((names[i], combo[i]) for i in order))


class JointTable:
    """A normalized joint distribution; zero cells may be left implicit."""

    def __init__(self, variables: Iterable[VariableSpec], mass: Mapping | Iterable[tuple],
                 tol_norm: float = DEFAULT_TOL_NORM):
        specs = self._variables = tuple(variables)
        if not specs:
            raise ValidationError("a joint table needs at least one variable")
        for spec in specs:
            if not isinstance(spec, VariableSpec):
                raise ValidationError(f"expected VariableSpec, got {spec!r}")
        self._index = {s.name: v for v, s in enumerate(specs)}
        if len(self._index) != len(specs):
            raise ValidationError("variable names must be distinct")
        # per name, each label's (variable index, digit)
        self._labels = {s.name: {label: (v, d) for d, label in enumerate(s.alphabet)}
                        for v, s in enumerate(specs)}
        self._sizes = tuple(len(s.alphabet) for s in specs)
        self._all = tuple(range(len(specs)))
        tol = self._tol_norm = float(tol_norm)
        # objects derived from the variables and cells, keyed by what they came from
        self._derived: dict[tuple, object] = {}
        offsets = self._label_offsets(self._all)
        ratios: dict[int, tuple[int, int]] = {}
        for key, value in mass.items() if isinstance(mass, Mapping) else mass:
            # a plain dict binding every variable, with a finite float >= 0, sits at the sum of
            # its labels' offsets; any other entry, and any fault, takes the checks below
            if (type(key) is dict and len(key) == len(specs) and type(value) is float
                    and 0.0 <= value < math.inf):
                i = 0
                try:
                    for name, label in key.items():
                        i += offsets[name][label]
                except (KeyError, TypeError):  # an unknown name or label
                    i = -1
                if i >= 0 and i not in ratios:
                    ratios[i] = value.as_integer_ratio()
                    continue
            i = self._locate(as_assignment(key), full=True)[1]
            x = _real(value)
            if x is None:
                raise ValidationError(f"mass must be a real number, got {value!r}")
            if not math.isfinite(x):
                raise ValidationError(f"mass must be finite, got {value!r}")
            num, den = (value if isinstance(value, float) else Fraction(value)).as_integer_ratio()
            if num < 0:
                raise ValidationError(f"negative mass {value!r} at {as_assignment(key)}")
            if i in ratios:
                raise ValidationError(f"duplicate assignment {as_assignment(key)}")
            ratios[i] = (num, den)
        self._den = den = math.lcm(*(d for _, d in ratios.values()))
        self._cells = [0] * math.prod(self._sizes)
        for i, (num, d) in ratios.items():
            self._cells[i] = num * (den // d)
        total = sum(self._cells)
        self._derived.update({("cells", self._all): self._cells, ("cells", ()): [total]})
        if Fraction(abs(total - den), den) > Fraction(tol):
            raise ValidationError(f"masses sum to {total / den!r}, off 1 by more than {tol!r}")

    def _locate(self, event: Assignment, full: bool = False) -> tuple[tuple[int, ...], int]:
        """The sorted indices of the variables an event binds, and its flat
        index in the grid over them; full=True requires every variable bound."""
        digits = []
        for name, label in event.items_sorted:
            labels = self._labels.get(name)
            if labels is None or label not in labels:
                self.variable(name)  # raises for an unknown variable
                raise ValidationError(f"label {label!r} is not in the alphabet of {name!r}")
            digits.append(labels[label])
        if full and len(digits) != len(self._all):
            missing = next(s.name for s in self._variables if s.name not in set(event))
            raise ValidationError(f"assignment {event} does not bind {missing!r}")
        digits.sort()
        i = 0
        for v, d in digits:
            i = i * self._sizes[v] + d
        return tuple(v for v, _ in digits), i

    def _group(self, names: Iterable[str]) -> tuple[int, ...]:
        """Sorted variable indices of a set of names."""
        wanted = set(names)
        unknown = wanted - self._index.keys()
        if unknown:
            raise ValidationError(f"unknown variables {sorted(unknown)!r}")
        return tuple(sorted(self._index[n] for n in wanted))

    def _cells_over(self, group: tuple[int, ...]) -> list[int]:
        """The marginal over a group of variable indices: a flat int list over den."""
        def build() -> list[int]:
            rest = self._offsets(self._all, tuple(v for v in self._all if v not in group))
            full = self._cells
            return [sum([full[o + r] for r in rest]) for o in self._offsets(self._all, group)]

        return self._memo(("cells", group), build)

    def _offsets(self, group: tuple[int, ...], sub: tuple[int, ...]) -> list[int]:
        """For each index of the grid over sub, a subset of group, its offset in
        the grid over group. Offsets of complementary subsets add up."""
        offsets = [0]
        for v in sub:
            stride = math.prod(self._sizes[w] for w in group if w > v)
            offsets = [o + d * stride for o in offsets for d in range(self._sizes[v])]
        return offsets

    def _label_offsets(self, group: tuple[int, ...]) -> dict[str, dict[str, int]]:
        """Per name of a group of variable indices, each label's offset in the grid over
        the group, where a binding of the whole group sits at the sum of its labels'."""
        return self._memo(("label offsets", group), lambda: {
            self._variables[v].name: dict(zip(self._variables[v].alphabet,
                                              self._offsets(group, (v,))))
            for v in group
        })

    def _order(self, group: tuple[int, ...]) -> list[int]:
        """The cell indices of the grid over a group of variable indices in canonical
        order, as `items_sorted` sorts their assignments: by label, in name order."""
        def build() -> list[int]:
            order = [0]
            for _, labels in sorted(self._label_offsets(group).items()):
                axis = sorted(labels.items())
                order = [cell + off for cell in order for _, off in axis]
            return order

        return self._memo(("order", group), build)

    def _memo(self, key: tuple, build):
        """The object derived under key, built by build() once per table."""
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = build()
        return hit

    def _mass(self, event: Assignment) -> int:
        group, i = self._locate(event)
        return self._cells_over(group)[i]

    @property
    def tol_norm(self) -> float:
        return self._tol_norm

    @property
    def variables(self) -> tuple[VariableSpec, ...]:
        return self._variables

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._variables)

    def variable(self, name: str) -> VariableSpec:
        v = self._index.get(name)
        if v is None:
            raise ValidationError(f"unknown variable {name!r}")
        return self._variables[v]

    def group(self, names: Iterable[str]) -> tuple[VariableSpec, ...]:
        """Specs for a set of names, ordered as in this table."""
        return tuple(self._variables[v] for v in self._group(names))

    def total(self) -> Fraction:
        return Fraction(self._cells_over(())[0], self._den)

    def mass_of(self, assignment) -> Fraction:
        return Fraction(self._cells[self._locate(as_assignment(assignment), True)[1]], self._den)

    def event_mass(self, event) -> Fraction:
        """Exact probability of a partial assignment, read off its marginal."""
        return Fraction(self._mass(as_assignment(event)), self._den)

    def prob(self, event) -> float:
        return float(self.event_mass(event))

    def support(self) -> list[tuple[Assignment, Fraction]]:
        cells = zip(iter_group_assignments(self._variables), self._cells)
        out = [(cell, Fraction(c, self._den)) for cell, c in cells if c]
        return sorted(out, key=lambda item: item[0].items_sorted)

    def masses(self) -> dict[Assignment, Fraction]:
        return dict(self.support())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JointTable):
            return self._variables == other._variables and self.masses() == other.masses()
        return NotImplemented

    def __repr__(self) -> str:
        cells = sum(1 for c in self._cells if c)
        return f"JointTable(variables={self.names!r}, cells={cells})"


@dataclass(frozen=True)
class DistVector:
    """A probability vector over the alphabet product of a variable group.

    probs[i] corresponds to the i-th assignment in flattened product order
    (last variable fastest), matching iter_group_assignments(over).
    """

    over: tuple[VariableSpec, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "over", tuple(self.over))
        given = tuple(self.probs)
        object.__setattr__(self, "probs", tuple(map(_real, given)))
        if not self.over:
            raise ValidationError("a distribution vector needs at least one variable")
        for spec in self.over:
            if not isinstance(spec, VariableSpec):
                raise ValidationError(f"expected VariableSpec, got {spec!r}")
        expected = math.prod(len(spec.alphabet) for spec in self.over)
        if len(self.probs) != expected:
            raise ValidationError(f"expected {expected} probabilities, got {len(self.probs)}")
        for p, x in zip(given, self.probs):
            if x is None or not 0 <= x < math.inf:
                raise ValidationError(f"probabilities must be finite and >= 0, got {p!r}")
        total = fsum(self.probs)
        if abs(total - 1.0) > DEFAULT_TOL_NORM:
            raise ValidationError(
                f"probabilities sum to {total!r}, off 1 by more than {DEFAULT_TOL_NORM!r}"
            )

    def outcomes(self) -> tuple[Assignment, ...]:
        return tuple(iter_group_assignments(self.over))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)

    def index_of(self, assignment) -> int:
        target = as_assignment(assignment)
        for i, outcome in enumerate(iter_group_assignments(self.over)):
            if outcome == target:
                return i
        raise ValidationError(f"{target} is not an outcome of this vector")


def _real(value) -> float | None:
    """`value` as a float if it is a real number (an int that is not a bool, a float, or a
    `numbers.Rational`), else None; one beyond the double range reads as +-inf. The one
    rule of what a number is, for the JSON readers and the library constructors alike."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (float, Rational)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(value, message) -> float:
    """`value` as a float if it is a finite real number, else a ValidationError with
    `message`, which may be a callable, so that a per-entry message is built only on failure."""
    x = _real(value)
    if x is None or not math.isfinite(x):
        raise ValidationError(message if isinstance(message, str) else message())
    return x


def _trusted(cls, **fields):
    """Trusted constructor: an instance with fields already valid, such as values
    checked where they were read or exact quotients, set without validation."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def marginal(joint: JointTable, keep: Iterable[str]) -> JointTable:
    """Marginalize onto a subset of variables. Exact: no rounding occurs.

    Built once per table and subset; later calls return the same object.
    """
    group = joint._group(keep)

    def build() -> JointTable:
        specs = tuple(joint.variables[v] for v in group)
        masses = (Fraction(c, joint._den) for c in joint._cells_over(group))
        return JointTable(specs, zip(iter_group_assignments(specs), masses), joint.tol_norm)

    return joint._memo(("marginal", group), build)


def conditional(joint: JointTable, target: Iterable[str], context) -> DistVector:
    """P(target | context), exactly renormalized; other variables sum out.

    Raises ZeroMassContext when the conditioning event has zero probability.
    """
    specs = joint.group(target)
    ctx = as_assignment(context)
    ctx_mass = joint._mass(ctx)
    overlap = {s.name for s in specs} & set(ctx)
    if overlap:
        raise ValidationError(f"target and context overlap on {sorted(overlap)!r}")
    if ctx_mass == 0:
        raise ZeroMassContext(f"conditioning event {ctx} has zero probability")
    outcomes = iter_group_assignments(specs)
    return DistVector(specs, tuple(joint._mass(o.union(ctx)) / ctx_mass for o in outcomes))


def pmi(joint: JointTable, x, z, y) -> float:
    """Conditional pointwise mutual information between events x and z given y.

    Evaluated as log of the exact ratio P(x,y,z)P(y) / (P(y,z)P(x,y)), so the
    result is bit-identical under exchange of x and z. Returns -inf when the
    posterior cell is empty while the prior conditional is positive.
    """
    ex, ez, ey = as_assignment(x), as_assignment(z), as_assignment(y)
    for a, b, what in ((ex, ez, "x/z"), (ex, ey, "x/y"), (ez, ey, "z/y")):
        shared = set(a) & set(b)
        if shared:
            raise ValidationError(f"{what} events overlap on {sorted(shared)!r}")
    p_y = joint._mass(ey)
    if p_y == 0:
        raise ZeroMassContext(f"P(y)=0 for y={ey}")
    p_yz = joint._mass(ey.union(ez))
    if p_yz == 0:
        raise ZeroMassContext(f"P(y,z)=0 for y={ey}, z={ez}")
    p_xy = joint._mass(ex.union(ey))
    if p_xy == 0:
        raise UndefinedPMI(f"P(x|y)=0 for x={ex}, y={ey}")
    p_xyz = joint._mass(ex.union(ey).union(ez))
    if p_xyz == 0:
        return -math.inf
    return log_rational(p_xyz * p_y, p_yz * p_xy)


def log_rational(num: int, den: int) -> float:
    """Natural log of the exact positive ratio num / den, at any magnitude: the
    log of the correctly rounded quotient when that is a normal double, else
    the difference of the logs of the ratio in lowest terms."""
    try:
        x = num / den
    except OverflowError:
        x = math.inf
    if _MIN_NORMAL <= x < math.inf:
        return math.log(x)
    g = math.gcd(num, den)
    return math.log(num // g) - math.log(den // g)


def total_variation(a: DistVector, b: DistVector) -> float:
    """Total variation distance between two vectors over the same group."""
    if a.over != b.over:
        raise ValidationError("distributions are over different variable groups")
    return 0.5 * fsum(abs(p - q) for p, q in zip(a.probs, b.probs))
