"""Finite joint distributions over named discrete variables.

Masses are held internally as exact rationals (every IEEE double converts
exactly), so marginalization, conditioning and probability-ratio formation
introduce no rounding at all. Floats appear only at the query surface. Two
invariants rely on this: marginalizing in stages equals marginalizing in one
step *exactly*, and the pointwise mutual information is bit-identical under
argument exchange because both orders reduce to the same rational ratio.

A `JointTable` is immutable once built: its cells, variables and `tol_norm`
cannot change. `marginal` relies on this to memoize each marginal on the
table it came from, keyed by the kept names, so conditioning once per
context costs one lookup rather than a rescan of every cell.
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


class Assignment(Mapping):
    """An immutable set of variable bindings, canonically ordered by name.

    Doubles as the key type for events: equality, hashing and iteration are
    insensitive to the order bindings were given in, so a lookup keyed on
    {X=0, Y=1} and one keyed on {Y=1, X=0} hit the same entry.
    """

    __slots__ = ("_items", "_map")

    def __init__(self, bindings: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        if isinstance(bindings, Assignment):
            pairs = bindings._items
        elif isinstance(bindings, Mapping):
            pairs = tuple(bindings.items())
        else:
            pairs = tuple(bindings)
        seen: dict[str, str] = {}
        for pair in pairs:
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
        self._map: dict[str, str] = dict(self._items)

    @property
    def items_sorted(self) -> tuple[tuple[str, str], ...]:
        """The bindings sorted by name; also the canonical lexicographic sort key."""
        return self._items

    def __getitem__(self, name: str) -> str:
        return self._map[name]

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._items)

    def union(self, other: "Assignment | Mapping[str, str]") -> "Assignment":
        """Combine bindings; a variable bound on both sides must agree."""
        other = as_assignment(other)
        merged = dict(self._map)
        for name, label in other._items:
            if name in merged and merged[name] != label:
                raise ValidationError(
                    f"conflicting bindings for {name!r}: {merged[name]!r} vs {label!r}"
                )
            merged[name] = label
        return Assignment(merged)

    def restrict(self, names: Iterable[str]) -> "Assignment":
        keep = set(names)
        return Assignment({k: v for k, v in self._items if k in keep})

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"Assignment({inner})"


def as_assignment(value: Assignment | Mapping[str, str] | Iterable[tuple[str, str]]) -> Assignment:
    if isinstance(value, Assignment):
        return value
    return Assignment(value)


def iter_group_assignments(specs: Iterable[VariableSpec]):
    """All full assignments over a variable group, last variable fastest."""
    specs = tuple(specs)
    names = tuple(s.name for s in specs)
    for combo in itertools.product(*(s.alphabet for s in specs)):
        yield Assignment(zip(names, combo))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"mass must be finite, got {value!r}")
        return Fraction(value)
    raise ValidationError(f"mass must be a real number, got {value!r}")


class JointTable:
    """A normalized joint distribution; zero cells may be left implicit."""

    def __init__(
        self,
        variables: Iterable[VariableSpec],
        mass: Mapping | Iterable[tuple],
        tol_norm: float = DEFAULT_TOL_NORM,
    ):
        self._variables = tuple(variables)
        if not self._variables:
            raise ValidationError("a joint table needs at least one variable")
        for spec in self._variables:
            if not isinstance(spec, VariableSpec):
                raise ValidationError(f"expected VariableSpec, got {spec!r}")
        names = [s.name for s in self._variables]
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be distinct")
        self._by_name = {s.name: s for s in self._variables}
        self._tol_norm = float(tol_norm)
        # marginals of this table, keyed by kept names in table order
        self._marginals: dict[tuple[str, ...], JointTable] = {}

        pairs = mass.items() if isinstance(mass, Mapping) else mass
        cells: dict[Assignment, Fraction] = {}
        total = Fraction(0)
        for key, value in pairs:
            cell = as_assignment(key)
            self._validate_full(cell)
            p = _as_fraction(value)
            if p < 0:
                raise ValidationError(f"negative mass {value!r} at {cell!r}")
            if cell in cells:
                raise ValidationError(f"duplicate assignment {cell!r}")
            cells[cell] = p
            total += p
        # drop explicit zeros: zero and absent cells are the same event
        self._mass = {c: p for c, p in cells.items() if p > 0}
        self._total = total
        if abs(total - 1) > Fraction(self.tol_norm):
            raise ValidationError(
                f"masses sum to {float(total)!r}, off 1 by more than {self.tol_norm!r}"
            )

    def _validate_full(self, cell: Assignment) -> None:
        for spec in self._variables:
            label = cell.get(spec.name)
            if label is None:
                raise ValidationError(f"assignment {cell!r} does not bind {spec.name!r}")
            if label not in spec.alphabet:
                raise ValidationError(
                    f"label {label!r} is not in the alphabet of {spec.name!r}"
                )
        if len(cell) != len(self._variables):
            extra = set(cell) - set(self._by_name)
            raise ValidationError(f"assignment binds unknown variables {sorted(extra)!r}")

    def _validate_event(self, event: Assignment) -> None:
        for name, label in event.items_sorted:
            spec = self._by_name.get(name)
            if spec is None:
                raise ValidationError(f"unknown variable {name!r}")
            if label not in spec.alphabet:
                raise ValidationError(f"label {label!r} is not in the alphabet of {name!r}")

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
        spec = self._by_name.get(name)
        if spec is None:
            raise ValidationError(f"unknown variable {name!r}")
        return spec

    def group(self, names: Iterable[str]) -> tuple[VariableSpec, ...]:
        """Specs for a set of names, ordered as in this table."""
        wanted = set(names)
        unknown = wanted - set(self._by_name)
        if unknown:
            raise ValidationError(f"unknown variables {sorted(unknown)!r}")
        return tuple(s for s in self._variables if s.name in wanted)

    def total(self) -> Fraction:
        return self._total

    def mass_of(self, assignment) -> Fraction:
        cell = as_assignment(assignment)
        self._validate_full(cell)
        return self._mass.get(cell, Fraction(0))

    def _mass_full(self, cell: Assignment) -> Fraction:
        # internal: caller guarantees the key is a full canonical assignment
        return self._mass.get(cell, Fraction(0))

    def event_mass(self, event) -> Fraction:
        """Exact probability of a partial assignment, read off its marginal."""
        ev = as_assignment(event)
        self._validate_event(ev)
        if not ev:
            return self._total
        table = self if len(ev) == len(self._variables) else marginal(self, ev)
        return table._mass.get(ev, Fraction(0))

    def prob(self, event) -> float:
        return float(self.event_mass(event))

    def support(self) -> list[tuple[Assignment, Fraction]]:
        return sorted(self._mass.items(), key=lambda item: item[0].items_sorted)

    def masses(self) -> dict[Assignment, Fraction]:
        return dict(self._mass)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JointTable):
            return self._variables == other._variables and self._mass == other._mass
        return NotImplemented

    def __repr__(self) -> str:
        return f"JointTable(variables={self.names!r}, cells={len(self._mass)})"


@dataclass(frozen=True)
class DistVector:
    """A probability vector over the alphabet product of a variable group.

    probs[i] corresponds to the i-th assignment in flattened product order
    (last variable fastest), matching iter_group_assignments(over).
    """

    over: tuple[VariableSpec, ...]
    probs: tuple[float, ...]
    tol_norm: float = DEFAULT_TOL_NORM

    def __post_init__(self) -> None:
        object.__setattr__(self, "over", tuple(self.over))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if not self.over:
            raise ValidationError("a distribution vector needs at least one variable")
        expected = 1
        for spec in self.over:
            if not isinstance(spec, VariableSpec):
                raise ValidationError(f"expected VariableSpec, got {spec!r}")
            expected *= len(spec.alphabet)
        if len(self.probs) != expected:
            raise ValidationError(
                f"expected {expected} probabilities, got {len(self.probs)}"
            )
        for p in self.probs:
            if not math.isfinite(p) or p < 0:
                raise ValidationError(f"probabilities must be finite and >= 0, got {p!r}")
        total = fsum(self.probs)
        if abs(total - 1.0) > self.tol_norm:
            raise ValidationError(
                f"probabilities sum to {total!r}, off 1 by more than {self.tol_norm!r}"
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
        raise ValidationError(f"{target!r} is not an outcome of this vector")


def marginal(joint: JointTable, keep: Iterable[str]) -> JointTable:
    """Marginalize onto a subset of variables. Exact: no rounding occurs.

    Built once per table and subset; later calls return the same object.
    """
    kept = joint.group(keep)
    kept_names = tuple(s.name for s in kept)
    cached = joint._marginals.get(kept_names)
    if cached is None:
        out: dict[Assignment, Fraction] = {}
        for cell, p in joint._mass.items():
            key = cell.restrict(kept_names)
            out[key] = out.get(key, Fraction(0)) + p
        cached = joint._marginals[kept_names] = JointTable(kept, out, tol_norm=joint.tol_norm)
    return cached


def conditional(joint: JointTable, target: Iterable[str], context) -> DistVector:
    """P(target | context), exactly renormalized; other variables sum out.

    Raises ZeroMassContext when the conditioning event has zero probability.
    """
    specs = joint.group(target)
    target_names = {s.name for s in specs}
    ctx = as_assignment(context)
    joint._validate_event(ctx)
    overlap = target_names & set(ctx)
    if overlap:
        raise ValidationError(f"target and context overlap on {sorted(overlap)!r}")
    reduced = marginal(joint, target_names | set(ctx)) if (
        len(target_names) + len(ctx) < len(joint.variables)
    ) else joint
    ctx_mass = reduced.event_mass(ctx)
    if ctx_mass == 0:
        raise ZeroMassContext(f"conditioning event {ctx!r} has zero probability")
    probs = []
    for outcome in iter_group_assignments(specs):
        probs.append(float(reduced._mass_full(outcome.union(ctx)) / ctx_mass))
    return DistVector(specs, tuple(probs))


def pmi(joint: JointTable, x, z, y) -> float:
    """Conditional pointwise mutual information between events x and z given y.

    Evaluated as log of the exact rational P(x,y,z)P(y) / (P(y,z)P(x,y)), so
    the result is bit-identical under exchange of x and z. Returns -inf when
    the posterior cell is empty while the prior conditional is positive.
    """
    ex, ez, ey = as_assignment(x), as_assignment(z), as_assignment(y)
    for a, b, what in ((ex, ez, "x/z"), (ex, ey, "x/y"), (ez, ey, "z/y")):
        shared = set(a) & set(b)
        if shared:
            raise ValidationError(f"{what} events overlap on {sorted(shared)!r}")
    p_y = joint.event_mass(ey)
    if p_y == 0:
        raise ZeroMassContext(f"P(y)=0 for y={ey!r}")
    p_yz = joint.event_mass(ey.union(ez))
    if p_yz == 0:
        raise ZeroMassContext(f"P(y,z)=0 for y={ey!r}, z={ez!r}")
    p_xy = joint.event_mass(ex.union(ey))
    if p_xy == 0:
        raise UndefinedPMI(f"P(x|y)=0 for x={ex!r}, y={ey!r}")
    p_xyz = joint.event_mass(ex.union(ey).union(ez))
    if p_xyz == 0:
        return -math.inf
    return log_rational((p_xyz * p_y) / (p_yz * p_xy))


def log_rational(r: Fraction) -> float:
    """Natural log of an exact positive rational, at any magnitude.

    A ratio that a double holds as a normal number takes the log of that
    double; one outside that range (which float() would overflow or flush
    toward zero) takes the difference of the integer logs.
    """
    try:
        x = float(r)
    except OverflowError:
        x = math.inf
    if _MIN_NORMAL <= x < math.inf:
        return math.log(x)
    return math.log(r.numerator) - math.log(r.denominator)


def total_variation(a: DistVector, b: DistVector) -> float:
    """Total variation distance between two vectors over the same group."""
    if a.over != b.over:
        raise ValidationError("distributions are over different variable groups")
    return 0.5 * fsum(abs(p - q) for p, q in zip(a.probs, b.probs))
