"""Tuple and schema model for continuous queries.

The paper (Section 2) models a data stream as an append-only sequence of
relational tuples with a common schema.  Upon arrival each tuple is assigned a
non-decreasing timestamp ``ts``.  Section 2.2 attaches a second timestamp,
``exp``, denoting the time at which the tuple expires from its sliding window
(``ts`` plus one window size for base tuples; for a composite result tuple,
the minimum of the constituents' ``exp`` values, because a result expires as
soon as at least one constituent expires).

Negative tuples (Sections 2.1 and 2.3.1) signal the deletion of a previously
reported tuple.  They carry the same attribute values and timestamps as the
tuple they delete, plus a negative *sign*.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

from ..errors import SchemaError

#: Sign of an ordinary ("real" / insertion) tuple.
POSITIVE = 1
#: Sign of a negative (deletion) tuple.
NEGATIVE = -1

#: Expiration timestamp of tuples that never expire (infinite streams).
NEVER = math.inf


class Schema:
    """An ordered list of attribute names shared by all tuples of a stream.

    Schemas are immutable; operations such as :meth:`concat` and
    :meth:`project` return new schemas.
    """

    __slots__ = ("_fields", "_index")

    def __init__(self, fields: Iterable[str]):
        fields = tuple(fields)
        if len(set(fields)) != len(fields):
            raise SchemaError(f"duplicate attribute names in schema: {fields}")
        if not fields:
            raise SchemaError("a schema must have at least one attribute")
        self._fields = fields
        self._index = {name: i for i, name in enumerate(fields)}

    @property
    def fields(self) -> tuple[str, ...]:
        """The attribute names, in order."""
        return self._fields

    def index_of(self, name: str) -> int:
        """Return the position of attribute ``name``.

        Raises :class:`SchemaError` if the attribute does not exist.
        """
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"attribute {name!r} not in schema {self._fields}"
            ) from None

    def indices_of(self, names: Sequence[str]) -> tuple[int, ...]:
        """Return the positions of several attributes, in the given order."""
        return tuple(self.index_of(name) for name in names)

    def concat(self, other: "Schema", *, prefixes: tuple[str, str] | None = None) -> "Schema":
        """Schema of a join result: this schema followed by ``other``.

        Clashing attribute names are disambiguated with ``prefixes`` (a pair
        of strings, one per side) when given, otherwise a
        :class:`SchemaError` is raised.
        """
        clashes = set(self._fields) & set(other._fields)
        if clashes and prefixes is None:
            raise SchemaError(
                f"attribute clash in join schema: {sorted(clashes)}; "
                "pass prefixes to disambiguate"
            )
        if prefixes is None:
            return Schema(self._fields + other._fields)
        left_p, right_p = prefixes
        left = tuple(
            f"{left_p}{f}" if f in clashes else f for f in self._fields
        )
        right = tuple(
            f"{right_p}{f}" if f in clashes else f for f in other._fields
        )
        return Schema(left + right)

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to ``names`` (also validates them)."""
        for name in names:
            self.index_of(name)
        return Schema(names)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        return f"Schema({list(self._fields)!r})"


class Tuple:
    """A stream tuple: attribute values plus timestamps and a sign.

    Attributes:
        values: the attribute values, positionally aligned with the schema.
        ts: generation (arrival) timestamp.
        exp: expiration timestamp; the tuple is *live* at time ``now`` iff
            ``exp > now``.  ``NEVER`` for tuples over infinite streams.
        sign: ``POSITIVE`` for insertions, ``NEGATIVE`` for deletions.

    Tuples are immutable value objects: equality and hashing consider
    ``(values, ts, exp, sign)``.  Two co-arriving tuples with equal values are
    therefore interchangeable, which matches multiset semantics.
    """

    __slots__ = ("values", "ts", "exp", "sign")

    def __init__(self, values: Sequence[Any], ts: float, exp: float = NEVER,
                 sign: int = POSITIVE):
        # Store through the slot descriptors (bound below the class):
        # ``__setattr__`` refuses every assignment, and a descriptor's
        # ``__set__`` costs less than ``object.__setattr__``'s name lookup.
        _set_values(self, tuple(values))
        _set_ts(self, ts)
        _set_exp(self, exp)
        _set_sign(self, sign)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Tuple instances are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Tuple instances are immutable")

    # -- predicates --------------------------------------------------------

    def is_live(self, now: float) -> bool:
        """True iff the tuple has not yet expired at time ``now``."""
        return self.exp > now

    @property
    def is_negative(self) -> bool:
        return self.sign == NEGATIVE

    # -- derivations -------------------------------------------------------

    def negate(self) -> "Tuple":
        """The negative tuple that deletes this tuple."""
        return Tuple(self.values, self.ts, self.exp, -self.sign)

    def with_values(self, values: Sequence[Any]) -> "Tuple":
        """Copy with different attribute values (projection)."""
        return Tuple(values, self.ts, self.exp, self.sign)

    def with_ts(self, ts: float) -> "Tuple":
        """Copy with a different generation timestamp."""
        return Tuple(self.values, ts, self.exp, self.sign)

    def with_exp(self, exp: float) -> "Tuple":
        """Copy with a different expiration timestamp."""
        return Tuple(self.values, self.ts, exp, self.sign)

    # -- value object protocol ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tuple) and (
            (self.values, self.ts, self.exp, self.sign)
            == (other.values, other.ts, other.exp, other.sign))

    def __hash__(self) -> int:
        return hash((self.values, self.ts, self.exp, self.sign))

    def __repr__(self) -> str:
        sign = "+" if self.sign == POSITIVE else "-"
        exp = "inf" if self.exp == NEVER else self.exp
        return f"Tuple({sign}{list(self.values)!r} ts={self.ts} exp={exp})"


_set_values, _set_ts, _set_exp, _set_sign = (
    Tuple.__dict__[name].__set__ for name in Tuple.__slots__)


def matches_deletion(stored: Tuple, negative: Tuple) -> bool:
    """Does ``negative`` delete ``stored``?

    Matching considers values and expiration timestamp but *not* the
    generation timestamp: a negative tuple produced by re-deriving a result
    (e.g. a join probe triggered by a constituent's expiration) carries the
    deletion time as its ``ts``, while the stored result carries its original
    generation time.  Two stored tuples with equal values and ``exp`` are
    semantically interchangeable under multiset semantics, so matching on
    ``(values, exp)`` is sound.
    """
    return stored.values == negative.values and stored.exp == negative.exp


def deletion_key(t: Tuple):
    """Buffer key under which negatives find their victims: (values, exp)."""
    return (t.values, t.exp)


def join_values(left: Tuple, right: Tuple) -> tuple:
    """Concatenated values of a join result."""
    return left.values + right.values


def join_tuples(left: Tuple, right: Tuple, now: float) -> Tuple:
    """Build a join result from two constituent tuples.

    Per Section 2.2, the result's ``exp`` is the minimum of the constituents'
    expiration timestamps, and its generation timestamp is the time at which
    it is produced (``now``, i.e. the arrival time of the newer constituent).
    The sign is the product of the constituents' signs, so joining a negative
    tuple against stored positive tuples yields the negative results required
    by the negative tuple approach.
    """
    return Tuple(
        left.values + right.values,
        now,
        left.exp if left.exp < right.exp else right.exp,
        left.sign * right.sign,
    )
