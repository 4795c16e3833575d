"""Ranking functions over program states.

A ranking function grades each possible state with a degree of surprise: 0 is
unsurprising, larger is more surprising, infinity is impossible.  This module
provides the three value types everything else is built on (ranks, valuations,
rankings) together with the conditioning operations: plain conditioning,
J-conditioning (revise to believe an event with a given firmness) and
L-conditioning (shift an event's plausibility by a fixed impact, reversibly).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping
from typing import Union

#: Finite ranks live in [0, RANK_LIMIT); anything beyond is an arithmetic error.
RANK_LIMIT = 2**63


class RankArithmeticError(ArithmeticError):
    """A rank operation outside the defined arithmetic table."""


class ConditioningError(ValueError):
    """J-/L-conditioning applied where it is undefined."""


class _Infinity:
    """The infinite rank.  A singleton; compare, add and subtract per the
    rank arithmetic table (min is total, ``INF - finite = INF``, subtracting
    INF from anything is an error, never a silent wrap)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __lt__(self, other):
        if other is self or isinstance(other, int):
            return False
        return NotImplemented

    def __le__(self, other):
        if other is self:
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other):
        if other is self:
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if other is self or isinstance(other, int):
            return True
        return NotImplemented

    def __add__(self, other):
        if other is self or isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise RankArithmeticError("inf - inf is undefined")
        if isinstance(other, int):
            return self
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            raise RankArithmeticError("finite - inf is undefined")
        return NotImplemented


INF = _Infinity()

#: A rank: a natural number below RANK_LIMIT, or INF.
Rank = Union[int, _Infinity]


def as_rank(value) -> Rank:
    """Validate an externally supplied value as a rank."""
    if value is INF:
        return INF
    if not isinstance(value, int):
        raise RankArithmeticError(f"not a rank: {value!r}")
    if value < 0:
        raise RankArithmeticError(f"negative rank: {value}")
    if value >= RANK_LIMIT:
        raise RankArithmeticError(f"rank out of range: {value}")
    return value


_Key = "tuple[str, tuple[int, ...]]"


class Valuation:
    """A program state: a total map from (name, index path) to integers.

    Unbound variables read as 0, and only non-zero bindings are stored, so two
    states differing only in never-assigned variables are equal.  Valuations
    are immutable, hashable and totally ordered (lexicographically on the
    sorted non-zero bindings), which gives every consumer a canonical order.
    """

    __slots__ = ("_items", "_map", "_hash")

    def __init__(self, bindings=()):
        items = []
        pairs = bindings.items() if isinstance(bindings, Mapping) else bindings
        for key, value in pairs:
            if isinstance(key, str):
                key = (key, ())
            else:
                key = (key[0], tuple(key[1]))
            if value != 0:
                items.append((key, value))
        items.sort()
        self._items = tuple(items)
        self._map = dict(items)
        self._hash = hash(self._items)

    @classmethod
    def _from_sorted(cls, items: tuple) -> "Valuation":
        v = cls.__new__(cls)
        v._items = items
        v._map = dict(items)
        v._hash = hash(items)
        return v

    @property
    def items(self) -> tuple:
        """Canonical sorted tuple of ((name, indices), value) pairs."""
        return self._items

    def get(self, name: str, indices: tuple = ()) -> int:
        return self._map.get((name, indices), 0)

    def assign(self, name: str, indices: tuple, value: int) -> "Valuation":
        """Return a copy with one binding changed."""
        key = (name, indices)
        keys = [item[0] for item in self._items]
        i = bisect_left(keys, key)
        bound = i < len(self._items) and self._items[i][0] == key
        if value == 0:
            if not bound:
                return self
            items = self._items[:i] + self._items[i + 1 :]
        elif bound:
            if self._items[i][1] == value:
                return self
            items = self._items[:i] + ((key, value),) + self._items[i + 1 :]
        else:
            items = self._items[:i] + ((key, value),) + self._items[i:]
        return Valuation._from_sorted(items)

    def restrict(self, names: Iterable[str]) -> "Valuation":
        """Project onto the given variable names (all index paths kept)."""
        wanted = frozenset(names)
        return Valuation._from_sorted(
            tuple(item for item in self._items if item[0][0] in wanted)
        )

    def variables(self) -> frozenset:
        return frozenset(key[0] for key, _ in self._items)

    def __eq__(self, other):
        return isinstance(other, Valuation) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._items < other._items

    def __le__(self, other):
        return self._items <= other._items

    def __gt__(self, other):
        return self._items > other._items

    def __ge__(self, other):
        return self._items >= other._items

    def __repr__(self):
        return f"Valuation({format_bindings(self)})"


def format_binding(key) -> str:
    name, indices = key
    return name + "".join(f"[{i}]" for i in indices)


def format_bindings(valuation: Valuation) -> str:
    return ", ".join(f"{format_binding(k)}={v}" for k, v in valuation.items)


#: An event: a predicate over valuations, given either intensionally as a
#: callable or extensionally as a collection of valuations.
Event = Union[Callable[[Valuation], bool], frozenset, set, tuple, list]


def event_holds(event: Event, valuation: Valuation) -> bool:
    if callable(event):
        return bool(event(valuation))
    return valuation in event


class Ranking:
    """A normalized ranking function with finite support.

    Stores only finite-rank entries (absence means infinitely surprising);
    non-empty rankings always have minimum rank exactly 0.  The empty ranking
    is the failure ranking, which assigns infinity everywhere: the result of
    observing something impossible.  Immutable.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Valuation, int]):
        for rank in entries.values():
            if rank is INF or not isinstance(rank, int):
                raise ValueError(f"ranking entries must be finite ranks: {rank!r}")
            if rank < 0 or rank >= RANK_LIMIT:
                raise ValueError(f"rank out of range: {rank}")
        if entries and min(entries.values()) != 0:
            raise ValueError("ranking is not normalized: minimum rank is not 0")
        self._entries = dict(sorted(entries.items()))

    @property
    def is_failure(self) -> bool:
        return not self._entries

    def support(self):
        """Valuations with finite rank, in canonical order."""
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    def as_dict(self) -> dict:
        return dict(self._entries)

    def rank(self, valuation: Valuation) -> Rank:
        return self._entries.get(valuation, INF)

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        return isinstance(other, Ranking) and self._entries == other._entries

    def __repr__(self):
        if self.is_failure:
            return "Ranking.FAILURE"
        inner = ", ".join(f"{{{format_bindings(v)}}}: {r}" for v, r in self.items())
        return f"Ranking({inner})"


#: The failure ranking: infinity everywhere.
FAILURE = Ranking({})


def normalize(raw: Mapping[Valuation, Rank]) -> Ranking:
    """Shift a raw rank assignment down so its minimum is 0.

    Entries at INF are dropped; if nothing finite remains the result is the
    failure ranking (the only ranking with empty support).
    """
    finite = {v: r for v, r in raw.items() if r is not INF}
    if not finite:
        return FAILURE
    least = min(finite.values())
    return Ranking({v: r - least for v, r in finite.items()})


def rank_of(kappa: Ranking, event: Event) -> Rank:
    """The rank of an event: the least rank of any satisfying valuation in
    the support, or INF if none satisfies it (in particular for failure)."""
    least: Rank = INF
    for valuation, rank in kappa.items():
        if rank < least and event_holds(event, valuation):
            least = rank
    return least


def condition(kappa: Ranking, event: Event) -> Ranking:
    """Condition on an event: its ranks shift down to 0, everything else
    becomes impossible.  Conditioning on an impossible event fails."""
    shift = rank_of(kappa, event)
    if shift is INF:
        return FAILURE
    return Ranking(
        {v: r - shift for v, r in kappa.items() if event_holds(event, v)}
    )


def firmness(kappa: Ranking, event: Event) -> Rank:
    """How firmly the event is believed: the rank of its complement."""
    least: Rank = INF
    for valuation, rank in kappa.items():
        if rank < least and not event_holds(event, valuation):
            least = rank
    return least


def _check_two_sided(kappa: Ranking, event: Event, strength: Rank, what: str):
    if strength is INF:
        raise ConditioningError(f"{what} undefined: strength must be finite")
    as_rank(strength)
    if rank_of(kappa, event) is INF or firmness(kappa, event) is INF:
        raise ConditioningError(
            f"{what} undefined: the event and its complement must both have finite rank"
        )


def j_condition(kappa: Ranking, event: Event, strength: Rank) -> Ranking:
    """Revise so the event is believed with firmness exactly ``strength``.

    Satisfying states are conditioned on the event, violating states on its
    complement shifted up by the strength; the event's prior rank and its
    complement's prior rank must both be finite.
    """
    _check_two_sided(kappa, event, strength, "J-conditioning")
    in_rank = rank_of(kappa, event)
    out_rank = firmness(kappa, event)
    entries = {}
    for valuation, rank in kappa.items():
        if event_holds(event, valuation):
            entries[valuation] = rank - in_rank
        else:
            entries[valuation] = rank - out_rank + strength
    return Ranking(entries)


def l_condition(kappa: Ranking, event: Event, strength: Rank) -> Ranking:
    """Improve the event by ``strength`` ranks relative to its complement.

    Unlike J-conditioning the shift is relative, which makes the operation
    reversible (condition on the complement with the same strength to undo)
    and commutative across different events.
    """
    _check_two_sided(kappa, event, strength, "L-conditioning")
    in_rank = rank_of(kappa, event)
    down = min(in_rank, strength)
    entries = {}
    for valuation, rank in kappa.items():
        if event_holds(event, valuation):
            entries[valuation] = rank - down
        else:
            entries[valuation] = rank + strength - down
    return Ranking(entries)


def min_merge(first: Mapping[Valuation, Rank], second: Mapping[Valuation, Rank]) -> dict:
    """Pointwise minimum of two raw rank maps; support is the union."""
    merged = dict(first)
    for valuation, rank in second.items():
        current = merged.get(valuation, INF)
        if rank < current:
            merged[valuation] = rank
    return merged


def marginalize(kappa: Ranking, names: Iterable[str]) -> Ranking:
    """Project a ranking onto a set of variable names; states that agree on
    the projection collapse to their least rank."""
    wanted = frozenset(names)
    projected: dict[Valuation, int] = {}
    for valuation, rank in kappa.items():
        small = valuation.restrict(wanted)
        current = projected.get(small)
        if current is None or rank < current:
            projected[small] = rank
    return normalize(projected)
