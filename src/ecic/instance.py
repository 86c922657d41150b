"""ICSI problem instances and their derived combinatorial families.

An instance is a quadruple: m receivers, n messages, side-information sets
X_i, and a demand map f with f(i) never inside X_i.  All indices are
0-based internally; the JSON document format and CLI reports are 1-based.

The "confusable" vectors of an instance over GF(q) are those z that vanish
on some receiver's side information while being nonzero at that receiver's
demand; their supports form a family that depends only on the instance,
not on q.  `enumerate_error_vectors` walks them up to scaling, receiver by
receiver, with an odometer over base-q keys.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BudgetExceeded,
    DemandInSideInfo,
    IndexOutOfRange,
    MalformedDocument,
)
from .field_linalg import DEFAULT_ENUM_BUDGET, Field, _Frozen


class IcsiInstance(_Frozen):
    """An index-coding-with-side-information instance.

    demands[i] is the 0-based message index receiver i wants; side_info[i]
    is the 0-based set of messages receiver i already holds.
    """

    __slots__ = _fields = ("num_receivers", "num_messages", "demands", "side_info")

    def __init__(
        self, num_receivers: int, num_messages: int,
        demands: tuple[int, ...], side_info: tuple[frozenset[int], ...],
    ):
        self._set(num_receivers, num_messages, demands, side_info)
        m, n = self.num_receivers, self.num_messages
        if m < 0 or n < 0:
            raise MalformedDocument("negative receiver or message count")
        if len(self.demands) != m or len(self.side_info) != m:
            raise MalformedDocument("demand/side-information arity mismatch")
        for i in range(m):
            d = self.demands[i]
            if not (0 <= d < n):
                raise IndexOutOfRange(f"demand of receiver {i + 1} out of range")
            for x in self.side_info[i]:
                if not (0 <= x < n):
                    raise IndexOutOfRange(f"side information of receiver {i + 1} out of range")
            if d in self.side_info[i]:
                raise DemandInSideInfo(
                    f"receiver {i + 1} demands message {d + 1} it already holds"
                )

    def complement(self, i: int) -> frozenset[int]:
        """Messages receiver i neither holds nor demands."""
        return frozenset(range(self.num_messages)) - self.side_info[i] - {self.demands[i]}


class ReceiverFrame(NamedTuple):
    """One receiver's view: demand, side information, and the rest."""

    index: int
    demand: int
    side_info: frozenset[int]
    complement: frozenset[int]


def receiver_frame(inst: IcsiInstance, i: int) -> ReceiverFrame:
    if not (0 <= i < inst.num_receivers):
        raise IndexOutOfRange(f"receiver index {i} out of range")
    return ReceiverFrame(i, inst.demands[i], inst.side_info[i], inst.complement(i))


# ---------------------------------------------------------------------------
# document format: {"m": int, "n": int, "f": [...], "X": [[...], ...]}, 1-based


def parse_instance(text: str) -> IcsiInstance:
    """Parse the JSON instance document (1-based indices)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("instance document must be a JSON object")
    try:
        m, n = doc["m"], doc["n"]
        f_list, x_list = doc["f"], doc["X"]
    except KeyError as exc:
        raise MalformedDocument(f"missing key {exc}") from exc
    if not (isinstance(m, int) and isinstance(n, int)):
        raise MalformedDocument("m and n must be integers")
    if not (isinstance(f_list, list) and isinstance(x_list, list)):
        raise MalformedDocument("f and X must be arrays")
    if len(f_list) != m or len(x_list) != m:
        raise MalformedDocument("f and X must each have m entries")
    demands = []
    side = []
    for i in range(m):
        fi = f_list[i]
        xi = x_list[i]
        if not isinstance(fi, int):
            raise MalformedDocument("demands must be integers")
        if not isinstance(xi, list) or not all(isinstance(v, int) for v in xi):
            raise MalformedDocument("side-information sets must be integer arrays")
        if len(set(xi)) != len(xi):
            raise MalformedDocument(f"duplicate side-information entry for receiver {i + 1}")
        if not (1 <= fi <= n):
            raise IndexOutOfRange(f"demand of receiver {i + 1} out of range")
        for v in xi:
            if not (1 <= v <= n):
                raise IndexOutOfRange(f"side information of receiver {i + 1} out of range")
        demands.append(fi - 1)
        side.append(frozenset(v - 1 for v in xi))
    return IcsiInstance(m, n, tuple(demands), tuple(side))


def instance_to_doc(inst: IcsiInstance) -> dict:
    """The JSON-ready 1-based document for an instance."""
    return {
        "m": inst.num_receivers,
        "n": inst.num_messages,
        "f": [d + 1 for d in inst.demands],
        "X": [sorted(x + 1 for x in xs) for xs in inst.side_info],
    }


# ---------------------------------------------------------------------------
# built-in instances


def example1() -> IcsiInstance:
    """Three receivers, each holding the two messages it does not demand."""
    return IcsiInstance(
        3, 3, (0, 1, 2),
        (frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1})),
    )


def pentagon() -> IcsiInstance:
    """Five receivers on a 5-cycle: each holds its two cycle neighbours."""
    side = [{1, 4}, {0, 2}, {1, 3}, {2, 4}, {0, 3}]
    return IcsiInstance(5, 5, tuple(range(5)), tuple(frozenset(s) for s in side))


def odd_cycle_complement(ell: int) -> IcsiInstance:
    """n = 2*ell + 1 receivers; receiver i holds everything except its cycle
    neighbours and itself (side-information graph = complement of the cycle)."""
    if ell < 2:
        raise MalformedDocument("odd-cycle-complement needs ell >= 2")
    n = 2 * ell + 1
    side = []
    for i in range(n):
        excluded = {(i - 1) % n, i, (i + 1) % n}
        side.append(frozenset(set(range(n)) - excluded))
    return IcsiInstance(n, n, tuple(range(n)), tuple(side))


def no_side_info(n: int) -> IcsiInstance:
    """n receivers, one demand each, no side information at all."""
    if n < 0:
        raise MalformedDocument("negative message count")
    return IcsiInstance(n, n, tuple(range(n)), tuple(frozenset() for _ in range(n)))


def builtin_instance(name: str) -> IcsiInstance:
    """Resolve a built-in instance name, e.g. 'pentagon' or
    'odd-cycle-complement:3'."""
    if name == "pentagon":
        return pentagon()
    if name == "example1":
        return example1()
    if name.startswith("odd-cycle-complement:"):
        return odd_cycle_complement(_int_suffix(name))
    if name.startswith("no-side-info:"):
        return no_side_info(_int_suffix(name))
    raise MalformedDocument(f"unknown built-in instance {name!r}")


def _int_suffix(name: str) -> int:
    try:
        return int(name.split(":", 1)[1])
    except ValueError as exc:
        raise MalformedDocument(f"bad parameter in {name!r}") from exc


# ---------------------------------------------------------------------------
# automorphisms


def automorphisms(inst: IcsiInstance) -> tuple[list[tuple[int, ...]], int]:
    """Generators and order of the instance's automorphism group: the
    message permutations p (message j -> p[j]) that map the multiset of
    receivers (demand, side information) onto itself.

    Backtracking along the stabilizer chain, deepest level first: for each
    message i and each j outside the orbit of i found so far, one
    automorphism fixing 0..i-1 and sending i to j is searched for.  The
    ones found generate the group, whose order is the product of the orbit
    lengths.
    """
    n = inst.num_messages
    receivers = list(zip(inst.demands, inst.side_info))

    def profile(j: int) -> tuple:
        return (
            sorted(len(xs) for f, xs in receivers if f == j),
            sorted(len(xs) for f, xs in receivers if j in xs),
        )

    profiles = [profile(j) for j in range(n)]

    def consistent(p: list[int]) -> bool:
        # the receivers restricted to the assigned messages must map onto
        # the receivers restricted to their images
        done, image = len(p), frozenset(p)
        have = Counter(
            (p[f] if f < done else -1, frozenset(p[x] for x in xs if x < done))
            for f, xs in receivers
        )
        want = Counter((f if f in image else -1, xs & image) for f, xs in receivers)
        return have == want

    def extend(p: list[int]) -> tuple[int, ...] | None:
        if len(p) == n:
            return tuple(p)
        a = len(p)
        for b in range(n):
            if b in p or profiles[b] != profiles[a]:
                continue
            p.append(b)
            if consistent(p):
                found = extend(p)
                if found is not None:
                    return found
            p.pop()
        return None

    gens: list[tuple[int, ...]] = []
    order = 1
    for i in range(n - 1, -1, -1):
        orbit = {i}
        for j in range(i + 1, n):
            if j in orbit or profiles[j] != profiles[i]:
                continue
            p = list(range(i)) + [j]
            g = extend(p) if consistent(p) else None
            if g is None:
                continue
            gens.append(g)
            frontier = list(orbit)
            while frontier:  # close the orbit of i under every generator so far
                x = frontier.pop()
                for h in gens:
                    if h[x] not in orbit:
                        orbit.add(h[x])
                        frontier.append(h[x])
        order *= len(orbit)
    return gens, order


# ---------------------------------------------------------------------------
# support family and confusable-vector enumeration


def in_support_family(inst: IcsiInstance, K: Iterable[int]) -> bool:
    """Whether nonempty K in [n] is the support of some confusable vector.

    Equivalent predicate: some receiver demands a message in K and holds
    nothing in K.  Independent of the field size.
    """
    kset = frozenset(K)
    if not kset:
        raise MalformedDocument("support family is over nonempty sets only")
    for v in kset:
        if not (0 <= v < inst.num_messages):
            raise IndexOutOfRange(f"message index {v} out of range")
    for i in range(inst.num_receivers):
        if inst.demands[i] in kset and not (inst.side_info[i] & kset):
            return True
    return False


def _odometer(q: int, n: int, positions: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """One receiver's confusable vectors over GF(q) as odometer steps.
    Digit t is the entry at positions[t] (the demand's runs over 1..q-1),
    the last digit fastest.  Started at digit 0 = 0 and the rest at q-1,
    every step raises one digit t from c to c+1 and wraps the later ones
    from q-1 to 0; it yields (t, c, key), key being the vector as a base-q
    integer (entry 0 most significant)."""
    k = len(positions)
    place = [q ** (n - 1 - pos) for pos in positions]
    carry = [place[t] - (q - 1) * sum(place[t + 1 :]) for t in range(k)]
    key = (q - 1) * sum(place[1:])
    digits, t = [0] * k, 0
    while True:
        c = digits[t]
        digits[t] = c + 1
        key += carry[t]
        yield t, c, key
        t = k - 1
        while t and digits[t] == q - 1:
            digits[t] = 0
            t -= 1
        if digits[t] == q - 1:
            return


def enumerate_error_vectors(
    inst: IcsiInstance, field: Field, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[tuple[tuple[int, ...], Iterator[tuple[int, int, int]]]]:
    """The vectors over GF(q) that some receiver can confuse with zero --
    nonzero at its demand, zero across its side information, arbitrary
    elsewhere -- walked up to scaling.  Per receiver j, its positions
    (demand, then the sorted complement) and the `_odometer` steps that
    keep the demand entry at 1.  A position is dropped where an earlier
    receiver i with side_i inside side_j demands it (every vector nonzero
    there is confusable for i), and j is skipped when such an i demands
    what j does.  So every confusable vector is a scaling of one walked no
    later in receiver order.  The sum over receivers of
    (q-1) * q^|complement| counts the confusable vectors with multiplicity,
    and BudgetExceeded is raised up front, before any step, when it exceeds
    `budget`."""
    q, n = field.q, inst.num_messages
    total = sum((q - 1) * q ** len(inst.complement(i)) for i in range(inst.num_receivers))
    if total > budget:
        raise BudgetExceeded(f"receivers contribute {total} vectors, over budget {budget}")
    walks = []
    for j in range(inst.num_receivers):
        side = inst.side_info[j]
        earlier = {inst.demands[i] for i in range(j) if inst.side_info[i] <= side}
        if inst.demands[j] not in earlier:
            walks.append((inst.demands[j], *sorted(inst.complement(j) - earlier)))
    return (
        (positions, itertools.islice(_odometer(q, n, positions), q ** (len(positions) - 1)))
        for positions in walks
    )
