"""One-line permutation words on {1, ..., n} and their statistics.

Permutations are plain tuples of the letters 1..n; the empty tuple is the
empty permutation.  Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def as_perm(word) -> Perm:
    """Coerce to a tuple and verify it is a permutation of {1..n}.

    >>> as_perm([2, 1, 3])
    (2, 1, 3)
    """
    p = tuple(word)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of {{1..{len(p)}}}: {word!r}")
    return p


def descents(p: Perm) -> int:
    """Number of positions i with p_i > p_(i+1)."""
    return sum(a > b for a, b in zip(p, p[1:]))


def ascents(p: Perm) -> int:
    """Number of positions i with p_i < p_(i+1)."""
    return sum(a < b for a, b in zip(p, p[1:]))


def height(p: Perm) -> int:
    """Ascents minus descents."""
    return ascents(p) - descents(p)


def prefix_heights(p: Perm) -> list[int]:
    """Height of every prefix; entry k-1 is the height of p[:k].

    >>> prefix_heights((1, 4, 3, 2, 6, 5))
    [0, 1, 0, -1, 0, -1]
    """
    out = []
    h = 0
    for k, letter in enumerate(p):
        if k:
            h += 1 if letter > p[k - 1] else -1
        out.append(h)
    return out


def is_ballot(p: Perm) -> bool:
    """True when no prefix has more descents than ascents; the empty word is ballot."""
    h = 0
    for k in range(1, len(p)):
        h += 1 if p[k] > p[k - 1] else -1
        if h < 0:
            return False
    return True


def reverse(p: Perm) -> Perm:
    return p[::-1]


def lowest_points(p: Perm) -> tuple[int, int]:
    """First and last position k (1-based) where the prefix height is minimal.

    Splitting at either end of this range leaves two ballot pieces: with l the
    first lowest point, reverse(p[:l-1]) and p[l-1:] are ballot; with l the
    last one, reverse(p[:l]) and p[l:] are ballot.
    """
    if not p:
        raise ValueError("lowest point of the empty permutation is undefined")
    hs = prefix_heights(p)
    m = min(hs)
    return hs.index(m) + 1, len(hs) - hs[::-1].index(m)


def cycle_decompose(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles of the map i -> p_i, fixed points included.

    Each cycle is rotated to start at its largest letter and the cycles are
    sorted by that letter, so the decomposition is canonical.

    >>> cycle_decompose((2, 3, 1))
    [(3, 1, 2)]
    """
    seen = [False] * (len(p) + 1)
    cycles = []
    for start in range(1, len(p) + 1):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i - 1]
        top = cyc.index(max(cyc))
        cycles.append(tuple(cyc[top:] + cyc[:top]))
    cycles.sort()
    return cycles


def cyclic_descents(cycle: tuple[int, ...]) -> int:
    """Descents of a cycle word read cyclically, wrap pair included."""
    k = len(cycle)
    return sum(cycle[i] > cycle[(i + 1) % k] for i in range(k))


def cyclic_ascents(cycle: tuple[int, ...]) -> int:
    """Ascents of a cycle word read cyclically; a fixed point has none."""
    k = len(cycle)
    return sum(cycle[i] < cycle[(i + 1) % k] for i in range(k))


def m_statistic(p: Perm) -> int:
    """Sum over all cycles of min(cyclic descents, cyclic ascents)."""
    return sum(min(cyclic_descents(c), cyclic_ascents(c)) for c in cycle_decompose(p))


def is_odd_order(p: Perm) -> bool:
    """True when every cycle has odd length."""
    return all(len(c) % 2 for c in cycle_decompose(p))


def _check_factor_letters(p: Perm, i: int, j: int) -> None:
    n = len(p)
    if not (1 <= i <= n and 1 <= j <= n) or i == j or i == n or j == n:
        raise ValueError(f"factor letters must be distinct members of {{1..{n - 1}}}, got {(i, j)}")


def has_factor_inj(p: Perm, i: int, j: int) -> bool:
    """True when the three letters i, n, j occur consecutively in p (n = len(p))."""
    _check_factor_letters(p, i, j)
    n = len(p)
    for k in range(1, n - 1):
        if p[k] == n:
            return p[k - 1] == i and p[k + 1] == j
    return False


def has_cyclic_factor_inj(p: Perm, i: int, j: int) -> bool:
    """True when i, n, j occur consecutively in some cycle word read cyclically."""
    _check_factor_letters(p, i, j)
    n = len(p)
    for c in cycle_decompose(p):
        if n in c:
            if len(c) < 3:
                return False
            w = c + c[:2]
            return any(w[k] == i and w[k + 1] == n and w[k + 2] == j for k in range(len(c)))
    return False
