"""Independent reference computations used only by the tests.

These deliberately avoid the library's abacus machinery: cores are found by
repeated removal moves on the raw part lists, and counts come from direct
recursion or from the coefficients of generating functions.
"""

from barblocks.partitions import BarPartition, Partition


def bar_core_by_removal(lam: BarPartition, p: int) -> BarPartition:
    """p-bar core via greedy removal: subtract p from a part (keeping parts
    distinct, dropping zeros) or delete two parts summing to p."""
    parts = list(lam.parts)
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(parts):
            if a >= p and (a - p == 0 or a - p not in parts):
                new = parts[:i] + parts[i + 1 :]
                if a - p:
                    new.append(a - p)
                parts = sorted(new, reverse=True)
                changed = True
                break
        if changed:
            continue
        for i, a in enumerate(parts):
            for j in range(i + 1, len(parts)):
                if a + parts[j] == p:
                    parts = [x for k, x in enumerate(parts) if k not in (i, j)]
                    changed = True
                    break
            if changed:
                break
    return BarPartition(parts)


def p_core_by_hook_removal(lam: Partition, p: int) -> Partition:
    """Classical p-core via beta-numbers: slide beads down by p while possible."""
    length = lam.length
    beta = {lam.parts[i] + length - 1 - i for i in range(length)}
    changed = True
    while changed:
        changed = False
        for b in sorted(beta, reverse=True):
            if b >= p and b - p not in beta:
                beta.remove(b)
                beta.add(b - p)
                changed = True
                break
    ordered = sorted(beta, reverse=True)
    parts = [b - (length - 1 - i) for i, b in enumerate(ordered)]
    return Partition([x for x in parts if x > 0])


def count_odd_part_partitions(n: int) -> int:
    """Number of partitions of n into odd parts, by direct recursion."""
    cache = {}

    def rec(remaining, max_part):
        if remaining == 0:
            return 1
        key = (remaining, max_part)
        if key in cache:
            return cache[key]
        total = 0
        first = min(remaining, max_part)
        if first % 2 == 0:
            first -= 1
        for part in range(first, 0, -2):
            total += rec(remaining - part, part)
        cache[key] = total
        return total

    return rec(n, n)


def multipartition_count(t: int, a: int) -> int:
    """k(t, a): the number of t-tuples of partitions of total size a, the
    coefficient of x**a in prod_k (1 - x**k)**(-t)."""
    ordinary = [1] + [0] * a  # partition numbers 0..a, one part size at a time
    for k in range(1, a + 1):
        for m in range(k, a + 1):
            ordinary[m] += ordinary[m - k]
    tuples = [1] + [0] * a
    for _ in range(t):
        tuples = [sum(tuples[j] * ordinary[m - j] for j in range(m + 1)) for m in range(a + 1)]
    return tuples[a]


def bar_multipartition_count(t: int, a: int) -> int:
    """kbar(t, a) = sum_j q(j) k((t-1)/2, a-j), for odd t: one strict
    partition and (t-1)/2 ordinary ones, of total size a.  q(j), the strict
    partitions of j, is counted as the partitions of j into odd parts (Euler)."""
    half = (t - 1) // 2
    return sum(
        count_odd_part_partitions(j) * multipartition_count(half, a - j) for j in range(a + 1)
    )


def difference_exponents(n: int, k: int) -> tuple[int, int]:
    """(two_exp, i_exp) of the difference character value of a strict
    partition of n into k parts: sqrt(2) * i**((n-k+1)/2) * sqrt(prod parts)
    when n - k is odd, i**((n-k)/2) * sqrt(prod parts) when it is even."""
    if (n - k) % 2:
        return 1, (n - k + 1) // 2
    return 0, (n - k) // 2


def diagonal_hooks(lam: Partition) -> list[int]:
    """The hook lengths on the main diagonal of lam, read off the rows and
    columns of its diagram."""
    parts = list(lam.parts)
    hooks = []
    for i, row in enumerate(parts):
        if row <= i:
            break
        column = sum(1 for part in parts if part > i)
        hooks.append((row - i) + (column - i) - 1)
    return hooks


def hook_lengths(lam: Partition) -> list[int]:
    """Every hook length of lam, row by row, read off the rows and columns of
    its diagram: box (i, j) has the arm row_i - j - 1 and the leg column_j -
    i - 1, where column j is as long as the number of parts above j."""
    parts = list(lam.parts)
    return [
        (row - j) + (sum(1 for part in parts if part > j) - i) - 1
        for i, row in enumerate(parts)
        for j in range(row)
    ]


def push_down(above: frozenset, below: frozenset) -> tuple[frozenset, frozenset]:
    """One push down of the fenced runner with black slots above and white
    slots below: every bead moves one slot down, and the bead on above slot 0
    crosses the fence to below slot 0, keeping its color."""
    crossing = {0} if 0 not in above else set()
    return frozenset(x - 1 for x in above if x >= 1), frozenset({x + 1 for x in below} | crossing)


def pull_up(above: frozenset, below: frozenset) -> tuple[frozenset, frozenset]:
    """One pull up, the inverse of push_down: every bead moves one slot up,
    and the bead on below slot 0 crosses the fence to above slot 0."""
    crossing = {0} if 0 not in below else set()
    return frozenset({x + 1 for x in above} | crossing), frozenset(x - 1 for x in below if x >= 1)
