"""Reference work of the benchmark: fixed pure-Python work that does not use
barblocks.

``run.py`` times this program, in a fresh interpreter, right before and
after every timed process, and scales that process's time by
``REFERENCE_S`` over the mean of the two reference times.  A change to
barblocks cannot change this program's time, so the scaled time follows the
program while the machine's own speed drifts.  Keep the work fixed: changing
it changes every scaled time.

    python3 bench/reference.py
"""


def partitions(n, largest):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def main():
    seen = {}
    for lam in partitions(34, 34):
        key = lam[len(lam) // 2 :]
        seen[key] = seen.get(key, 0) + sum(lam[::2]) % 7
    print(len(seen), sum(seen.values()))


main()
