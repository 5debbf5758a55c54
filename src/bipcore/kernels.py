"""Pure-Python reference kernels.

``is_sum_real`` and ``is_sum_complex`` are the weighted independent-set
recursion the tests check the exact oracle's side-subset sums against;
``ursell_edge_sum`` serves the Ursell reference in ``clusters`` (tests and
``count --dump-clusters``).  ``BACKEND`` names the implementation in
benchmark records.
"""

BACKEND = "python"


def is_sum_real(adj, weights, free):
    """Weighted independent-set sum over the vertices set in ``free``.

    adj[v] is the neighbor bitmask of v, weights[v] its activity.  Returns
    sum over independent subsets S of free of prod(weights[v] for v in S),
    the empty set contributing 1.  Isolated-in-free vertices are folded in
    as (1 + w) factors, so edgeless regions cost linear time.
    """
    if free == 0:
        return 1.0
    low = free & -free
    v = low.bit_length() - 1
    rest = free & (free - 1)
    if adj[v] & rest == 0:
        return (1.0 + weights[v]) * is_sum_real(adj, weights, rest)
    return is_sum_real(adj, weights, rest) + weights[v] * is_sum_real(
        adj, weights, rest & ~adj[v]
    )


def is_sum_complex(adj, weights, free):
    """Complex-activity variant of is_sum_real."""
    if free == 0:
        return 1.0 + 0.0j
    low = free & -free
    v = low.bit_length() - 1
    rest = free & (free - 1)
    if adj[v] & rest == 0:
        return (1.0 + weights[v]) * is_sum_complex(adj, weights, rest)
    return is_sum_complex(adj, weights, rest) + weights[v] * is_sum_complex(
        adj, weights, rest & ~adj[v]
    )


def ursell_edge_sum(n, edges):
    """Sum of (-1)**|A| over edge subsets A that span all n vertices and are
    connected, by direct enumeration.  Returns an exact integer."""
    m = len(edges)
    if n == 1:
        return 1
    if m < n - 1:
        return 0
    total = 0
    need = n - 1
    for amask in range(1, 1 << m):
        if amask.bit_count() < need:
            continue
        parent = list(range(n))
        comps = n
        rem = amask
        while rem:
            low = rem & -rem
            rem ^= low
            u, v = edges[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[u] = v
                comps -= 1
        if comps == 1:
            total += -1 if (amask.bit_count() & 1) else 1
    return total
