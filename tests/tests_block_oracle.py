"""Independent oracles: an exhaustive block search for small orbits and a
plain breadth-first orbit.

Kept separate from the library on purpose: a fresh union-find, minimal
blocks for every point of the carrier (no stabilizer-orbit shortcut), a
fixpoint join closure, and an orbit that does not go through
`permcore.merge`.
"""


def bfs_orbit(gens, x):
    """The orbit of x by a plain breadth-first search."""
    seen = {x}
    queue = [x]
    for y in queue:
        for g in gens:
            z = int(g[y])
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return seen


def _minimal(H, beta, pts):
    parent = {x: x for x in range(H.degree)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(beta, p) for p in pts if p != beta]
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for g in H.gens:
            work.append((int(g[a]), int(g[b])))
    root = find(beta)
    return frozenset(x for x in range(H.degree) if find(x) == root)


def exhaustive_blocks(H, beta, carrier):
    n = len(carrier)
    minis = {_minimal(H, beta, [g]) for g in carrier if g != beta}
    minis = {b for b in minis if 1 < len(b) < n}
    blocks = set(minis)
    changed = True
    while changed:
        changed = False
        for b1 in list(blocks):
            for b2 in list(blocks):
                grown = _minimal(H, beta, b1 | b2)
                if 1 < len(grown) < n and grown not in blocks:
                    blocks.add(grown)
                    changed = True
    return blocks
