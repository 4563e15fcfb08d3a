"""Independent oracles: an exhaustive block search for small orbits and a
plain breadth-first orbit, plus a reference block lattice.

Kept separate from the library on purpose: a fresh union-find, minimal
blocks for every point of the carrier (no stabilizer-orbit shortcut), a
fixpoint join closure, and an orbit that does not go through
`permcore.merge`.  `join_lattice` is the lattice by point merges, one
`block_join` per block, for orbits too large for the exhaustive search.
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


def join_lattice(H, beta):
    """Every nontrivial block through beta, in all_blocks_through's order:
    the minimal block through beta and each least point of a G_beta-orbit
    on beta's orbit, then the joins of the last layer's blocks with the
    minimal ones, each by H.block_join, until a layer finds no new block."""
    labels = H.stabilizer(beta).orbit_labels()
    orbit = H.orbit(beta)
    roots = sorted({int(labels[x]) for x in orbit} - {beta})
    minimal = {H.block_join(beta, [r]) for r in roots} - {frozenset(orbit)}
    blocks, layer = set(minimal), minimal
    while layer:
        layer = {H.block_join(beta, b1 | b2) for b1 in layer for b2 in minimal
                 if not b2 <= b1} - blocks - {frozenset(orbit)}
        blocks |= layer
    return sorted(blocks, key=lambda b: (len(b), sorted(b)))
