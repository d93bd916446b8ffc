"""The oracle's row transfer vertex by vertex, the reference for the kernel.

``oracle._row`` holds the states of a row in two dicts, one per state of
the horizontal edge, and writes each output once from a pair of inputs.
``vertex_row`` keeps one dict keyed by v << 1 | h and adds each vertex's
contribution to its output key as it comes, case by vertex type.
"""


def vertex_row(a, b, c2, states, width, mark=None, frozen=None):
    """Carry {v_in: weight} across one row, vertex by vertex from the right.

    Before column k a key is v << 1 | h: v has the bottom states of the
    columns crossed and the top states of the rest, h is the edge right of
    column k.  mark: the edge left of that column points left.  frozen: the
    vertices at columns > frozen are of type 2.
    """
    cur = {v << 1: w for v, w in states.items()}
    for k in range(width):
        bit, ak, bk = 2 << k, a[k], b[k]
        if frozen is not None and k >= frozen:
            cur = {key: w for key, w in cur.items() if key & 1 and key & bit}
        nxt = {}
        get = nxt.get
        for key, w in cur.items():
            if (key >> k + 1 ^ key) & 1:    # v_top != h: type 3 or 4, or turn as 5 or 6
                turned = key ^ bit ^ 1
                nxt[key] = get(key, 0) + w * bk
                nxt[turned] = get(turned, 0) + (w * c2 if key & 1 else w)
            else:                           # type 1 or 2
                nxt[key] = get(key, 0) + w * ak
        if mark == k + 1:
            nxt = {key: w for key, w in nxt.items() if key & 1}
        cur = nxt
    return {key >> 1: w for key, w in cur.items() if key & 1}
