"""Maximum-weight matching in general graphs (primal-dual blossom method).

Classic O(n^3) formulation: maintain vertex/blossom dual variables, grow
alternating trees from free vertices, shrink odd cycles (blossoms) on
zero-slack edges, expand T-blossoms whose dual reaches zero, and augment
along alternating paths.  The matching has maximum cardinality first,
maximum weight among those second, which is how minimum-weight *perfect*
matching is recovered: maximizing sum((W - w_e)) at fixed cardinality
minimizes sum(w_e).

Works with int or float weights; callers who need reproducible behaviour
on near-ties should round weights beforehand.

``matcher.mwpm`` calls ``min_weight_perfect_matching`` on its dense event
problem when ``matcher.lightest_unique_pairing`` does not settle it: on ties
in the lightest pairing, above ``matcher.SUBSET_MAX_VERTICES`` vertices, and
for pruned problems.  The tests hold both functions to brute force.
"""

from __future__ import annotations


def max_weight_matching(edges: list[tuple[int, int, float]]) -> list[int]:
    """Return mate[v] = vertex matched to v, or -1, of a maximum-cardinality
    matching of maximum total weight.

    ``edges`` lists undirected edges (i, j, weight) with i != j and at most
    one edge per vertex pair; vertices are 0..n-1 with n inferred.
    """
    if not edges:
        return []

    nedge = len(edges)
    nvertex = 0
    for (i, j, _w) in edges:
        if i < 0 or j < 0 or i == j:
            raise ValueError(f"invalid edge ({i}, {j})")
        if i >= nvertex:
            nvertex = i + 1
        if j >= nvertex:
            nvertex = j + 1

    maxweight = max(max(0, w) for (_i, _j, w) in edges)

    # flat parallel edge arrays keep the inner slack computation cheap
    edge_i = [e[0] for e in edges]
    edge_j = [e[1] for e in edges]
    edge_w2 = [2 * e[2] for e in edges]

    # endpoint[p] = vertex at endpoint p; edge k owns endpoints 2k, 2k+1
    endpoint = [edges[p // 2][p % 2] for p in range(2 * nedge)]
    neighbend: list[list[int]] = [[] for _ in range(nvertex)]
    for k, (i, j, _w) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

    mate = [-1] * nvertex                      # remote endpoint or -1
    label = [0] * (2 * nvertex)                # 0 free, 1 S, 2 T
    labelend = [-1] * (2 * nvertex)
    inblossom = list(range(nvertex))
    blossomparent = [-1] * (2 * nvertex)
    blossomchilds: list[list[int] | None] = [None] * (2 * nvertex)
    blossombase = list(range(nvertex)) + [-1] * nvertex
    blossomendps: list[list[int] | None] = [None] * (2 * nvertex)
    bestedge = [-1] * (2 * nvertex)
    blossombestedges: list[list[int] | None] = [None] * (2 * nvertex)
    unusedblossoms = list(range(nvertex, 2 * nvertex))
    dualvar = [maxweight] * nvertex + [0] * nvertex
    allowedge = [False] * nedge
    queue: list[int] = []

    def slack(k: int) -> float:
        return dualvar[edge_i[k]] + dualvar[edge_j[k]] - edge_w2[k]

    def blossom_leaves(b: int):
        if b < nvertex:
            yield b
        else:
            for t in blossomchilds[b]:
                if t < nvertex:
                    yield t
                else:
                    yield from blossom_leaves(t)

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            queue.extend(blossom_leaves(b))
        elif t == 2:
            base = blossombase[b]
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w to find a common ancestor or -1."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = label[b] | 4
            if mate[blossombase[b]] == -1:
                v = -1
            else:
                v = endpoint[mate[blossombase[b]]]
                b = inblossom[v]
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = label[b] & ~4
        return base

    def add_blossom(base: int, k: int) -> None:
        (v, w, _wt) = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path: list[int] = []
        endps: list[int] = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        blossomchilds[b] = path
        blossomendps[b] = endps
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        bestedgeto = [-1] * (2 * nvertex)
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [
                    [p // 2 for p in neighbend[leaf]] for leaf in blossom_leaves(bv)
                ]
            else:
                nblists = [blossombestedges[bv]]
            for nblist in nblists:
                for kk in nblist:
                    (i, j, _wt2) = edges[kk]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (
                        bj != b
                        and label[bj] == 1
                        and (
                            bestedgeto[bj] == -1
                            or slack(kk) < slack(bestedgeto[bj])
                        )
                    ):
                        bestedgeto[bj] = kk
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = [kk for kk in bestedgeto if kk != -1]
        bestedge[b] = -1
        for kk in blossombestedges[b]:
            if bestedge[b] == -1 or slack(kk) < slack(bestedge[b]):
                bestedge[b] = kk

    def expand_blossom(b: int, endstage: bool) -> None:
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[
                    endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]
                ] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == 1:
                    j += jstep
                    continue
                for v in blossom_leaves(bv):
                    if label[v] != 0:
                        break
                if label[v] != 0:
                    label[v] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(v, 2, labelend[v])
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvertex:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= nvertex:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= nvertex:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]

    def augment_matching(k: int) -> None:
        (v, w, _wt) = edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    for _stage in range(nvertex):
        label[:] = [0] * (2 * nvertex)
        bestedge[:] = [-1] * (2 * nvertex)
        for b in range(nvertex, 2 * nvertex):
            blossombestedges[b] = None
        allowedge[:] = [False] * nedge
        queue[:] = []
        for v in range(nvertex):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = False
        while True:
            # hot loop: locals bound and slack inlined
            _inblossom = inblossom
            _label = label
            _endpoint = endpoint
            _allowedge = allowedge
            _dualvar = dualvar
            _ei, _ej, _w2 = edge_i, edge_j, edge_w2
            while queue and not augmented:
                v = queue.pop()
                for p in neighbend[v]:
                    k = p >> 1
                    w = _endpoint[p]
                    bw_ = _inblossom[w]
                    if _inblossom[v] == bw_:
                        continue
                    if not _allowedge[k]:
                        kslack = _dualvar[_ei[k]] + _dualvar[_ej[k]] - _w2[k]
                        if kslack <= 0:
                            _allowedge[k] = True
                    if _allowedge[k]:
                        if _label[bw_] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif _label[bw_] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif _label[w] == 0:
                            _label[w] = 2
                            labelend[w] = p ^ 1
                    elif _label[bw_] == 1:
                        b = _inblossom[v]
                        if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                            bestedge[b] = k
                    elif _label[w] == 0:
                        if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                            bestedge[w] = k

            if augmented:
                break

            deltatype = -1
            delta = deltaedge = deltablossom = None
            for v in range(nvertex):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            for b in range(2 * nvertex):
                if (
                    blossomparent[b] == -1
                    and label[b] == 1
                    and bestedge[b] != -1
                ):
                    kslack = slack(bestedge[b])
                    d = kslack / 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            for b in range(nvertex, 2 * nvertex):
                if (
                    blossombase[b] >= 0
                    and blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or dualvar[b] < delta)
                ):
                    delta = dualvar[b]
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                # no further improvement; prepare clean termination
                deltatype = 1
                delta = max(0, min(dualvar[:nvertex]))

            for v in range(nvertex):
                lb = label[inblossom[v]]
                if lb == 1:
                    dualvar[v] -= delta
                elif lb == 2:
                    dualvar[v] += delta
            for b in range(nvertex, 2 * nvertex):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                allowedge[deltaedge] = True
                (i, j, _wt) = edges[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                (i, _j, _wt) = edges[deltaedge]
                queue.append(i)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        for b in range(nvertex, 2 * nvertex):
            if (
                blossomparent[b] == -1
                and blossombase[b] >= 0
                and label[b] == 1
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    result = [-1] * nvertex
    for v in range(nvertex):
        if mate[v] >= 0:
            result[v] = endpoint[mate[v]]
    return result


def min_weight_perfect_matching(
    n: int, edges: list[tuple[int, int, float]]
) -> list[tuple[int, int]]:
    """Minimum-weight perfect matching on an even-order graph.

    Returns vertex pairs (i, j), i < j, ascending by i.  Raises ValueError
    for an edge endpoint outside 0..n-1, and RuntimeError when the graph
    admits no perfect matching (a complete graph on an even vertex count
    always admits one).
    """
    for (i, j, _w) in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
    if n == 0:
        return []
    if n % 2:
        raise ValueError("perfect matching needs an even number of vertices")
    shift = max((w for (_i, _j, w) in edges), default=0) + 1
    flipped = [(i, j, shift - w) for (i, j, w) in edges]
    mate = max_weight_matching(flipped)
    mate += [-1] * (n - len(mate))  # vertices past the last edge's are unmatched
    pairs = []
    for v in range(n):
        w = mate[v]
        if w == -1:
            raise RuntimeError("graph admits no perfect matching")
        if v < w:
            pairs.append((v, w))
    return pairs
