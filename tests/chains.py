"""Cyclic chains of banana pieces, shared by the equivalence and
flow-graph tests."""

from spineflow import ENTRANCE, EXIT, GluingMatrix, ModelFlowSpec, ModelPiece


def banana_chain(banana_spec, cs):
    """Cyclic chain of len(cs) copies of the banana piece: the two exits
    of piece i glue to the two entrances of piece i + 1, pair n with
    matrix [[1, 0], [cs[n], 1]]."""
    piece = banana_spec.pieces[0]
    spine = piece.spine
    k = len(cs) // 2
    ids = [f"C{i}" for i in range(k)]
    pairing = [((ids[i], out), (ids[(i + 1) % k], into))
               for i in range(k)
               for out, into in zip(spine.boundary_ids(EXIT),
                                    spine.boundary_ids(ENTRANCE))]
    return ModelFlowSpec(
        tuple(ModelPiece(pid, spine, dict(piece.dehn)) for pid in ids),
        tuple(pairing), tuple(GluingMatrix(1, 0, c, 1) for c in cs),
        {pid: (0, 1) for pid in ids})


def renamed_chain(chain):
    """``chain`` with its piece Ci renamed C(i + 1 mod k) everywhere:
    the same spines, pairs and matrices under new ids."""
    k = len(chain.pieces)
    return chain_with_ids(chain, [f"C{(i + 1) % k}" for i in range(k)])


def chain_with_ids(chain, ids):
    """``chain`` with its piece Ci renamed ``ids[i]`` everywhere: the
    same spines, pairs and matrices under new ids."""
    new_id = {f"C{i}": pid for i, pid in enumerate(ids)}
    return ModelFlowSpec(
        tuple(ModelPiece(new_id[p.piece_id], p.spine, p.dehn) for p in chain.pieces),
        tuple(((new_id[a], f), (new_id[b], g)) for (a, f), (b, g) in chain.pairing),
        chain.matrices, {new_id[p]: s for p, s in chain.orientation_seed.items()})


def relabeled_chain(chain):
    """``chain`` with each piece on a relabeled spine of its own: the
    darts of piece i are shifted cyclically by i + 1 places in sorted
    order, and its Dehn keys, the faces of its pairs and its seed
    vertex move with them.  Piece ids, pair order and matrices stay."""
    pieces, face_of, seeds = [], {}, {}
    for i, piece in enumerate(chain.pieces):
        graph = piece.spine.graph
        darts = graph.darts
        mapping = {d: darts[(n + i + 1) % len(darts)] for n, d in enumerate(darts)}
        spine = piece.spine.relabeled(mapping)
        face_of[piece.piece_id] = {
            f: spine.graph.face_of()[mapping[cycle[0]]]
            for f, cycle in enumerate(graph.boundary_cycles())}
        vertex = {v: spine.graph.vertex_of[mapping[cycle[0]]]
                  for v, cycle in enumerate(graph.vertices)}
        pieces.append(ModelPiece(piece.piece_id, spine, dict(sorted(
            (vertex[v], c) for v, c in piece.dehn.items()))))
        v, sign = chain.orientation_seed[piece.piece_id]
        seeds[piece.piece_id] = (vertex[v], sign)
    pairing = tuple(((a, face_of[a][f]), (b, face_of[b][g]))
                    for (a, f), (b, g) in chain.pairing)
    return ModelFlowSpec(tuple(pieces), pairing, chain.matrices, seeds)
