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
    new_id = {f"C{i}": f"C{(i + 1) % k}" for i in range(k)}
    return ModelFlowSpec(
        tuple(ModelPiece(new_id[p.piece_id], p.spine, p.dehn) for p in chain.pieces),
        tuple(((new_id[a], f), (new_id[b], g)) for (a, f), (b, g) in chain.pairing),
        chain.matrices, {new_id[p]: s for p, s in chain.orientation_seed.items()})
