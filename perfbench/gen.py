"""Seeded input generators.

Everything here is plain data built from the piece spines stored in
``data/pieces.json`` and one ``random.Random`` per workload seeded from
the command line, so the same seed gives byte-identical inputs.  No
function calls into ``spineflow``: faces are traced with the oracle
``face_walks``, and every expected answer is known by construction.

Specifications are held in a small internal form (pieces with integer
Dehn keys, pairing as torus tuples, matrices as 4-tuples) and turned
into the JSON format of ``spineflow.model.spec_from_json`` by
``spec_json``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import string

import env

MODES = ("exact", "isotopy", "isotopy-with-twists")
EQUIV_KS = (2, 3, 4, 5, 6)
#: reflection multiplies the search by the mirror isomorphisms; above
#: this k a matrix miss with reflection takes minutes (see NOTES.md)
MAX_REFLECTION_K = 4
#: independent pairs per variant for k <= MAX_REFLECTION_K, so that the
#: cheap decisions are many and the median decision is a dense point
SMALL_K_REPEATS = 3


def load_pieces() -> dict[str, dict]:
    with open(env.DATA / "pieces.json", encoding="utf-8") as handle:
        return {p["name"]: p["spine"] for p in json.load(handle)["pieces"]}


# ----------------------------------------------------------------------
# spines as data
# ----------------------------------------------------------------------

def _maps(spine: dict) -> tuple[dict, dict]:
    rotation, involution = {}, {}
    for cycle in spine["rotation"]:
        for d, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            rotation[d] = nxt
    for a, b in spine["edges"]:
        involution[a], involution[b] = b, a
    return rotation, involution


def faces(oracles, spine: dict) -> list[list[int]]:
    """Boundary cycles in the library's index order (oracle walk)."""
    return oracles.face_walks(*_maps(spine))


def vertex_count(spine: dict) -> int:
    return len(spine["rotation"])


def _canonical_cycles(cycles) -> list[list[int]]:
    out = []
    for cycle in cycles:
        i = cycle.index(min(cycle))
        out.append(list(cycle[i:]) + list(cycle[:i]))
    return sorted(out, key=lambda c: c[0])


def relabel(oracles, spine: dict, rng: random.Random
            ) -> tuple[dict, dict[int, int], dict[int, int]]:
    """Random dart renaming.  Returns the renamed spine with its
    vertices and faces in canonical order, plus the induced vertex and
    face index maps."""
    darts = list(spine["darts"])
    image = darts[:]
    rng.shuffle(image)
    m = dict(zip(darts, image))
    cycles = _canonical_cycles([[m[d] for d in c] for c in spine["rotation"]])
    new = {"darts": sorted(image), "rotation": cycles,
           "edges": sorted(sorted((m[a], m[b])) for a, b in spine["edges"])}
    new_face_of = {d: i for i, w in enumerate(faces(oracles, new)) for d in w}
    face_map = {i: new_face_of[m[w[0]]]
                for i, w in enumerate(faces(oracles, spine))}
    new_vertex_of = {d: i for i, c in enumerate(cycles) for d in c}
    vertex_map = {i: new_vertex_of[m[c[0]]]
                  for i, c in enumerate(spine["rotation"])}
    new["colors"] = {str(face_map[int(f)]): color
                     for f, color in sorted(spine["colors"].items())}
    return new, vertex_map, face_map


def exits(spine: dict) -> list[int]:
    return sorted(int(f) for f, c in spine["colors"].items() if c == "EXIT")


def entrances(spine: dict) -> list[int]:
    return sorted(int(f) for f, c in spine["colors"].items() if c == "ENTRANCE")


# ----------------------------------------------------------------------
# matrices and coefficients
# ----------------------------------------------------------------------

def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def unimodular(rng: random.Random, c: int) -> tuple[int, int, int, int]:
    """A random integer matrix with |det| = 1 and lower-left entry c."""
    det = rng.choice((1, -1))
    while True:
        a = rng.randint(-2 * abs(c), 2 * abs(c))
        if math.gcd(a, c) == 1:
            break
    if abs(c) == 1:
        d = rng.randint(-3, 3)
    else:  # a * d = det (mod c), so b below is an integer
        d = (det * pow(a, -1, abs(c))) % abs(c) + abs(c) * rng.randint(-1, 1)
    return (a, (a * d - det) // c, c, d)


def mode_move(rng: random.Random, m, mode: str):
    """Image of a gluing matrix under random moves the mode allows:
    diag(e1, f1) U(x) M U(y) diag(e2, f2)."""
    if mode == "exact":
        return m
    signs = [rng.choice((1, -1)) for _ in range(4)]
    x, y = ((0, 0) if mode == "isotopy"
            else (rng.randint(-3, 3), rng.randint(-3, 3)))
    left = mul((signs[0], 0, 0, signs[1]), (1, x, 0, 1))
    right = mul((1, y, 0, 1), (signs[2], 0, 0, signs[3]))
    return mul(mul(left, m), right)


def coprime_pairs(rng: random.Random, count: int, avoid=()) -> list[tuple]:
    """``count`` distinct coprime (p, q), none in ``avoid``, never (1, 0)."""
    out: list[tuple] = []
    while len(out) < count:
        p, q = rng.randint(1, 9), rng.randint(-9, 9)
        if (q != 0 and math.gcd(p, q) == 1 and (p, q) not in out
                and (p, q) not in avoid):
            out.append((p, q))
    return out


def piece_ids(rng: random.Random, count: int, prefix: str) -> list[str]:
    """``count`` distinct random ids, sorted."""
    ids: set[str] = set()
    while len(ids) < count:
        ids.add(prefix + "".join(rng.choice(string.ascii_lowercase)
                                 for _ in range(4)))
    return sorted(ids)


# ----------------------------------------------------------------------
# specifications
# ----------------------------------------------------------------------

def spec_json(spec: dict) -> dict:
    """Internal form -> the JSON format of ``spec_from_json``."""
    return {
        "pieces": [{"id": p["id"], "spine": p["spine"],
                    "dehn": {str(v): list(pq) for v, pq in sorted(p["dehn"].items())}}
                   for p in spec["pieces"]],
        "pairing": [[f"{s[0]}.c{s[1]}", f"{t[0]}.c{t[1]}"]
                    for s, t in spec["pairing"]],
        "matrices": {str(k): [[a, b], [c, d]]
                     for k, (a, b, c, d) in enumerate(spec["matrices"])},
        "orientation_seed": {pid: list(seed) for pid, seed
                             in sorted(spec["seeds"].items())},
    }


def banana_chain(rng: random.Random, banana: dict, k: int, distinct: bool,
                 cs: list[int]) -> dict:
    """Cyclic chain of k banana pieces in id order (``chain_pairing``),
    pair j carrying a matrix with lower-left entry ``cs[j]``.  Pieces are
    alike (one Dehn coefficient everywhere) or distinct (one coefficient
    per piece); every seed has the same sign, so every piece has the
    same isomorphisms."""
    ids = piece_ids(rng, k, "P")
    sign = rng.choice((1, -1))
    coeffs = coprime_pairs(rng, k if distinct else 1)
    pieces = [{"id": pid, "spine": banana,
               "dehn": {v: coeffs[i if distinct else 0]
                        for v in range(vertex_count(banana))}}
              for i, pid in enumerate(ids)]
    return {"pieces": pieces, "pairing": chain_pairing(ids, banana),
            "matrices": [unimodular(rng, c) for c in cs],
            "seeds": {pid: (0, sign) for pid in ids}}


def nth_permutation(k: int, rank: int) -> tuple[int, ...]:
    return next(itertools.islice(itertools.permutations(range(k)), rank, None))


def moved_copy(oracles, rng: random.Random, spec: dict, mode: str) -> dict:
    """An equivalent copy: fresh piece ids, renamed darts, shuffled pair
    order and matrices moved as ``mode`` allows.

    The piece map sends the i-th piece of the first specification in id
    order to the ``perm[i]``-th piece of the copy in id order, where
    ``perm`` is the middle permutation in lexicographic order.  The
    search tries piece bijections in that order, so a hit costs about
    half of an exhaustive miss on every seed.
    """
    k = len(spec["pieces"])
    old_sorted = sorted(p["id"] for p in spec["pieces"])
    new_sorted = piece_ids(rng, k, "Q")
    perm = nth_permutation(k, math.factorial(k) // 2)
    id_map = {old_sorted[i]: new_sorted[perm[i]] for i in range(k)}
    pieces, vmaps, fmaps = [], {}, {}
    for p in spec["pieces"]:
        spine, vmap, fmap = relabel(oracles, p["spine"], rng)
        vmaps[p["id"]], fmaps[p["id"]] = vmap, fmap
        pieces.append({"id": id_map[p["id"]], "spine": spine,
                       "dehn": {vmap[v]: pq for v, pq in p["dehn"].items()}})
    pieces.sort(key=lambda p: p["id"])

    def torus(t):
        return (id_map[t[0]], fmaps[t[0]][t[1]])

    pairs = [((torus(s), torus(t)), mode_move(rng, m, mode))
             for (s, t), m in zip(spec["pairing"], spec["matrices"])]
    rng.shuffle(pairs)
    seeds = {id_map[pid]: (vmaps[pid][v], s)
             for pid, (v, s) in spec["seeds"].items()}
    return {"pieces": pieces, "pairing": [p for p, _ in pairs],
            "matrices": [m for _, m in pairs], "seeds": seeds}


def perturb(rng: random.Random, kind: str, first: dict, copy: dict) -> None:
    """Change a fresh equivalent copy in place so that no witness can
    exist.

    ``matrix``: one pair gets a lower-left entry whose absolute value no
    pair of the first specification has; |c| is invariant under every
    move.  ``dehn``: one vertex gets a coefficient the first
    specification never uses.  ``seed``: one piece's seed sign flips;
    NOTES.md proves this inequivalent without reflection.
    """
    if kind == "matrix":
        used = {abs(m[2]) for m in first["matrices"]}
        c = rng.choice([c for c in range(2, 40) if c not in used])
        j = rng.randrange(len(copy["matrices"]))
        copy["matrices"][j] = unimodular(rng, c * rng.choice((1, -1)))
    elif kind == "dehn":
        used = {pq for p in first["pieces"] for pq in p["dehn"].values()}
        piece = rng.choice(copy["pieces"])
        vertex = rng.randrange(len(piece["dehn"]))
        piece["dehn"][vertex] = coprime_pairs(rng, 1, avoid=used)[0]
    elif kind == "seed":
        pid = rng.choice(sorted(copy["seeds"]))
        v, s = copy["seeds"][pid]
        copy["seeds"][pid] = (v, -s)
    else:
        raise ValueError(kind)


def equiv_cases(oracles, seed: int, ks=EQUIV_KS,
                 repeats: int = SMALL_K_REPEATS) -> list[dict]:
    """Seeded pairs of banana chains with their answers.

    For every k: a hit on alike pieces and one on distinct pieces, and
    matrix, seed and Dehn misses on alike pieces.  For k up to
    ``MAX_REFLECTION_K`` the hits and the matrix and Dehn misses are
    repeated with reflection allowed; seed misses never are (NOTES.md);
    and every variant comes ``repeats`` times, in the modes in a seeded
    order.  Above that k the seed picks the mode.
    """
    rng = random.Random(f"equiv:{seed}")
    banana = load_pieces()["banana"]
    cases = []
    for k in ks:
        cs = rng.sample(range(2, 2 + 4 * k), 2 * k)
        small = k <= MAX_REFLECTION_K
        variants = [("hit", False), ("hit", True), ("matrix", False),
                    ("seed", False), ("dehn", False)]
        for (kind, distinct), reflection in itertools.product(variants, (False, True)):
            if reflection and not (small and kind != "seed"):
                continue
            modes = rng.sample(MODES, len(MODES))
            for copy in range(repeats if small else 1):
                mode = modes[copy % len(MODES)]
                first = banana_chain(rng, banana, k, distinct, cs)
                second = moved_copy(oracles, rng, first, mode)
                if kind != "hit":
                    perturb(rng, kind, first, second)
                cases.append({
                    "name": f"k{k}-{kind}{'-distinct' if distinct else ''}"
                            f"{'-reflect' if reflection else ''}"
                            f"{f'-{copy}' if small else ''}",
                    "k": k, "kind": kind, "mode": mode,
                    "reflection": reflection, "equivalent": kind == "hit",
                    "a": spec_json(first), "b": spec_json(second)})
    return cases


# ----------------------------------------------------------------------
# requests and dynamics
# ----------------------------------------------------------------------

def glue(rng: random.Random, spines: list[tuple[str, dict]], pairing) -> dict:
    """A valid specification over the given pieces and pairing, with
    random matrices (|c| <= 5), Dehn coefficients and seeds."""
    pieces = []
    for pid, spine in spines:
        n = vertex_count(spine)
        coeffs = [rng.choice([(1, 0)] + coprime_pairs(rng, 2)) for _ in range(n)]
        pieces.append({"id": pid, "spine": spine, "dehn": dict(enumerate(coeffs))})
    return {"pieces": pieces, "pairing": list(pairing),
            "matrices": [unimodular(rng, rng.choice((1, -1)) * rng.randint(1, 5))
                         for _ in pairing],
            "seeds": {pid: (rng.randrange(vertex_count(spine)), rng.choice((1, -1)))
                      for pid, spine in spines}}


def chain_pairing(ids: list[str], banana: dict) -> list:
    """The two exits of piece i glue to the two entrances of piece i + 1,
    cyclically."""
    out_a, out_b = exits(banana)
    in_a, in_b = entrances(banana)
    pairing = []
    for i, pid in enumerate(ids):
        nxt = ids[(i + 1) % len(ids)]
        pairing += [((pid, out_a), (nxt, in_a)), ((pid, out_b), (nxt, in_b))]
    return pairing


def random_pairing(rng: random.Random, spines: list[tuple[str, dict]]) -> list:
    """A random exit -> entrance bijection whose glued tori link all the
    pieces into one manifold (drawn again until they do)."""
    outs = [(pid, f) for pid, spine in spines for f in exits(spine)]
    ins = [(pid, f) for pid, spine in spines for f in entrances(spine)]
    while True:
        rng.shuffle(ins)
        root = {pid: pid for pid, _ in spines}

        def find(pid):
            while root[pid] != pid:
                pid = root[pid]
            return pid

        for (a, _), (b, _) in zip(outs, ins):
            root[find(a)] = find(b)
        if len({find(pid) for pid in root}) == 1:
            return list(zip(outs, ins))


def flow_specs(rng: random.Random, lib: dict, kinds) -> list[dict]:
    """One specification per (kind, k): ``chain`` is a cyclic banana
    chain, ``bananas`` k bananas under a random pairing, ``mixed`` the
    two three-vertex pieces plus k - 1 bananas under a random pairing."""
    out = []
    for kind, k in kinds:
        names = ["banana"] * k if kind != "mixed" else (
            ["three_vertex_in2", "three_vertex_out2"] + ["banana"] * (k - 1))
        ids = piece_ids(rng, len(names), "P")
        spines = list(zip(ids, (lib[n] for n in names)))
        pairing = (chain_pairing(ids, lib["banana"]) if kind == "chain"
                   else random_pairing(rng, spines))
        out.append(glue(rng, spines, pairing))
    return out


#: defects planted in copies of valid specifications; each makes
#: ``validate`` fail without making the JSON unreadable
DEFECTS = ("det", "upper", "dehn", "seed")


def plant_defect(rng: random.Random, spec: dict, defect: str) -> dict:
    bad = dict(spec, matrices=list(spec["matrices"]), seeds=dict(spec["seeds"]),
               pieces=[dict(p, dehn=dict(p["dehn"])) for p in spec["pieces"]])
    j = rng.randrange(len(bad["matrices"]))
    if defect == "det":
        bad["matrices"][j] = (2, 1, 2, 3)
    elif defect == "upper":
        bad["matrices"][j] = (1, rng.randint(-3, 3), 0, 1)
    elif defect == "dehn":
        bad["pieces"][0]["dehn"][0] = (2, 4)
    elif defect == "seed":
        pid = bad["pieces"][0]["id"]
        bad["seeds"][pid] = (bad["seeds"][pid][0], 0)
    else:
        raise ValueError(defect)
    return bad


MALFORMED = ("", "{\"pieces\": [}", "[[1, 0], [5")
MALFORMED_PER_COMMAND = 10
#: well-formed requests per subcommand: 9 times each of the 18 equiv
#: pairs, the 18 itinerary words and the 18 matrices, 3 times each of the
#: 9 x 6 (spec, --max-len) combinations, 18 times each of the 9 specs.
#: Small pools keep the files written at set-up few (92): file creation
#: is the noisiest part of set-up on an overlay file system.
WELL_FORMED_PER_COMMAND = 162
COMMANDS = ("validate", "build-graph", "transitive", "orient", "itinerary",
            "periodic", "normalize-matrix", "equiv")


def request_inputs(oracles, seed: int) -> tuple[dict[str, str], list[dict]]:
    """Input files (name -> text) and the request stream.

    Every subcommand gets ``WELL_FORMED_PER_COMMAND`` requests that use
    each input of its pool equally often, plus ``MALFORMED_PER_COMMAND``
    that read malformed JSON; ``validate`` also reads each of the 8
    specifications with a planted defect 3 times.  The whole stream
    (1400 requests) is shuffled, so its make-up does not depend on the
    seed, only its order and the inputs do.  Each request names its
    subcommand, files and options and what is known about the answer by
    construction: ``malformed`` (exit 2), ``valid`` for ``validate``,
    ``equivalent`` for ``equiv``.  The other answers come from
    ``reference`` at check time.
    """
    rng = random.Random(f"requests:{seed}")
    lib = load_pieces()
    files: dict[str, str] = {}
    specs = flow_specs(rng, lib, [(kind, k) for k in (1, 2, 3)
                                  for kind in ("chain", "bananas", "mixed")])
    valid = []
    for i, spec in enumerate(specs):
        valid.append(f"spec{i}.json")
        files[valid[-1]] = json.dumps(spec_json(spec))
    invalid = []
    for i, defect in enumerate(DEFECTS * 2):
        invalid.append(f"invalid{i}.json")
        files[invalid[-1]] = json.dumps(spec_json(
            plant_defect(rng, specs[i % len(specs)], defect)))
    malformed = []
    for i, text in enumerate(MALFORMED):
        malformed.append(f"malformed{i}.json")
        files[malformed[-1]] = text
    words = []
    for i in range(18):
        s = i % len(specs)
        tori = [f"T{k}" for k in range(len(specs[s]["pairing"]))]
        orbits = [f"{p['id']}.v{v}" for p in specs[s]["pieces"]
                  for v in range(vertex_count(p["spine"]))]
        word = {"body": [rng.choice(tori) for _ in range(rng.randint(0, 4))]}
        for key in ("head_orbit", "tail_orbit"):
            if rng.random() < 0.5:
                word[key] = rng.choice(orbits)
        files[f"word{i}.json"] = json.dumps(word)
        words.append([valid[s], f"word{i}.json"])
    matrices = []
    for i in range(18):
        c = rng.choice((1, -1)) * rng.randint(1, 9)
        a, b, c, d = mode_move(rng, unimodular(rng, c), "isotopy-with-twists")
        matrices.append(f"matrix{i}.json")
        files[matrices[-1]] = json.dumps([[a, b], [c, d]])
    pairs = []
    for i, case in enumerate(equiv_cases(oracles, seed, ks=(2, 3), repeats=1)):
        files[f"equiv{i}a.json"] = json.dumps(case["a"])
        files[f"equiv{i}b.json"] = json.dumps(case["b"])
        pairs.append({"files": [f"equiv{i}a.json", f"equiv{i}b.json"],
                      "options": ["--mode", case["mode"]] + (
                          ["--allow-reflection"] if case["reflection"] else []),
                      "expect": {"equivalent": case["equivalent"]}})

    def one_file(name, **expect):
        return {"files": [name], "options": [], "expect": expect}

    pools = {
        "validate": [one_file(v, valid=True) for v in valid],
        "itinerary": [{"files": w, "options": [], "expect": {}} for w in words],
        "periodic": [{"files": [v], "options": ["--max-len", str(n)], "expect": {}}
                     for v in valid for n in range(1, 7)],
        "normalize-matrix": [one_file(m) for m in matrices],
        "equiv": pairs,
    }
    requests = [dict(one_file(name, valid=False), command="validate")
                for name in invalid * 3]
    for command in COMMANDS:
        pool = pools.get(command, [one_file(v) for v in valid])
        if WELL_FORMED_PER_COMMAND % len(pool):
            raise ValueError(f"{command}: pool of {len(pool)} does not divide the stream")
        for i in range(WELL_FORMED_PER_COMMAND):
            requests.append(dict(pool[i % len(pool)], command=command))
        for i in range(MALFORMED_PER_COMMAND):
            bad = dict(rng.choice(pool), command=command, expect={"malformed": True})
            slot = rng.randrange(len(bad["files"]))
            bad["files"] = [malformed[i % len(malformed)] if j == slot else f
                            for j, f in enumerate(bad["files"])]
            requests.append(bad)
    rng.shuffle(requests)
    return files, requests


#: (kind, k) of the dynamics specifications
DYNAMICS_SPECS = tuple((kind, k) for k in (1, 2, 3, 4)
                       for kind in ("chain", "bananas"))
SWEEP_MAX_BODY = 5
PERIODIC_LENGTHS = (8, 9, 10, 11, 12)


def dynamics_inputs(seed: int) -> list[dict]:
    """Connected banana specifications.  Every torus has two outgoing and
    two incoming edges, so the quotient graph is strongly connected with
    spectral radius 2, and the number of closed walks, which sets the
    work per pass, hardly depends on the seed."""
    rng = random.Random(f"dynamics:{seed}")
    return [spec_json(s) for s in flow_specs(rng, load_pieces(), DYNAMICS_SPECS)]
