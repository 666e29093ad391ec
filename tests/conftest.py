import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from altring import (PrimeField, Rationals, associator, build_map, gen_direct_sum, gen_m2,
                     gen_triangular2, gen_zorn, linalg, peirce_frame, zorn_idempotent)
from altring.cli import main
from altring.generators import matrix_units
from altring.maps import MapTable
from altring.rings import Ring

# Property tests draw the same examples on every run and stay cheap.
settings.register_profile("altring", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("altring")


@pytest.fixture(scope="session")
def m2():
    return gen_m2(5)


@pytest.fixture(scope="session")
def zorn():
    return gen_zorn(5)


@pytest.fixture(scope="session")
def t2():
    return gen_triangular2(5)


@pytest.fixture(scope="session")
def m2q():
    return gen_m2("Q")


@pytest.fixture(scope="session")
def dsum(m2):
    return gen_direct_sum(m2, m2)


@st.composite
def unital_rings(draw, primes=(2, 3, 5, 7), max_dim=4):
    """Basis vector 0 is the unit; every other basis product is random."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_dim))
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        sc[0][j][j] = sc[j][0][j] = 1
    for i in range(1, n):
        for j in range(1, n):
            sc[i][j] = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return Ring(f"random_f{p}", PrimeField(p), [f"b{i}" for i in range(n)], sc,
                [1] + [0] * (n - 1))


@st.composite
def rebased_unital_rings(draw, p, max_dim=3):
    """A random unital ring of dim <= max_dim over F_p in a random basis,
    so that the unit and the commutators sit anywhere in element order."""
    ring = draw(unital_rings(primes=(p,), max_dim=max_dim))
    n, dom = ring.dim, ring.domain
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    P = draw(st.lists(row, min_size=n, max_size=n).filter(lambda P: linalg.inverse(P, dom)))
    P_inv = linalg.inverse(P, dom)
    new_basis = [[P[k][i] for k in range(n)] for i in range(n)]      # the columns of P
    sc = [[linalg.mat_vec(P_inv, list(ring.mul_coords(a, b)), dom) for b in new_basis]
          for a in new_basis]
    return Ring(ring.name, dom, ring.basis_names, sc,
                linalg.mat_vec(P_inv, list(ring.unit_coords), dom))


def apply_matrix(ring, M, coords):
    """M applied to a coordinate vector of `ring`, in `linalg` arithmetic."""
    return tuple(linalg.mat_vec(M, list(coords), ring.domain))


def write_cli_files(directory):
    """Under `directory`, ring files written by `altring gen` (M2, Zorn and
    t2 over F_5, and M2+M2) and three M2/F5 map files; name -> path, with
    "dir" the directory itself."""
    paths = {}
    for kind in ("m2", "zorn", "triangular2"):
        out = directory / f"{kind}.json"
        assert main(["gen", kind, "--field", "5", "--out", str(out)]) == 0
        paths[kind] = str(out)
    ds = directory / "dsum.json"
    assert main(["gen", "direct_sum", paths["m2"], paths["m2"], "--out", str(ds)]) == 0
    paths["dsum"] = str(ds)
    maps = {"negtr": {"kind": "neg_transpose_plus_trace"}, "ident": {"kind": "identity"},
            "idtrace": {"kind": "structured",
                        "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                        "offset_functional": [1, 0, 0, 1],
                        "offset_central": [1, 0, 0, 1]}}
    for name, spec in maps.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"source": "m2_f5", "target": "m2_f5", "repr": spec}))
        paths[name] = str(path)
    paths["dir"] = directory
    return paths


def replace_entries(m, entries):
    """A table copy of map m with entries {source index: target coordinates}
    overwritten, for negative controls."""
    index = m.image_index().copy()
    for idx, coords in entries.items():
        index[idx] = m.et.index_of([m.target.domain.parse(x) for x in coords])
    return MapTable(m.source, m.target, m.es, m.et, index)


# each law a ring-law report quotes, as a function of its x, y (and z)
ASSOCIATOR_LAWS = {
    "(x,y,z) + (y,x,z) = 0": lambda x, y, z: associator(x, y, z) + associator(y, x, z),
    "(x,y,z) + (x,z,y) = 0": lambda x, y, z: associator(x, y, z) + associator(x, z, y),
    "(x,x,y) = 0": lambda x, y: associator(x, x, y),
    "(y,x,x) = 0": lambda x, y: associator(y, x, x),
    "(x,y,z) + (z,y,x) = 0": lambda x, y, z: associator(x, y, z) + associator(z, y, x),
    "(x,y,x) = 0": lambda x, y: associator(x, y, x),
    "(x,y,z) = 0": lambda x, y, z: associator(x, y, z),
}


def breaks_law(ring, witness) -> bool:
    """True when the law a ring-law witness quotes is nonzero at its x, y
    (and z), evaluated in `Element` arithmetic."""
    law = ASSOCIATOR_LAWS[witness["law"]]
    return not law(**{v: ring.element(witness[v]) for v in "xyz" if v in witness}).is_zero()


def f2_rings():
    """Two rings over F_2 with basis b0, b1, b2 on which the linearized
    flexible law holds but (b0, b0, b0) != 0, so neither is flexible nor
    alternative.  On the first the linearized alternative laws also hold,
    and so does (x,x,y) = 0 at every x = b_i + b_j."""
    dom, names = PrimeField(2), ["b0", "b1", "b2"]
    return [Ring("f2_diagonal", dom, names,
                 [[[0, 0, 1], [1, 0, 1], [0, 0, 1]], [[0, 0, 0], [1, 1, 1], [1, 0, 1]],
                  [[1, 0, 0], [1, 0, 1], [1, 0, 0]]], [0, 1, 1]),
            Ring("f2_not_flexible", dom, names,
                 [[[1, 0, 1], [0, 0, 1], [0, 1, 1]], [[0, 0, 1], [0, 1, 1], [0, 1, 0]],
                  [[1, 0, 0], [1, 0, 1], [1, 1, 0]]], [1, 1, 0])]


def reordered_m2(name="m2_f5"):
    """M2/F5 under the basis order (E22, E12, E21, E11): the same algebra
    as `gen_m2(5)`, with other coordinates."""
    m2 = gen_m2(5)
    order = (3, 1, 2, 0)
    sc = [[[m2.sc[a][b][c] for c in order] for b in order] for a in order]
    return Ring(name, m2.domain, [m2.basis_names[k] for k in order], sc,
                [m2.unit_coords[k] for k in order])


def broken3_ring():
    """Triangular 2x2 with E12*E12 = E22 forced in: unit survives, the
    alternative law does not."""
    sc = matrix_units([(0, 0), (0, 1), (1, 1)])
    sc[1][1][2] = 1
    return Ring("broken3", PrimeField(5), ["E11", "E12", "E22"], sc, [1, 0, 1])


def anticommuting_q_ring():
    """Over Q, basis e1, e2, u1, u2: e1, e2 orthogonal idempotents with
    e1*u = u = u*e2 for u in R_12 = span(u1, u2), and u1*u2 = u2*u1 = e1.
    Every basis square is zero but (u1 + u2)^2 = 2*e1 is not."""
    sc = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    sc[0][0][0] = sc[1][1][1] = 1
    for u in (2, 3):
        sc[0][u][u] = sc[u][1][u] = 1
    sc[2][3][0] = sc[3][2][0] = 1
    return Ring("anticommuting_q", Rationals(), ["e1", "e2", "u1", "u2"], sc, [1, 1, 0, 0])


@pytest.fixture(scope="session")
def broken3():
    return broken3_ring()


@pytest.fixture(scope="session")
def anticommuting_q():
    return anticommuting_q_ring()


@pytest.fixture(scope="session")
def m2_frame(m2):
    return peirce_frame(m2, m2.basis_element(0))


@pytest.fixture(scope="session")
def zorn_frame(zorn):
    return peirce_frame(zorn, zorn_idempotent(zorn))


@pytest.fixture(scope="session")
def dsum_frame(dsum):
    return peirce_frame(dsum, dsum.element([1, 0, 0, 0, 1, 0, 0, 0]))


@pytest.fixture(scope="session")
def id_m2(m2):
    return build_map(m2, m2, {"kind": "identity"})


@pytest.fixture(scope="session")
def negtr(m2):
    return build_map(m2, m2, {"kind": "neg_transpose_plus_trace"})


@pytest.fixture(scope="session")
def conj(m2):
    # conjugation by 1 + E12, determinant 1
    return build_map(m2, m2, {"kind": "conjugation", "element": [1, 1, 0, 1]})
