"""The driver-side SCS kernels vs the sequential oracles, on drawn graphs.

``peel_kernel`` and ``expand_kernel`` take any edge list (not only a
community) and must return exactly ``ref_scs.scs_peel`` — Algorithm 4 as
printed — and ``ref_scs.scs_threshold``. No Spark: hundreds of examples
run in a few seconds.
"""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scs import expand_kernel, peel_kernel
from repro.reference import ref_scs as RS

ABSENT = 99  # never a vertex id: blocks use ids below 2 * 8


@st.composite
def _block(draw, offset: int):
    """A random bipartite block on ids ``offset + [0, 8)`` per side, with
    weights from 1–4 levels (one level: all weights equal)."""
    n_u = draw(st.integers(1, 8))
    n_l = draw(st.integers(1, 8))
    pairs = draw(
        st.sets(st.tuples(st.integers(0, n_u - 1), st.integers(0, n_l - 1)),
                min_size=1, max_size=n_u * n_l)
    )
    levels = draw(st.integers(1, 4))
    return [
        (u + offset, v + offset, float(draw(st.integers(1, levels))))
        for u, v in sorted(pairs)
    ]


@st.composite
def _query(draw):
    """A graph of one or two vertex-disjoint blocks (so cores can be
    disconnected), a query vertex on either side — or absent — and α, β."""
    edges = draw(_block(0))
    if draw(st.booleans()):
        edges += draw(_block(8))
    qside = draw(st.sampled_from("uv"))
    ids = sorted({e[0 if qside == "u" else 1] for e in edges})
    q = draw(st.sampled_from(ids + [ABSENT]))
    return edges, q, qside, draw(st.integers(1, 4)), draw(st.integers(1, 4))


_BICLIQUE = [(u, v, 2.0) for u in range(3) for v in range(3)]
_TWO_BICLIQUES = _BICLIQUE + [(u + 8, v + 8, float(u + v)) for u in range(3)
                              for v in range(3)]


@settings(max_examples=400, deadline=None)
@given(_query())
@example((_BICLIQUE, 0, "u", 2, 3))  # all weights equal: R = C
@example((_BICLIQUE, ABSENT, "v", 2, 2))  # q absent
@example((_TWO_BICLIQUES, 9, "v", 3, 2))  # disconnected core, α > β
@example((_TWO_BICLIQUES, 8, "u", 2, 3))  # disconnected core, α < β
def test_kernels_match_oracles(case):
    edges, q, qside, alpha, beta = case
    want = sorted(RS.scs_peel(edges, q, qside, alpha, beta))
    assert sorted(RS.scs_threshold(edges, q, qside, alpha, beta)) == want
    assert sorted(peel_kernel(edges, q, qside, alpha, beta)) == want
    assert sorted(expand_kernel(edges, q, qside, alpha, beta)) == want
