"""The driver-side offset and coreness peels vs the sequential oracle, on
drawn graphs.

``offset_peel`` must return ``ref_graph.alpha_offsets`` (``held="u"``) and
``ref_graph.beta_offsets`` (``held="v"``) for every vertex and every τ up
to two past the largest degree, zero offsets included; ``core_peel`` must
return ``ref_graph.coreness``. No Spark: hundreds of examples run in a few
seconds.
"""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.decomposition import core_peel, offset_peel
from repro.reference import ref_graph as R


@st.composite
def _graph(draw):
    """One or two vertex-disjoint random blocks of up to 7 × 7 vertices."""
    pairs = set()
    for offset in range(draw(st.integers(1, 2))):
        n_u = draw(st.integers(1, 7))
        n_l = draw(st.integers(1, 7))
        block = draw(st.sets(
            st.tuples(st.integers(0, n_u - 1), st.integers(0, n_l - 1)),
            max_size=n_u * n_l,
        ))
        pairs |= {(u + 8 * offset, v + 8 * offset) for u, v in block}
    return sorted(pairs)


_STARS = [(0, v) for v in range(5)] + [(u, 9) for u in range(1, 4)]
_PATH = [(i, i) for i in range(5)] + [(i + 1, i) for i in range(4)]
_BLOCKS = [(u, v) for u in range(3) for v in range(4)] + [
    (u + 8, v + 8) for u in range(4) for v in range(2)
]


@settings(max_examples=300, deadline=None)
@given(_graph())
@example(_STARS)  # a star on each side: one hub, leaves of degree 1
@example(_PATH)
@example(_BLOCKS)  # two disjoint blocks: cores on both
@example([(3, 7)])  # a single edge
@example([])  # no edges: no rows
def test_peels_match_oracle(pairs):
    edges = [(u, v, 1.0) for u, v in pairs]
    du, dv = R.degrees(edges)
    taus = range(1, max([*du.values(), *dv.values()], default=0) + 3)
    for held, ref in (("u", R.alpha_offsets), ("v", R.beta_offsets)):
        rows = list(offset_peel(pairs, taus, held))
        got = {(t, s, i): off for t, s, i, off in rows}
        assert len(got) == len(rows)  # one row per (τ, vertex)
        want = {}
        for tau in taus:  # the last two are above every degree: all zero
            s_u, s_v = ref(edges, tau)
            want |= {(tau, "u", u): s_u.get(u, 0) for u, _ in pairs}
            want |= {(tau, "v", v): s_v.get(v, 0) for _, v in pairs}
        assert got == want
    rows = core_peel(pairs)
    assert len(rows) == len(du) + len(dv)
    assert {(s, i): c for s, i, c in rows} == R.coreness(edges)
