"""Parametric set-valued maps: ladders, embeddings, delta, audits."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from regkit.metric import FiniteMetricSpace
from regkit.policy import INF
from regkit.svmap import (LadderError, ParamSetValuedMap, PlainSetValuedMap,
                          TLadder, embed_plain, outer_semicontinuity_at_zero,
                          prop41_audit)


def small_plain():
    X = FiniteMetricSpace.from_grid([0.0, 1.0, 2.5])
    Y = FiniteMetricSpace.from_grid([0.0, 2.0])
    return PlainSetValuedMap(X, Y, {(0, 0), (1, 0), (1, 1), (2, 1)})


# -- ladders -----------------------------------------------------------------

def test_ladder_validation():
    with pytest.raises(LadderError):
        TLadder(np.array([1.0, 2.0]))          # must start at 0
    with pytest.raises(LadderError):
        TLadder(np.array([0.0, 1.0, 1.0]))     # strictly increasing
    with pytest.raises(LadderError):
        TLadder(np.array([]))
    lad = TLadder(np.array([0.0, 0.5, 2.0]))
    assert len(lad) == 3
    assert lad.max_gap() == 1.5
    assert lad.positive.tolist() == [0.5, 2.0]


def test_ladder_index_and_snap():
    lad = TLadder(np.array([0.0, 0.5, 1.0, 2.0]))
    assert lad.index_of(1.0) == 2
    assert lad.index_of(1.0 + 1e-13) == 2
    with pytest.raises(LadderError):
        lad.index_of(0.7)
    assert lad.snap_up(0.7) == 2          # smallest level >= 0.7
    assert lad.snap_up(0.5) == 1          # exact hit
    assert lad.snap_up(1e-13) == 0        # at tolerance -> level 0
    with pytest.raises(LadderError):
        lad.snap_up(3.0)
    assert TLadder(np.linspace(0.0, 2.0, 5)).levels.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=10, unique=True))
def test_snap_up_returns_smallest_not_below(vals):
    lv = np.concatenate([[0.0], np.sort(np.array(vals))])
    lad = TLadder(lv)
    for t in np.linspace(1e-6, float(lv[-1]), 17):
        k = lad.snap_up(float(t))
        assert lv[k] >= t - 1e-12
        assert all(lv[j] < t - 1e-12 for j in range(1, k))


# -- plain maps --------------------------------------------------------------

def test_plain_map_queries():
    F = small_plain()
    assert F.image(1).tolist() == [0, 1]
    assert F.preimage(1).tolist() == [1, 2]
    assert F.dist_to_image(1, 0) == 2.0     # d(y1, F(x0)) = d(2, {0})
    assert F.dist_to_preimage(0, 1) == 1.0
    D = F.dist_to_image_matrix()
    assert D[0, 0] == 0.0 and D[0, 1] == 2.0
    # computed once per map, and read-only so that no caller changes it
    assert F.dist_to_image_matrix() is D and not D.flags.writeable
    empty = PlainSetValuedMap(F.X, F.Y, {(0, 0)})
    assert empty.dist_to_image(0, 2) == INF
    assert empty.dist_to_preimage(0, 1) == INF


# -- embedding vs explicit triples ------------------------------------------

def test_delta_semantics_and_matrix():
    F = small_plain()
    lad = TLadder(np.linspace(0.0, 3.0, 13))    # gap 0.25
    Fo = embed_plain(F, lad, closed=False)
    Fc = embed_plain(F, lad, closed=True)
    D = F.dist_to_image_matrix()
    dlo, dlc = Fo.delta_matrix(), Fc.delta_matrix()
    for x in range(F.X.n):
        for y in range(F.Y.n):
            assert dlo[x, y] == Fo.delta(y, x)
            assert dlc[x, y] == Fc.delta(y, x)
            if D[x, y] == INF:
                assert dlo[x, y] == INF
                continue
            # within one ladder gap above the plain distance
            assert D[x, y] - 1e-12 <= dlc[x, y] <= D[x, y] + lad.max_gap() + 1e-12
            assert D[x, y] - 1e-12 <= dlo[x, y] <= D[x, y] + lad.max_gap() + 1e-12
            # closed embedding is exact on representable boundaries
            if any(abs(lv - D[x, y]) <= 1e-12 for lv in lad.positive):
                assert dlc[x, y] == pytest.approx(D[x, y], abs=1e-12)


def test_triple_graph_and_monotone_validation():
    X = FiniteMetricSpace.from_grid([0.0, 1.0])
    Y = FiniteMetricSpace.from_grid([0.0])
    lad = TLadder(np.array([0.0, 1.0, 2.0]))
    F = ParamSetValuedMap(X, Y, lad, graph=[(0, 1, 0), (0, 2, 0)],
                          monotone=True)
    assert F.delta(0, 0) == 1.0
    assert F.delta(0, 1) == INF
    with pytest.raises(ValueError, match="monotonicity"):
        ParamSetValuedMap(X, Y, lad, graph=[(0, 1, 0)], monotone=True)
    with pytest.raises(LadderError):
        ParamSetValuedMap(X, Y, lad, graph=[(0, 9, 0)])


# -- outer semicontinuity ----------------------------------------------------

def test_osc_detects_fibre_collapse():
    X = FiniteMetricSpace.from_grid([0.0, 5.0])
    Y = FiniteMetricSpace.from_grid([0.0])
    lad = TLadder(np.array([0.0, 1.0]))
    good = ParamSetValuedMap(X, Y, lad, graph=[(0, 0, 0), (0, 1, 0)])
    assert outer_semicontinuity_at_zero(good, 0).holds
    bad = ParamSetValuedMap(X, Y, lad, graph=[(0, 0, 0), (1, 1, 0)])
    rep = outer_semicontinuity_at_zero(bad, 0)
    assert not rep.holds and rep.witness == 1
    with pytest.raises(LadderError):
        outer_semicontinuity_at_zero(
            ParamSetValuedMap(X, Y, TLadder(np.array([0.0])), graph=[]), 0)


# -- embedding audit ---------------------------------------------------------

def test_prop41_audit_on_random_maps():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=12, ny_max=12)
        diam = max(F.Y.diameter(), 1e-6)
        lad = TLadder(np.linspace(0.0, 1.05 * diam, 41))
        audit = prop41_audit(F, lad)
        for name in ("i", "iii", "iv", "vi"):
            assert audit.by_name(name).status == "pass", (seed, name)
        assert audit.by_name("ii").status == "pass", seed
        assert audit.by_name("vii").status == "not_applicable"
        assert audit.ok


def _grid_map():
    """D = [[0, 1, 2, 3], [3, 2, 1, 0], [inf] * 4]; ladder 0, 0.5, ..., 4."""
    X = FiniteMetricSpace.from_grid([0.0, 1.0, 2.0])
    Y = FiniteMetricSpace.from_grid([0.0, 1.0, 2.0, 3.0])
    return PlainSetValuedMap(X, Y, {(0, 0), (1, 3)}), TLadder(np.arange(0.0, 4.5, 0.5))


_REAL_DIST_TO_IMAGE = PlainSetValuedMap.dist_to_image_matrix


def _audit_with_moved_entries(monkeypatch, moved):
    """Witnesses of (iii), (iv), (vi) when the engine's D has entries moved."""
    def engine_D(self):
        D = _REAL_DIST_TO_IMAGE(self).copy()      # the map's own is read-only
        for (x, y), v in moved.items():
            D[x, y] = v
        return D

    monkeypatch.setattr(PlainSetValuedMap, "dist_to_image_matrix", engine_D)
    F, lad = _grid_map()
    audit = prop41_audit(F, lad)
    return {c: audit.by_name(c).witness for c in ("iii", "iv", "vi")}


# d(y=2, F(x=0)) = 2 enters the oracle's open preimage at 2.5 (first level
# above 2) and its closed one at 2.0; the engine's open and closed sets take
# x = 0 from the first level above / not below the moved entry v.  (iii)
# reports the lower of the two open onsets, (iv) the oracle's closed onset
# when the engine's closed onset is later, (vi) the oracle's open onset when
# an engine onset is later ("open" first: the closed onset is never later).
@pytest.mark.parametrize("v, iii, iv, vi", [
    (3.0, (2, 2.5), (2, 2.0), ("open", 2.5)),    # up two levels
    (2.25, None, (2, 2.0), None),                # up half a level
    (INF, (2, 2.5), (2, 2.0), ("open", 2.5)),    # out of every level
    (1.75, (2, 2.0), None, None),                # down half a level
    (1.0, (2, 1.5), None, None),                 # down two levels
    (0.0, (2, 0.5), None, None),                 # onto the image
])
def test_prop41_audit_witnesses_for_one_moved_entry(monkeypatch, v, iii, iv, vi):
    got = _audit_with_moved_entries(monkeypatch, {(0, 2): v})
    assert got == {"iii": iii, "iv": iv, "vi": vi}


def test_prop41_audit_witness_is_row_major_first(monkeypatch):
    # both pairs split first at 2.5 (iii, vi) and 2.0 (iv); x = 0 comes first
    got = _audit_with_moved_entries(monkeypatch, {(0, 2): 3.0, (1, 1): 3.0})
    assert got == {"iii": (2, 2.5), "iv": (2, 2.0), "vi": ("open", 2.5)}
    # (iii) splits first at 1.5 for (2, 0), which enters the engine there
    got = _audit_with_moved_entries(monkeypatch, {(1, 1): 3.0, (2, 0): 1.0})
    assert got == {"iii": (0, 1.5), "iv": (1, 2.0), "vi": ("open", 2.5)}


# -- batch queries against the per-column ones --------------------------------

@st.composite
def plain_maps(draw):
    """A plain map with integer (grid) or float coordinates, and a ladder."""
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    metric = draw(st.sampled_from(["euclidean", "manhattan", "chebyshev"]))
    dim = draw(st.integers(1, 2))
    if draw(st.booleans()):       # grid: distances land exactly on levels
        coord = st.integers(-3, 3).map(float)
        step = draw(st.sampled_from([0.5, 1.0]))
        levels = np.arange(0.0, draw(st.integers(1, 8)) + step / 2, step)
    else:
        coord = st.floats(-3, 3)
        levels = np.concatenate([[0.0], np.sort(draw(st.lists(
            st.floats(0.01, 8.0), min_size=0, max_size=12, unique=True)))])

    def pts(n):
        return np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                      min_size=n, max_size=n)))

    X = FiniteMetricSpace(metric=metric, coords=pts(nx))
    Y = FiniteMetricSpace(metric=metric, coords=pts(ny))
    graph = draw(st.sets(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))))
    return PlainSetValuedMap(X, Y, graph), TLadder(levels)


@settings(max_examples=30, deadline=None)
@given(plain_maps())
def test_onset_matrix_is_built_once_on_the_first_query(Fl):
    F, lad = Fl
    D, lv = F.dist_to_image_matrix(), lad.levels
    eager = {False: np.maximum(np.searchsorted(lv - 1e-12, D, side="right"), 1),
             True: np.maximum(np.searchsorted(lv + 1e-12, D, side="left"), 1)}
    for closed in (False, True):
        G = embed_plain(F, lad, closed=closed)
        assert "_on" not in G.__dict__
        on = G.onset_matrix()
        assert np.array_equal(on, eager[closed]) and on.dtype == eager[closed].dtype
        assert G.onset_matrix() is on and not on.flags.writeable


@settings(max_examples=60, deadline=None)
@given(plain_maps())
def test_embedding_matches_manual_enlargement(Fl):
    # grid coordinates put distances exactly on ladder levels
    F, lad = Fl
    D = F.dist_to_image_matrix()
    for closed in (False, True):
        G = embed_plain(F, lad, closed=closed)
        dl = G.delta_matrix()
        for x in range(F.X.n):
            for y in range(F.Y.n):
                member = []
                for k, t in enumerate(lad.levels):
                    if k == 0:
                        expect = (x, y) in F.graph
                    else:
                        expect = D[x, y] <= t + 1e-12 if closed else D[x, y] < t - 1e-12
                    assert G.contains(x, k, y) == expect
                    assert (y in G.fibre(x, k).tolist()) == expect
                    assert (x in G.inverse_at_level_idx(k, y).tolist()) == expect
                    member.append(expect)
                # delta: the smallest positive level at which y is in F(x, t)
                first = next((t for t, m in zip(lad.positive, member[1:]) if m), INF)
                assert G.delta(y, x) == first and dl[x, y] == first


def _assert_onsets_match_inverses(G):
    on = G.onset_matrix()
    for k in range(1, len(G.ladder)):
        for y in range(G.Y.n):
            assert G.inverse_at_level_idx(k, y).tolist() == np.nonzero(k >= on[:, y])[0].tolist()


@settings(max_examples=60, deadline=None)
@given(plain_maps(), st.data())
def test_onset_matrix_matches_inverse_queries(Fl, data):
    F, lad = Fl
    for closed in (False, True):
        _assert_onsets_match_inverses(embed_plain(F, lad, closed=closed))
    # a monotone graph-backed map: each pair enters at a drawn level or never
    L = len(lad)
    start = data.draw(st.lists(st.integers(1, L), min_size=F.X.n * F.Y.n,
                               max_size=F.X.n * F.Y.n))
    triples = [(x, k, y) for x in range(F.X.n) for y in range(F.Y.n)
               for k in range(start[x * F.Y.n + y], L)] + [(a, 0, b) for a, b in F.graph]
    G = ParamSetValuedMap(F.X, F.Y, lad, graph=triples, monotone=True)
    _assert_onsets_match_inverses(G)
    assert G.onset_matrix().ravel().tolist() == start
    dl = G.delta_matrix()
    assert all(dl[x, y] == G.delta(y, x) for x in range(F.X.n) for y in range(F.Y.n))


@settings(max_examples=40, deadline=None)
@given(plain_maps())
def test_plain_map_index_is_brute_force(Fl):
    F, _ = Fl
    for x in range(F.X.n):
        assert F.image(x).tolist() == sorted(b for a, b in F.graph if a == x)
    for y in range(F.Y.n):
        assert F.preimage(y).tolist() == sorted(a for a, b in F.graph if b == y)


def _brute_dist_to_image(F):
    return np.array([[min((F.Y.d(y, j) for j in F.image(x)), default=INF)
                      for y in range(F.Y.n)] for x in range(F.X.n)])


@settings(max_examples=40, deadline=None)
@given(plain_maps())
def test_dist_to_image_matrix_is_brute_force_min(Fl):
    F, _ = Fl
    assert np.array_equal(F.dist_to_image_matrix(), _brute_dist_to_image(F))


def test_dist_to_image_matrix_reads_d_of_y_to_image_on_asymmetric_matrix():
    # symmetric only within the audit's tolerance: d(y, y') != d(y', y)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3, 3, size=(9, 2))
    m = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    m = m + rng.uniform(0.0, 1e-10, size=m.shape) * (m > 0)
    Y = FiniteMetricSpace(metric="matrix", dmatrix=m)
    assert not np.array_equal(m, m.T)
    X = FiniteMetricSpace.from_grid(np.arange(6.0))
    F = PlainSetValuedMap(X, Y, {(0, 1), (0, 4), (2, 8), (3, 0), (3, 5), (3, 7), (5, 2)})
    assert np.array_equal(F.dist_to_image_matrix(), _brute_dist_to_image(F))


# -- call-count guards -------------------------------------------------------

def _counting(monkeypatch, cls, name):
    calls = [0]
    real = getattr(cls, name)

    def wrapper(*args, **kw):
        calls[0] += 1
        return real(*args, **kw)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


@pytest.mark.parametrize("steps", [4, 1000])
def test_prop41_audit_query_count_does_not_grow_with_the_ladder(monkeypatch, steps):
    F = helpers.random_plain_map(np.random.default_rng(7), nx_max=15, ny_max=15)
    lad = TLadder(np.linspace(0.0, 1.05 * F.Y.diameter(), steps + 1))
    calls = _counting(monkeypatch, ParamSetValuedMap, "inverse_at_level_idx")
    assert prop41_audit(F, lad).ok
    assert calls[0] <= F.Y.n


def test_dist_to_image_matrix_row_count(monkeypatch):
    F = helpers.random_plain_map(np.random.default_rng(7), nx_max=15, ny_max=15)
    calls = _counting(monkeypatch, FiniteMetricSpace, "dist_row")
    F.dist_to_image_matrix()
    assert calls[0] <= F.Y.n


# -- keyed triple graphs against a set of triples ------------------------------

@st.composite
def triple_graphs(draw):
    """(X, Y, ladder, triples as drawn, monotone flag): monotone maps (each
    pair from a drawn onset up, perhaps at level 0 too), arbitrary maps,
    level-0-only maps and empty graphs, with repeated triples."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nx, ny, L = (int(v) for v in rng.integers(1, 6, size=3))
    X = FiniteMetricSpace.from_grid(np.arange(nx, dtype=float))
    Y = FiniteMetricSpace.from_grid(np.arange(ny, dtype=float))
    lad = TLadder(np.arange(L + 1, dtype=float))
    kind = draw(st.sampled_from(["monotone", "any", "level0", "empty"]))
    pairs = [(x, y) for x in range(nx) for y in range(ny)]
    if kind == "monotone":
        on = rng.integers(1, L + 2, size=len(pairs))  # L + 1: never
        trip = [(x, t, y) for (x, y), k in zip(pairs, on) for t in range(k, L + 1)]
        trip += [(x, 0, y) for x, y in pairs if rng.random() < 0.3]
    elif kind == "any":
        trip = [(x, t, y) for x, y in pairs for t in range(L + 1) if rng.random() < 0.4]
    elif kind == "level0":
        trip = [(x, 0, y) for x, y in pairs if rng.random() < 0.5]
    else:
        trip = []
    trip += [trip[i] for i in rng.integers(0, len(trip), size=3)] if trip else []
    rng.shuffle(trip)
    return X, Y, lad, trip, kind != "level0" and draw(st.booleans())


def _first_monotone_break(S: set, L: int):
    """The first pair, in the order sorted triples first name it, whose
    positive levels do not run from their least up to the top level."""
    seen = {}
    for (x, t, y) in sorted(S):
        seen.setdefault((x, y), set()).add(t)
    for (x, y), lv in seen.items():
        pos = lv - {0}
        if pos and pos != set(range(min(pos), L)):
            return x, y
    return None


@settings(max_examples=150, deadline=None)
@given(triple_graphs(), st.sampled_from([list, set, np.array]))
def test_keyed_graph_matches_a_set_of_triples(g, form):
    X, Y, lad, trip, monotone = g
    S, L = set(trip), len(lad)
    graph = np.array(trip, dtype=int).reshape(-1, 3) if form is np.array else form(trip)
    bad = _first_monotone_break(S, L) if monotone else None
    if bad is not None:
        with pytest.raises(ValueError, match=rf"violated for pair \({bad[0]},{bad[1]}\)$"):
            ParamSetValuedMap(X, Y, lad, graph=graph, monotone=True)
        return
    F = ParamSetValuedMap(X, Y, lad, graph=graph, monotone=monotone)
    assert F.graph.tolist() == sorted(map(list, S))
    onset = np.full((X.n, Y.n), L)
    for (x, t, y) in S:
        if t > 0:
            onset[x, y] = min(onset[x, y], t)
    assert np.array_equal(F.onset_matrix(), onset)
    dl = F.delta_matrix()
    for x in range(X.n):
        for y in range(Y.n):
            expect = float(lad.levels[onset[x, y]]) if onset[x, y] < L else INF
            assert F.delta(y, x) == dl[x, y] == expect
        for t in range(L):
            assert F.fibre(x, t).tolist() == sorted(b for (a, k, b) in S if (a, k) == (x, t))
            for y in range(Y.n):
                assert F.contains(x, t, y) == ((x, t, y) in S)
    for t in range(L):
        for y in range(Y.n):
            assert F.inverse_at_level_idx(t, y).tolist() == \
                sorted(a for (a, k, b) in S if (k, b) == (t, y))


@pytest.mark.parametrize("extra, err, msg", [
    ((2, 0, 0), "PointIndexError", "point index 2 out of range"),
    ((-1, 0, 0), "PointIndexError", "point index -1 out of range"),
    ((0, 0, 1), "PointIndexError", "point index 1 out of range"),
    ((0, 3, 0), "LadderError", "level index 3 off ladder"),
    ((0, -1, 0), "LadderError", "level index -1 off ladder"),
])
def test_keyed_graph_rejects_bad_triples(extra, err, msg):
    X = FiniteMetricSpace.from_grid([0.0, 1.0])
    Y = FiniteMetricSpace.from_grid([0.0])
    lad = TLadder(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(Exception, match=msg) as info:
        ParamSetValuedMap(X, Y, lad, graph=[(0, 1, 0), extra])
    assert type(info.value).__name__ == err


def test_keyed_graph_refuses_keys_past_64_bits():
    class Long(TLadder):                       # a ladder too long to exist
        def __len__(self):
            return 2 ** 62
    X, Y = FiniteMetricSpace.from_grid([0.0, 1.0]), FiniteMetricSpace.from_grid([0.0])
    with pytest.raises(LadderError, match="64-bit keys"):  # 2 x 2**62 x 1 keys
        ParamSetValuedMap(X, Y, Long(np.array([0.0, 1.0])), graph=[(0, 1, 0)])
