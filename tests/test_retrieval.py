"""Benchmark harness tests: geodistance, search, recall, manifests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcn import retrieval as rv


def make_record(rid, lat, lon, place=None, split="database"):
    return rv.ManifestRecord(rid, f"images/{rid}.ppm", lat, lon, place, split)


# ---------------------------------------------------------------------------
# geodistance
# ---------------------------------------------------------------------------

def test_geodistance_zero_for_identical_points():
    assert rv.geodistance((12.5, -30.0), (12.5, -30.0)) == 0.0


def test_geodistance_equatorial_arc():
    # 0.001 degrees of longitude on the equator = pi * R / 180 * 0.001
    expected = np.pi * rv.EARTH_RADIUS_M / 180.0 * 0.001
    got = rv.geodistance((0.0, 0.0), (0.0, 0.001))
    assert abs(got - expected) < 1e-6
    assert abs(got - 111.19) < 0.01


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_geodistance_symmetric_nonnegative(seed):
    r = np.random.default_rng(seed)
    a = (float(r.uniform(-89, 89)), float(r.uniform(-179, 179)))
    b = (float(r.uniform(-89, 89)), float(r.uniform(-179, 179)))
    dab = rv.geodistance(a, b)
    dba = rv.geodistance(b, a)
    assert dab >= 0.0
    assert abs(dab - dba) < 1e-9


def test_geodistance_rejects_out_of_range():
    with pytest.raises(rv.ManifestError):
        rv.geodistance((91.0, 0.0), (0.0, 0.0))
    with pytest.raises(rv.ManifestError):
        rv.geodistance((0.0, 0.0), (0.0, 181.0))


def test_geodistance_matrix_matches_scalar(rng):
    lats = rng.uniform(-60, 60, size=5)
    lons = rng.uniform(-120, 120, size=5)
    mat = rv.geodistance_matrix(lats, lons, lats, lons)
    for i in range(5):
        for j in range(5):
            assert abs(mat[i, j] - rv.geodistance((lats[i], lons[i]), (lats[j], lons[j]))) < 1e-6


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def test_search_exact_match_ranks_first(rng):
    db = unit_rows(rng.normal(size=(10, 8)))
    ids = [f"d{i:02d}" for i in range(10)]
    topk, sims = rv.search(db[3:4], db, ids, k=3)
    assert topk[0][0] == "d03"
    assert abs(sims[0][0] - 1.0) < 1e-12


def test_search_tie_broken_by_ascending_id(rng):
    db = np.array([[0.0, 1.0], [0.0, 1.0]])
    q = np.array([[1.0, 0.0]])  # orthogonal to both -> similarity 0, tie
    topk, sims = rv.search(q, db, ["zz", "aa"], k=2)
    assert topk[0] == ["aa", "zz"]
    np.testing.assert_allclose(sims[0], 0.0, atol=1e-12)


def test_search_exact_duplicates_tie_by_ascending_id(rng):
    # BLAS rounds a row's dot products differently by the row's position, so
    # the copies sit far apart (the tail of a 735-row product) at full width.
    base = unit_rows(rng.normal(size=(728, 256)))
    db = np.concatenate([base, base[:7]])  # row i and row 728 + i are identical
    ids = [f"d{i:04d}" for i in range(len(db))]
    near = np.repeat(np.arange(7), 100)
    qs = unit_rows(base[near] + 0.01 * rng.normal(size=(700, 256)))
    topk, top_sims = rv.search(qs, db, ids, k=2)
    assert [row[:2] for row in topk] == [[ids[i], ids[728 + i]] for i in near]
    assert np.array_equal(top_sims[:, 0], top_sims[:, 1])
    sims = rv.similarities(qs, db)
    assert np.array_equal(sims[:, :7], sims[:, 728:])


def shuffled_ids(gen, n):
    """Distinct ids whose order is not row order ("d10" sorts before "d9")."""
    return [f"d{i}" for i in gen.permutation(n)]


def with_distant_copies(gen, rows, copies):
    """Copy rows from the first half over rows of the second half."""
    half = len(rows) // 2
    for _ in range(copies if half else 0):
        rows[gen.integers(half, len(rows))] = rows[gen.integers(0, half)]
    return rows


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 12),
       st.integers(0, 6), st.booleans())
def test_search_matches_full_sort_oracle(seed, n, k, copies, grid):
    # grid: a few values a quarter apart, so dot products are exact and ties common
    gen = np.random.default_rng(seed)
    draw = ((lambda m: gen.integers(-2, 3, size=(m, 3)) / 4.0) if grid
            else (lambda m: unit_rows(gen.normal(size=(m, 16)))))
    db = with_distant_copies(gen, draw(n), copies)
    qs = np.concatenate([draw(4), db[gen.integers(0, n, size=2)]])
    ids = shuffled_ids(gen, n)
    k = min(k, n)
    topk, sims = rv.search(qs, db, ids, k=k)
    for qi in range(len(qs)):
        scored = sorted(((float(qs[qi] @ db[di]), ids[di]) for di in range(n)),
                        key=lambda t: (-t[0], t[1]))
        assert topk[qi] == [sid for _, sid in scored[:k]]


def test_search_clamps_k_with_warning(rng):
    db = unit_rows(rng.normal(size=(3, 4)))
    q = unit_rows(rng.normal(size=(1, 4)))
    with pytest.warns(UserWarning, match="clamping"):
        topk, _ = rv.search(q, db, ["a", "b", "c"], k=10)
    assert len(topk[0]) == 3


def test_search_dim_mismatch(rng):
    with pytest.raises(ValueError):
        rv.search(rng.normal(size=(1, 4)), rng.normal(size=(3, 5)), ["a", "b", "c"], k=1)


# ---------------------------------------------------------------------------
# recall
# ---------------------------------------------------------------------------

def brute_force_recall(q_desc, db_desc, q_records, db_records, ns, threshold=25.0):
    """Independent double-loop implementation used as the oracle."""
    hits = {n: 0 for n in ns}
    evaluated = 0
    for qi, q in enumerate(q_records):
        gt = set()
        for d in db_records:
            same = q.place_id is not None and d.place_id is not None and q.place_id == d.place_id
            if same or rv.geodistance((q.lat, q.lon), (d.lat, d.lon)) <= threshold:
                gt.add(d.id)
        if not gt:
            continue
        evaluated += 1
        order = sorted(((float(q_desc[qi] @ db_desc[di]), d.id)
                        for di, d in enumerate(db_records)), key=lambda t: (-t[0], t[1]))
        for n in ns:
            if any(did in gt for _, did in order[:n]):
                hits[n] += 1
    return {n: hits[n] / evaluated for n in ns}, evaluated


def test_recall_perfect_ranking():
    db_records = [make_record(f"d{i}", 0.0, 0.001 * i) for i in range(5)]
    q_records = [make_record(f"q{i}", 0.0, 0.001 * i, split="query") for i in range(5)]
    topk = [[f"d{i}"] + [f"d{j}" for j in range(5) if j != i] for i in range(5)]
    res = rv.recall_at_n(topk, q_records, db_records, [1, 5])
    assert res.recalls[1] == 1.0
    assert res.recalls[5] == 1.0


def test_recall_adversarial_rank_two():
    db_records = [make_record("near", 0.0, 0.0), make_record("far", 0.0, 0.01)]
    q_records = [make_record("q", 0.0, 0.0, split="query")]
    topk = [["far", "near"]]
    res = rv.recall_at_n(topk, q_records, db_records, [1, 5])
    assert res.recalls[1] == 0.0
    assert res.recalls[5] == 1.0


def test_recall_seeded_instance_matches_oracle(rng):
    n_db, n_q, dim = 40, 20, 8
    db_records = [make_record(f"d{i:02d}", float(rng.uniform(0, 0.01)),
                              float(rng.uniform(0, 0.01))) for i in range(n_db)]
    q_records = [make_record(f"q{i:02d}", float(rng.uniform(0, 0.01)),
                             float(rng.uniform(0, 0.01)), split="query") for i in range(n_q)]
    db = unit_rows(rng.normal(size=(n_db, dim)))
    qs = unit_rows(rng.normal(size=(n_q, dim)))
    ns = [1, 5, 10]
    topk, _ = rv.search(qs, db, [r.id for r in db_records], k=10)
    res = rv.recall_at_n(topk, q_records, db_records, ns)
    oracle, evaluated = brute_force_recall(qs, db, q_records, db_records, ns)
    assert res.num_queries == evaluated
    assert res.recalls == oracle


def test_recall_monotone_in_n(rng):
    db_records = [make_record(f"d{i:02d}", float(rng.uniform(0, 0.005)),
                              float(rng.uniform(0, 0.005))) for i in range(30)]
    q_records = [make_record(f"q{i:02d}", float(rng.uniform(0, 0.005)),
                             float(rng.uniform(0, 0.005)), split="query") for i in range(10)]
    db = unit_rows(rng.normal(size=(30, 6)))
    qs = unit_rows(rng.normal(size=(10, 6)))
    topk, _ = rv.search(qs, db, [r.id for r in db_records], k=20)
    res = rv.recall_at_n(topk, q_records, db_records, [1, 2, 3, 5, 10, 20])
    values = [res.recalls[n] for n in sorted(res.recalls)]
    assert values == sorted(values)


def test_recall_excludes_queries_without_ground_truth():
    db_records = [make_record("d0", 0.0, 0.0)]
    q_records = [make_record("q_near", 0.0, 0.0, split="query"),
                 make_record("q_far", 10.0, 10.0, split="query")]
    topk = [["d0"], ["d0"]]
    res = rv.recall_at_n(topk, q_records, db_records, [1])
    assert res.num_queries == 1
    assert res.num_excluded == 1
    assert res.excluded_ids == ["q_far"]


def test_recall_empty_queries_raise():
    with pytest.raises(ValueError, match="empty query set"):
        rv.recall_at_n([], [], [make_record("d0", 0.0, 0.0)], [1])


def test_recall_same_place_id_counts_as_match():
    db_records = [make_record("d0", 0.0, 0.0, place="p1")]
    q_records = [make_record("q0", 50.0, 50.0, place="p1", split="query")]
    res = rv.recall_at_n([["d0"]], q_records, db_records, [1])
    assert res.recalls[1] == 1.0


def test_recall_unknown_topk_id_is_value_error():
    db_records = [make_record("d0", 0.0, 0.0)]
    q_records = [make_record("q0", 0.0, 0.0, split="query")]
    with pytest.raises(ValueError, match="'ghost' is not a database id"):
        rv.recall_at_n([["d0", "ghost"]], q_records, db_records, [1])


def test_search_invariant_under_database_permutation(rng):
    db = unit_rows(rng.normal(size=(20, 8)))
    qs = unit_rows(rng.normal(size=(4, 8)))
    ids = [f"d{i:02d}" for i in range(20)]
    topk1, _ = rv.search(qs, db, ids, k=5)
    perm = rng.permutation(20)
    topk2, _ = rv.search(qs, db[perm], [ids[p] for p in perm], k=5)
    assert topk1 == topk2


# ---------------------------------------------------------------------------
# manifest io
# ---------------------------------------------------------------------------

def test_manifest_roundtrip(tmp_path, rng):
    records = [make_record(f"r{i}", float(rng.uniform(-80, 80)),
                           float(rng.uniform(-170, 170)),
                           place=None if i % 2 else f"p{i}",
                           split="query" if i % 3 == 0 else "database")
               for i in range(7)]
    path = tmp_path / "manifest.csv"
    rv.save_manifest(records, path)
    loaded = rv.load_manifest(path)
    assert loaded == records


def test_manifest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,path,lat,lon,place_id,split\n"
                    "a,x.ppm,0,0,,database\n"
                    "a,y.ppm,0,0,,database\n")
    with pytest.raises(rv.ManifestError, match="duplicate"):
        rv.load_manifest(path)


def test_manifest_rejects_bad_latitude(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,path,lat,lon,place_id,split\na,x.ppm,95,0,,database\n")
    with pytest.raises(rv.ManifestError, match="latitude"):
        rv.load_manifest(path)


@pytest.mark.parametrize("lat,lon", [("abc", "0"), ("0", ""), ("1e", "nan!")])
def test_manifest_rejects_non_numeric_coordinate(tmp_path, lat, lon):
    path = tmp_path / "m.csv"
    path.write_text(f"id,path,lat,lon,place_id,split\nq7,x.ppm,{lat},{lon},,database\n")
    with pytest.raises(rv.ManifestError, match="non-numeric") as info:
        rv.load_manifest(path)
    assert str(path) in str(info.value) and "'q7'" in str(info.value)


def test_manifest_out_of_range_names_file_and_id(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,path,lat,lon,place_id,split\nq7,x.ppm,0,181,,database\n")
    with pytest.raises(rv.ManifestError, match="longitude") as info:
        rv.load_manifest(path)
    assert str(path) in str(info.value) and "'q7'" in str(info.value)


def test_manifest_rejects_bad_split(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,path,lat,lon,place_id,split\na,x.ppm,0,0,,train\n")
    with pytest.raises(rv.ManifestError, match="split"):
        rv.load_manifest(path)


def test_manifest_rejects_wrong_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,file,lat,lon,place,split\n")
    with pytest.raises(rv.ManifestError, match="header"):
        rv.load_manifest(path)
