"""Recall@N benchmark harness: manifests, geodesic truth, exact search."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write

EARTH_RADIUS_M = 6_371_000.0
MANIFEST_HEADER = ["id", "path", "lat", "lon", "place_id", "split"]
DEFAULT_MATCH_THRESHOLD_M = 25.0


class ManifestError(ValueError):
    """Raised for malformed or inconsistent dataset manifests."""


@dataclass
class ManifestRecord:
    id: str
    path: str
    lat: float
    lon: float
    place_id: str | None
    split: str  # "database" or "query"


def _check_coords(lat: float, lon: float, ctx: str = "") -> None:
    if not (-90.0 <= lat <= 90.0):
        raise ManifestError(f"latitude {lat} out of range [-90, 90] {ctx}".rstrip())
    if not (-180.0 <= lon <= 180.0):
        raise ManifestError(f"longitude {lon} out of range [-180, 180] {ctx}".rstrip())


def geodistance(a, b) -> float:
    """Haversine distance in meters between (lat, lon) pairs in degrees."""
    lat1, lon1 = a
    lat2, lon2 = b
    _check_coords(lat1, lon1)
    _check_coords(lat2, lon2)
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def geodistance_matrix(lats_a, lons_a, lats_b, lons_b) -> np.ndarray:
    """Pairwise haversine distances (len(a) x len(b)) in meters."""
    p1 = np.radians(np.asarray(lats_a, dtype=np.float64))[:, None]
    p2 = np.radians(np.asarray(lats_b, dtype=np.float64))[None, :]
    l1 = np.radians(np.asarray(lons_a, dtype=np.float64))[:, None]
    l2 = np.radians(np.asarray(lons_b, dtype=np.float64))[None, :]
    h = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _manifest_rows(path):
    """A manifest's CSV rows, read as they are parsed; bad text is a ManifestError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except UnicodeDecodeError as exc:  # decoded in blocks, so the line is not known
            raise ManifestError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # such as a field over csv's size limit
            raise ManifestError(f"{path}: line {reader.line_num}: {exc}") from None


def load_manifest(path) -> list[ManifestRecord]:
    records = []
    seen = set()
    rows = _manifest_rows(path)
    if next(rows, None) != MANIFEST_HEADER:
        raise ManifestError(f"{path}: expected header {','.join(MANIFEST_HEADER)!r}")
    for row in rows:
        if not row:
            continue
        if len(row) != 6:
            raise ManifestError(f"{path}: row with {len(row)} fields: {row!r}")
        rid, rpath, lat_s, lon_s, place, split = row
        try:
            lat, lon = float(lat_s), float(lon_s)
        except ValueError:
            raise ManifestError(f"{path}: non-numeric coordinate ({lat_s!r}, {lon_s!r}) "
                                f"for id {rid!r}") from None
        _check_coords(lat, lon, f"for id {rid!r} in {path}")
        if rid in seen:
            raise ManifestError(f"{path}: duplicate id {rid!r}")
        if split not in ("database", "query"):
            raise ManifestError(f"{path}: bad split {split!r} for id {rid!r}")
        seen.add(rid)
        records.append(ManifestRecord(rid, rpath, lat, lon, place or None, split))
    return records


def save_manifest(records, path) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for r in records:
            writer.writerow([r.id, r.path, repr(r.lat), repr(r.lon), r.place_id or "", r.split])


def similarities(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """queries @ database.T, taken once per distinct database row and gathered back.

    BLAS rounds a row's dot products differently by the row's position; this
    gives identical rows (same bytes once -0.0 is folded into 0.0) equal columns.
    """
    rows = np.ascontiguousarray(database) + 0.0
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return (queries @ rows[first].T)[:, inverse]


def rank(sims: np.ndarray, ids, k: int) -> np.ndarray:
    """Column indices of each row's k highest similarities, best first.

    Columns rank by descending similarity, then by ascending id; NaN ranks
    last. The columns go into id order once. Each row keeps the columns
    strictly better than its k-th value, then the lowest-id columns equal to
    it (a NaN k-th value ties with NaN) until there are k, and stable-sorts
    only those.
    """
    by_id = np.argsort(np.asarray(ids), kind="stable")
    neg = np.take(sims, by_id, axis=1)
    np.negative(neg, out=neg)
    n, m = neg.shape
    if not 0 < k < m:
        return by_id[np.argsort(neg, axis=1, kind="stable")[:, :k]]
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    better, tied = neg < kth, neg == kth
    short = np.isnan(kth[:, 0])  # rows with fewer than k numbers
    if short.any():
        tied[short] = np.isnan(neg[short])
        better[short] = ~tied[short]
    need = k - better.sum(axis=1)
    over = tied.sum(axis=1) > need
    if over.any():
        tied[over] &= np.cumsum(tied[over], axis=1) <= need[over, None]
    flat = np.flatnonzero(better | tied).reshape(n, k)  # k per row, in id order
    order = np.argsort(neg.ravel()[flat], axis=1, kind="stable")
    return by_id[np.take_along_axis(flat, order, axis=1) % m]


def search(queries: np.ndarray, database: np.ndarray, db_ids, k: int):
    """Exact top-k by cosine similarity (dot product on unit vectors).

    Equal similarities rank by ascending database id (see rank). Returns
    (ids, sims): a list of id lists and an array of similarity rows, both
    length k per query.
    """
    if queries.ndim != 2 or database.ndim != 2 or queries.shape[1] != database.shape[1]:
        raise ValueError(
            f"search: descriptor dims differ ({queries.shape} vs {database.shape})")
    if len(db_ids) != database.shape[0]:
        raise ValueError("search: db_ids length does not match database rows")
    if k > database.shape[0]:
        warnings.warn(f"search: k={k} exceeds database size {database.shape[0]}; clamping")
        k = database.shape[0]
    ids_arr = np.asarray(db_ids)
    sims = similarities(queries, database)
    order = rank(sims, ids_arr, k)
    return ids_arr[order].astype(str).tolist(), np.take_along_axis(sims, order, axis=1)


@dataclass
class RecallResult:
    n_values: list[int]
    recalls: dict[int, float]
    threshold_m: float
    num_queries: int
    num_excluded: int
    excluded_ids: list[str] = field(default_factory=list)

    def to_dict(self, dataset: str = "") -> dict:
        return {
            "dataset": dataset,
            "n_values": list(self.n_values),
            "recall": {str(n): self.recalls[n] for n in self.n_values},
            "threshold_m": self.threshold_m,
            "num_queries": self.num_queries,
            "num_excluded": self.num_excluded,
        }


def place_relations(a, b):
    """(same, different) place-id matrices, len(a) x len(b); a missing id is neither."""
    codes: dict = {}  # place id -> integer code; -1 stands for a missing id
    ca, cb = (np.array([-1 if r.place_id is None else codes.setdefault(r.place_id, len(codes))
                        for r in recs], dtype=np.int64) for recs in (a, b))
    known = (ca[:, None] >= 0) & (cb >= 0)
    same = known & (ca[:, None] == cb)
    return same, known & ~same


def ground_truth_sets(query_records, db_records, threshold_m=DEFAULT_MATCH_THRESHOLD_M):
    """Boolean (queries x database) matrix of correct matches.

    A database record matches a query when it lies within threshold_m metres
    or carries the same place id.
    """
    dists = geodistance_matrix([q.lat for q in query_records], [q.lon for q in query_records],
                               [d.lat for d in db_records], [d.lon for d in db_records])
    return (dists <= threshold_m) | place_relations(query_records, db_records)[0]


def recall_at_n(topk_ids, query_records, db_records, n_values,
                threshold_m=DEFAULT_MATCH_THRESHOLD_M) -> RecallResult:
    """Fraction of queries whose top-N contains a true match.

    Queries with no correct database item at all are excluded from the
    denominator and reported. topk_ids must be ordered best-first and at
    least max(n_values) deep (or database-size deep if smaller); an id that
    is not a database id raises ValueError.
    """
    if len(query_records) == 0:
        raise ValueError("recall_at_n: empty query set")
    if len(topk_ids) != len(query_records):
        raise ValueError("recall_at_n: results and query records differ in length")
    n_values = sorted(int(n) for n in n_values)
    gt = ground_truth_sets(query_records, db_records, threshold_m)
    column = {d.id: j for j, d in enumerate(db_records)}
    try:
        cols = np.array([column[i] for ids in topk_ids for i in ids], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"recall_at_n: {exc.args[0]!r} is not a database id") from None
    depth = np.array([len(ids) for ids in topk_ids], dtype=np.intp)
    rows = np.repeat(np.arange(len(depth)), depth)
    hits = np.flatnonzero(gt[rows, cols])
    hit_rows, first = np.unique(rows[hits], return_index=True)  # each row's first hit
    first_hit = np.full(len(query_records), np.inf)  # rank of each query's first match
    first_hit[hit_rows] = hits[first] - (np.cumsum(depth) - depth)[hit_rows]
    valid = gt.any(axis=1)
    evaluated = int(valid.sum())
    if evaluated == 0:
        raise ValueError("recall_at_n: no query has a valid ground-truth match")
    recalls = {n: int(np.count_nonzero(first_hit[valid] < n)) / evaluated for n in n_values}
    excluded = [q.id for q, ok in zip(query_records, valid) if not ok]
    return RecallResult(n_values, recalls, threshold_m, evaluated, len(excluded), excluded)
