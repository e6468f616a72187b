"""Independent reference checks for the benchmark's workloads.

Nothing here imports `lgcn`: each check recomputes the expected answer from
the documented rules with plain numpy and compares the program's output
against it. Every check returns a list of error strings, empty on success,
so a negative control can assert that a planted wrong answer is rejected.

Ranking rule: cosine similarity (dot product of unit descriptors), highest
first, ties broken by ascending id. Two similarities within NEAR_TIE of each
other count as tied, which absorbs last-bit differences between two ways of
computing the same dot product; distinct descriptors in these workloads are
never that close, so only exact duplicates form ties.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
MATCH_RADIUS_M = 25.0      # recall ground truth
POSITIVE_RADIUS_M = 10.0   # mining positives
NEGATIVE_RADIUS_M = 25.0   # mining negatives
NEAR_TIE = 1e-12
BATCH_TOL = 1e-9
NORM_TOL = 1e-12


def haversine_m(lat_a, lon_a, lat_b, lon_b) -> np.ndarray:
    """Great-circle distances (len(a) x len(b)) in metres, inputs in degrees."""
    pa = np.deg2rad(np.asarray(lat_a, dtype=float))[:, None]
    pb = np.deg2rad(np.asarray(lat_b, dtype=float))[None, :]
    la = np.deg2rad(np.asarray(lon_a, dtype=float))[:, None]
    lb = np.deg2rad(np.asarray(lon_b, dtype=float))[None, :]
    s = np.sin((pb - pa) * 0.5) ** 2 + np.cos(pa) * np.cos(pb) * np.sin((lb - la) * 0.5) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


def _place_relations(places_a, places_b):
    """(same, different): both records carry a place id, equal or not."""
    codes: dict = {}
    ca = np.array([-1 if p is None else codes.setdefault(p, len(codes)) for p in places_a])
    cb = np.array([-1 if p is None else codes.setdefault(p, len(codes)) for p in places_b])
    both = (ca[:, None] >= 0) & (cb[None, :] >= 0)
    same = both & (ca[:, None] == cb[None, :])
    return same, both & ~same


def _fields(records):
    return ([r.id for r in records], [r.lat for r in records],
            [r.lon for r in records], [r.place_id for r in records])


def cosine_order(query: np.ndarray, database: np.ndarray, ids) -> tuple[np.ndarray, np.ndarray]:
    """Full stable ranking of database rows for one query: (order, sims)."""
    sims = database @ query
    return np.lexsort((_id_rank(ids), -sims)), sims


def _id_rank(ids) -> np.ndarray:
    pos = {v: i for i, v in enumerate(sorted(ids))}
    return np.array([pos[v] for v in ids])


def check_ranking(got_ids, query, database, ids, got_sims=None, notes=None) -> list[str]:
    """got_ids must be the first len(got_ids) entries of the cosine ranking.

    Each position must hold a similarity within NEAR_TIE of the expected one.
    Where the program's own similarities (got_sims) are exactly equal, its ids
    must ascend. An order within a near-tie that differs from ascending id is
    accepted and reported through `notes`.
    """
    order, sims = cosine_order(query, database, ids)
    index = {v: i for i, v in enumerate(ids)}
    if len(set(got_ids)) != len(got_ids) or any(g not in index for g in got_ids):
        return [f"ranking: ids not distinct database ids: {got_ids}"]
    mine = [sims[index[g]] for g in got_ids]
    for pos, g in enumerate(got_ids):
        want = sims[order[pos]]
        if abs(mine[pos] - want) > NEAR_TIE:
            return [f"ranking: position {pos} holds {g} (sim {mine[pos]!r}), "
                    f"expected sim {want!r} ({ids[order[pos]]})"]
        if pos and got_ids[pos - 1] > g:
            if got_sims is not None and got_sims[pos - 1] == got_sims[pos]:
                return [f"ranking: equal similarities at position {pos} not ordered by "
                        f"ascending id ({got_ids[pos - 1]} before {g})"]
            if abs(mine[pos - 1] - mine[pos]) <= NEAR_TIE and notes is not None:
                notes.append(f"near-tie at position {pos} ordered by descending id")
    return []


def check_unit_norm(desc: np.ndarray) -> list[str]:
    dev = np.abs(np.linalg.norm(desc, axis=-1) - 1.0)
    if not np.all(dev <= NORM_TOL):
        return [f"unit norm: largest deviation {float(dev.max())!r} > {NORM_TOL}"]
    return []


def check_batch_independent(single: np.ndarray, batched_row: np.ndarray) -> list[str]:
    dev = float(np.max(np.abs(single - batched_row)))
    if not dev <= BATCH_TOL:
        return [f"batch independence: single vs batch-64 differ by {dev!r} > {BATCH_TOL}"]
    return []


def expected_recall(topk_ids, query_records, db_records, n_values):
    """(recalls by n, evaluated count, excluded count) from the benchmark's haversine."""
    _, qlat, qlon, qplace = _fields(query_records)
    dids, dlat, dlon, dplace = _fields(db_records)
    same, _ = _place_relations(qplace, dplace)
    truth = (haversine_m(qlat, qlon, dlat, dlon) <= MATCH_RADIUS_M) | same
    col = {v: j for j, v in enumerate(dids)}
    hits = {n: 0 for n in n_values}
    evaluated = 0
    for qi, got in enumerate(topk_ids):
        if not truth[qi].any():
            continue
        evaluated += 1
        for n in n_values:
            if any(truth[qi, col[g]] for g in got[:n]):
                hits[n] += 1
    recalls = {n: hits[n] / evaluated for n in n_values} if evaluated else {}
    return recalls, evaluated, len(topk_ids) - evaluated


def check_recall(result, topk_ids, query_records, db_records, n_values) -> list[str]:
    """result: the program's recall object (recalls, num_queries, num_excluded)."""
    recalls, evaluated, excluded = expected_recall(topk_ids, query_records, db_records, n_values)
    got = ({n: result.recalls[n] for n in n_values}, result.num_queries, result.num_excluded)
    if got != (recalls, evaluated, excluded):
        return [f"recall: got {got}, expected {(recalls, evaluated, excluded)}"]
    return []


def _mining_masks(records, descriptors):
    ids, lat, lon, place = _fields(records)
    dist = haversine_m(lat, lon, lat, lon)
    same, diff = _place_relations(place, place)
    pos = (dist <= POSITIVE_RADIUS_M) | same
    neg = (dist > NEGATIVE_RADIUS_M) | diff
    np.fill_diagonal(pos, False)
    np.fill_diagonal(neg, False)
    # Similarities from the distinct rows, so equal descriptors tie exactly.
    uniq, inv = np.unique(descriptors, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    sims = (uniq @ uniq.T)[inv][:, inv]
    return ids, pos, neg, sims


def expected_triplets(records, descriptors: np.ndarray, k: int):
    """Mining rule, vectorised over anchors: [(anchor, positive, negatives)], skipped.

    Positives lie within 10 m or share a place id; negatives lie beyond 25 m
    or carry a different place id (place clauses need both ids). Each anchor
    takes its most similar positive and its k most similar negatives, ties
    by ascending id; anchors lacking either are skipped, and an unordered
    anchor/positive pair already emitted is dropped without counting.
    """
    ids, pos, neg, sims = _mining_masks(records, descriptors)
    n = len(ids)
    rank = np.broadcast_to(_id_rank(ids), (n, n))
    pos_order = np.lexsort((rank, np.where(pos, -sims, np.inf)), axis=-1)
    neg_order = np.lexsort((rank, np.where(neg, -sims, np.inf)), axis=-1)
    n_neg = np.minimum(neg.sum(axis=1), k)
    usable = pos.any(axis=1) & (n_neg > 0)
    out, seen = [], set()
    for i in np.flatnonzero(usable):
        pair = frozenset((ids[i], ids[pos_order[i, 0]]))
        if pair in seen:
            continue
        seen.add(pair)
        out.append((ids[i], ids[pos_order[i, 0]], [ids[j] for j in neg_order[i, :n_neg[i]]]))
    return out, int(n - usable.sum())


def _near_tie_mining(got, records, descriptors, k) -> list[str]:
    """Check mining output against the rule, accepting any order within near-ties."""
    ids, pos, neg, sims = _mining_masks(records, descriptors)
    col = {v: j for j, v in enumerate(ids)}
    seen, t = set(), 0
    for i in range(len(ids)):
        pos_i, neg_i = np.flatnonzero(pos[i]), np.flatnonzero(neg[i])
        if pos_i.size == 0 or neg_i.size == 0:
            continue
        near = {ids[j] for j in pos_i if sims[i, j] >= sims[i, pos_i].max() - NEAR_TIE}
        if t < len(got) and got[t][0] == ids[i]:
            _, p, negs = got[t]
            if p not in near or frozenset((ids[i], p)) in seen:
                return [f"mining: anchor {ids[i]} took positive {p}, expected one of {sorted(near)}"]
            want = np.sort(sims[i, neg_i])[::-1][:k]
            have = [sims[i, col[x]] if x in col and neg[i, col[x]] else np.nan for x in negs]
            if len(set(negs)) != len(negs) or len(have) != len(want) or not np.all(
                    np.abs(np.array(have) - want) <= NEAR_TIE):
                return [f"mining: anchor {ids[i]} negatives {negs} are not its {k} hardest"]
            seen.add(frozenset((ids[i], p)))
            t += 1
        elif not any(frozenset((ids[i], p)) in seen for p in near):
            return [f"mining: anchor {ids[i]} missing from the triplets"]
    if t != len(got):
        return [f"mining: unexpected triplet {got[t]}"]
    return []


def check_mining(result, records, descriptors: np.ndarray, k: int, notes=None) -> list[str]:
    """result: the program's mining object (triplets with anchor/positive/negatives, skipped).

    The output must equal the re-implementation above. Where it does not, it
    still passes if every difference is an order within a near-tie, which is
    reported through `notes`.
    """
    want, skipped = expected_triplets(records, descriptors, k)
    got = [(t.anchor, t.positive, list(t.negatives)) for t in result.triplets]
    if result.skipped != skipped:
        return [f"mining: skipped {result.skipped}, expected {skipped}"]
    if got == want:
        return []
    errors = _near_tie_mining(got, records, descriptors, k)
    if not errors and notes is not None:
        notes.append(f"mining: {sum(g != w for g, w in zip(got, want))} triplets differ "
                     f"from the ascending-id tie rule within near-ties")
    return errors


def check_frozen(before: dict, after: dict, prefix: str = "vit.") -> list[str]:
    """Every tensor under prefix is bitwise unchanged."""
    changed = [n for n in before if n.startswith(prefix)
               and before[n].tobytes() != np.ascontiguousarray(after[n]).tobytes()]
    return [f"frozen: backbone tensors changed: {changed[:3]}"] if changed else []


def check_trained(before: dict, after: dict, groups) -> list[str]:
    """Each parameter group outside the backbone has at least one changed tensor."""
    errors = []
    for g in groups:
        names = [n for n in before if n.startswith(g)]
        if not any(before[n].tobytes() != np.ascontiguousarray(after[n]).tobytes() for n in names):
            errors.append(f"trained: no tensor under {g!r} changed")
    return errors


def check_losses(losses) -> list[str]:
    bad = [x for x in losses if not (isinstance(x, float) and math.isfinite(x) and x >= 0.0)]
    return [f"loss: not finite and non-negative: {bad}"] if bad or not losses else []
