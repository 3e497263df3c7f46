"""The paper-scale catalog the benchmark runs on, built from the published counts.

85 CREMA-D and 24 RAVDESS identities, of which the first 24 / 8 form the
evaluation side. Every identity has one self-reenactment per source clip
(72 / 60) for every generator, and cross-reenactments are spread over the
drivers of each side so that every (dataset, generator, side) matches the
published totals: 66,069 videos in all. ``catalog.validate_counts`` proves the
shape on every run, so the workload cannot drift silently.

The seed never changes the shape, so the trial list (and its bytes) is the
same for every seed. It changes what a correct implementation must not
depend on: the order in which identities and videos reach ``Catalog``, and
which evaluation identity carries which soft-biometric annotation (the
published marginals are kept).
"""

from __future__ import annotations

import random

from avatarprint import catalog as cat
from avatarprint.protocol import Split

# (dev cross total, eval cross total) per generator, from the published
# development/evaluation count tables.
CROSS_TOTALS = {cat.Dataset.CREMA_D: (8280, 3438), cat.Dataset.RAVDESS: (1905, 840)}
PREFIX = {cat.Dataset.CREMA_D: "crem", cat.Dataset.RAVDESS: "ravd"}
TARGETS_PER_DRIVER = 8

G, E, A = cat.Gender, cat.Ethnicity, cat.AgeRange
# Published marginal distributions of the evaluation identities' annotations.
EVAL_ANNOTATIONS = {
    cat.Dataset.CREMA_D: (
        [G.FEMALE] * 12 + [G.MALE] * 12,
        [E.AFRICAN_AMERICAN] * 8 + [E.ASIAN] * 4 + [E.CAUCASIAN] * 8 + [E.HISPANIC] * 4,
        [A.R20_30] * 9 + [A.R31_45] * 13 + [A.R46_60] * 2,
    ),
    cat.Dataset.RAVDESS: (
        [G.FEMALE] * 4 + [G.MALE] * 4,
        [E.ASIAN] * 2 + [E.CAUCASIAN] * 6,
        [A.R20_30] * 7 + [A.R31_45],
    ),
}


def _cross_triples(side: list[str], total: int) -> list[tuple[str, str, int]]:
    """(driver, target, clip) for ``total`` cross videos on one side: drivers
    take turns, each cycling through its next TARGETS_PER_DRIVER identities
    and moving to a new source clip after every full cycle."""
    n = len(side)
    n_targets = min(TARGETS_PER_DRIVER, n - 1)
    out = []
    for k in range(total):
        i, m = k % n, k // n
        out.append((side[i], side[(i + 1 + m % n_targets) % n], m // n_targets))
    return out


def full_catalog(seed: int) -> tuple[cat.Catalog, Split]:
    rng = random.Random(seed)
    identities: list[cat.IdentityRecord] = []
    videos: list[cat.AvatarVideo] = []
    development: list[str] = []
    evaluation: list[str] = []
    for dataset, n_ids in cat.CANONICAL_IDENTITIES.items():
        ids = [f"{PREFIX[dataset]}{i:03d}" for i in range(n_ids)]
        n_eval = cat.CANONICAL_EVAL_IDENTITIES[dataset]
        ev_side, dev_side = ids[:n_eval], ids[n_eval:]
        evaluation += ev_side
        development += dev_side
        genders, ethnicities, ages = (rng.sample(col, len(col)) for col in EVAL_ANNOTATIONS[dataset])
        for i, ident in enumerate(ev_side):
            identities.append(cat.IdentityRecord(ident, dataset, genders[i], ethnicities[i], ages[i]))
        for ident in dev_side:
            identities.append(cat.IdentityRecord(ident, dataset, G.UNKNOWN, E.UNKNOWN, A.UNKNOWN))
        dev_total, eval_total = CROSS_TOTALS[dataset]
        triples = _cross_triples(dev_side, dev_total) + _cross_triples(ev_side, eval_total)
        triples += [(ident, ident, clip) for ident in ids for clip in range(cat.VIDEOS_PER_IDENTITY[dataset])]
        for gen in cat.Generator:
            for driver, target, clip in triples:
                videos.append(
                    cat.AvatarVideo(cat.cross_video_id(gen, target, driver, clip), dataset, gen, target, driver, clip)
                )
    rng.shuffle(identities)
    rng.shuffle(videos)
    return cat.Catalog(identities, videos), Split(frozenset(development), frozenset(evaluation))
