"""Shared builders and slow reference implementations used across the tests.

The reference implementations here deliberately take the obvious, quadratic
route (explicit double loops, exhaustive candidate filtering) so they can
cross-check the optimized library code.
"""

from __future__ import annotations

import numpy as np

from avatarprint.catalog import (
    AgeRange,
    AvatarVideo,
    Catalog,
    Dataset,
    Ethnicity,
    Gender,
    Generator,
    IdentityRecord,
    VIDEOS_PER_IDENTITY,
    cross_video_id,
)
from avatarprint.feature_store import (
    FeatureKind,
    FeatureSequence,
    FeatureStore,
    FeatureStoreWriter,
)
from avatarprint.protocol import Split, TrialSet


# -- full-scale benchmark catalog --------------------------------------------

# Soft-biometric annotations for the evaluation identities, chosen to match
# the published marginal distributions (CREMA-D: 12/12 gender, 8/4/8/4
# ethnicity, 9/13/2 age bins; RAVDESS: 4/4 gender, 2/6 ethnicity, 7/1 age).
_CREMA_EVAL_GENDERS = [Gender.FEMALE, Gender.MALE] * 12
_CREMA_EVAL_ETHNICITIES = (
    [Ethnicity.AFRICAN_AMERICAN] * 8
    + [Ethnicity.ASIAN] * 4
    + [Ethnicity.CAUCASIAN] * 8
    + [Ethnicity.HISPANIC] * 4
)
_CREMA_EVAL_AGES = [AgeRange.R20_30] * 9 + [AgeRange.R31_45] * 13 + [AgeRange.R46_60] * 2
_RAV_EVAL_GENDERS = [Gender.FEMALE, Gender.MALE] * 4
_RAV_EVAL_ETHNICITIES = [Ethnicity.ASIAN] * 2 + [Ethnicity.CAUCASIAN] * 6
_RAV_EVAL_AGES = [AgeRange.R20_30] * 7 + [AgeRange.R31_45]


def spread_cross(side: list[str], total: int) -> list[tuple[str, str, int]]:
    """Distribute ``total`` cross-reenactment videos over the drivers of one
    split side.

    Drivers receive near-equal quotas (leftovers go to the first drivers in
    order). Each driver cycles through up to eight candidate targets, moving
    to its next source clip after every full cycle, so no
    (driver, target, clip) triple repeats.
    """
    n = len(side)
    n_targets = min(8, n - 1)
    base, extra = divmod(total, n)
    out: list[tuple[str, str, int]] = []
    for i, driver in enumerate(side):
        quota = base + (1 if i < extra else 0)
        targets = [side[(i + 1 + k) % n] for k in range(n_targets)]
        for v in range(quota):
            out.append((driver, targets[v % n_targets], v // n_targets))
    return out


def benchmark_catalog() -> tuple[Catalog, Split]:
    """Full-scale catalog reproducing the published per-side video counts.

    85 CREMA-D and 24 RAVDESS identities; the first 24 / 8 form the
    evaluation side. Every identity has one self-reenactment per source clip
    per generator (72 / 60 clips); cross-reenactments are spread so each
    (dataset, side) matches the published totals for every generator.
    """
    crema_ids = [f"crem{i:03d}" for i in range(85)]
    rav_ids = [f"ravd{i:03d}" for i in range(24)]

    identities: list[IdentityRecord] = []
    for i, ident in enumerate(crema_ids):
        if i < 24:
            rec = IdentityRecord(
                ident,
                Dataset.CREMA_D,
                _CREMA_EVAL_GENDERS[i],
                _CREMA_EVAL_ETHNICITIES[i],
                _CREMA_EVAL_AGES[i],
            )
        else:
            rec = IdentityRecord(
                ident, Dataset.CREMA_D, Gender.UNKNOWN, Ethnicity.UNKNOWN, AgeRange.UNKNOWN
            )
        identities.append(rec)
    for i, ident in enumerate(rav_ids):
        if i < 8:
            rec = IdentityRecord(
                ident,
                Dataset.RAVDESS,
                _RAV_EVAL_GENDERS[i],
                _RAV_EVAL_ETHNICITIES[i],
                _RAV_EVAL_AGES[i],
            )
        else:
            rec = IdentityRecord(
                ident, Dataset.RAVDESS, Gender.UNKNOWN, Ethnicity.UNKNOWN, AgeRange.UNKNOWN
            )
        identities.append(rec)

    # (dev side, eval side, dev cross total, eval cross total) per generator
    layout = {
        Dataset.CREMA_D: (crema_ids[24:], crema_ids[:24], 8280, 3438),
        Dataset.RAVDESS: (rav_ids[8:], rav_ids[:8], 1905, 840),
    }
    videos: list[AvatarVideo] = []
    for dataset, (dev, ev, dev_cross, eval_cross) in layout.items():
        clips = VIDEOS_PER_IDENTITY[dataset]
        triples = spread_cross(dev, dev_cross) + spread_cross(ev, eval_cross)
        for gen in Generator:
            for ident in dev + ev:
                for clip in range(clips):
                    videos.append(
                        AvatarVideo(
                            cross_video_id(gen, ident, ident, clip),
                            dataset, gen, ident, ident, clip,
                        )
                    )
            for driver, target, clip in triples:
                videos.append(
                    AvatarVideo(
                        cross_video_id(gen, target, driver, clip),
                        dataset, gen, target, driver, clip,
                    )
                )

    split = Split(
        development=frozenset(crema_ids[24:] + rav_ids[8:]),
        evaluation=frozenset(crema_ids[:24] + rav_ids[:8]),
    )
    return Catalog(identities, videos), split


# -- small hand-built catalogs ------------------------------------------------


def tiny_catalog(
    n_ids: int = 4,
    clips: int = 3,
    cross_per_driver: int = 2,
    dataset: Dataset = Dataset.CREMA_D,
    generators: tuple[Generator, ...] = (Generator.GAGA,),
) -> Catalog:
    """Minimal complete catalog: every identity has ``clips`` self videos and
    drives its next ``cross_per_driver`` neighbours (clip 0) per generator."""
    ids = [f"id{i:02d}" for i in range(n_ids)]
    identities = [
        IdentityRecord(i, dataset, Gender.UNKNOWN, Ethnicity.UNKNOWN, AgeRange.UNKNOWN)
        for i in ids
    ]
    videos = []
    for gen in generators:
        for idx, ident in enumerate(ids):
            for clip in range(clips):
                videos.append(
                    AvatarVideo(
                        cross_video_id(gen, ident, ident, clip),
                        dataset, gen, ident, ident, clip,
                    )
                )
            for k in range(min(cross_per_driver, n_ids - 1)):
                target = ids[(idx + 1 + k) % n_ids]
                videos.append(
                    AvatarVideo(
                        cross_video_id(gen, target, ident, 0),
                        dataset, gen, target, ident, 0,
                    )
                )
    return Catalog(identities, videos)


def trials_from_rows(rows) -> TrialSet:
    """The trials of (trial_id, dataset, generator, enroll_video, test_video,
    label) string rows, in row order. Videos and conditions are coded in
    order of first appearance: ``TrialSet`` sorts its vocabularies itself."""
    rows = [list(row) for row in rows]
    videos = list(dict.fromkeys(video for row in rows for video in row[3:5]))
    conditions = list(dict.fromkeys((row[1], row[2]) for row in rows))
    video_code = {video: i for i, video in enumerate(videos)}
    condition_code = {pair: i for i, pair in enumerate(conditions)}
    return TrialSet(videos, conditions, [int(row[0][1:]) for row in rows],
                    [condition_code[row[1], row[2]] for row in rows],
                    [video_code[row[3]] for row in rows], [video_code[row[4]] for row in rows],
                    [int(row[5]) for row in rows])


def random_store(
    path,
    video_ids,
    dim: int,
    rng: np.random.Generator,
    frames=(40, 80),
    kind: FeatureKind = FeatureKind.EMBEDDING,
) -> FeatureStore:
    """Store of Gaussian feature sequences, one per id, varied lengths."""
    writer = FeatureStoreWriter(path, kind, dim)
    lo, hi = frames if isinstance(frames, tuple) else (frames, frames)
    for vid in video_ids:
        t = int(rng.integers(lo, hi + 1))
        writer.put(FeatureSequence(vid, kind, rng.normal(size=(t, dim)), 30.0))
    return writer.seal()


# -- reference implementations -------------------------------------------------


def pairwise_auc(genuine, impostor) -> float:
    """AUC straight from its definition: compare every genuine score with
    every impostor score, half credit for ties."""
    g = np.asarray(genuine, dtype=np.float64)
    i = np.asarray(impostor, dtype=np.float64)
    wins = np.sum(g[:, None] > i[None, :]) + 0.5 * np.sum(g[:, None] == i[None, :])
    return 100.0 * float(wins) / (g.size * i.size)


def quadratic_roc_points(genuine, impostor) -> tuple[np.ndarray, np.ndarray]:
    """ROC straight from its definition: for every distinct score, highest
    first, the fraction of each class scoring at or above it."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    thresholds = np.unique(np.concatenate([genuine, impostor]))[::-1]
    tpr = [0.0]
    fpr = [0.0]
    for t in thresholds:
        tpr.append(float(np.mean(genuine >= t)))
        fpr.append(float(np.mean(impostor >= t)))
    return np.array(fpr), np.array(tpr)


def double_loop_pair_score(first: np.ndarray, second: np.ndarray) -> float:
    """Mean pairwise cosine of two window-embedding sets, one pair at a time."""
    total = 0.0
    for u in first:
        for v in second:
            total += float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return total / (len(first) * len(second))


def reference_forward_batch(params, windows):
    """Embedding forward pass that materializes every head's (B, H, F, a)
    keys and values, with einsum throughout. Returns (z, state) for
    ``reference_backward_batch``."""
    from types import SimpleNamespace

    cfg = params.config
    windows = np.asarray(windows, dtype=np.float64)
    batch, frames = windows.shape[0], windows.shape[1]
    state = SimpleNamespace(aggregated=[], activated=[])
    if cfg.graph is not None:
        norm = params.graph.norm_matrix()
        hidden = windows.reshape(batch * frames, cfg.input_dim // 2, 2)
        for layer in range(cfg.graph.layers):
            aggregated = np.einsum("kl,nlc->nkc", norm, hidden)
            pre = aggregated @ params[f"graph.l{layer}.weight"] + params[f"graph.l{layer}.bias"]
            hidden = np.tanh(pre)
            state.aggregated.append(aggregated)
            state.activated.append(hidden)
        desc = np.einsum("nkc,kc->nc", hidden, params["graph.readout"])
        attn_input = desc.reshape(batch, frames, cfg.graph.hidden_dim)
    else:
        attn_input = windows

    scale = 1.0 / np.sqrt(cfg.head_dim)
    keys = np.einsum("bfd,hda->bhfa", attn_input, params["attn.key"])
    values = np.einsum("bfd,hda->bhfa", attn_input, params["attn.value"])
    logits = np.einsum("bhfa,ha->bhf", keys, params["attn.query"]) * scale
    logits = logits - logits.max(axis=2, keepdims=True)
    expw = np.exp(logits)
    weights = expw / expw.sum(axis=2, keepdims=True)
    pooled = np.einsum("bhf,bhfa->bha", weights, values).reshape(batch, cfg.attention_dim)
    zhat = pooled @ params["attn.out"]
    z_raw = zhat @ params["proj.weight"] + params["proj.bias"]
    norms = np.linalg.norm(z_raw, axis=1)
    z = z_raw / norms[:, None]
    state.__dict__.update(
        attn_input=attn_input, keys=keys, values=values, weights=weights,
        pooled=pooled, zhat=zhat, norms=norms, z=z,
    )
    return z, state


def reference_backward_batch(params, state, d_z) -> np.ndarray:
    """Parameter gradient through the materialized keys and values of
    ``reference_forward_batch``, as a flat vector aligned with params.flat."""
    cfg = params.config
    batch = d_z.shape[0]
    grads = {name: np.zeros(shape) for name, shape in params.shapes}

    inner = np.einsum("bd,bd->b", state.z, d_z)
    d_raw = (d_z - state.z * inner[:, None]) / state.norms[:, None]
    grads["proj.bias"] += d_raw.sum(axis=0)
    grads["proj.weight"] += state.zhat.T @ d_raw
    d_zhat = d_raw @ params["proj.weight"].T
    grads["attn.out"] += state.pooled.T @ d_zhat
    d_pooled = (d_zhat @ params["attn.out"].T).reshape(batch, cfg.heads, cfg.head_dim)

    d_weights = np.einsum("bha,bhfa->bhf", d_pooled, state.values)
    d_values = np.einsum("bhf,bha->bhfa", state.weights, d_pooled)
    mix = np.einsum("bhf,bhf->bh", state.weights, d_weights)
    d_logits = state.weights * (d_weights - mix[:, :, None])
    d_logits *= 1.0 / np.sqrt(cfg.head_dim)
    grads["attn.query"] += np.einsum("bhf,bhfa->ha", d_logits, state.keys)
    d_keys = np.einsum("bhf,ha->bhfa", d_logits, params["attn.query"])
    grads["attn.key"] += np.einsum("bfd,bhfa->hda", state.attn_input, d_keys)
    grads["attn.value"] += np.einsum("bfd,bhfa->hda", state.attn_input, d_values)

    if cfg.graph is not None:
        d_input = np.einsum("bhfa,hda->bfd", d_keys, params["attn.key"])
        d_input += np.einsum("bhfa,hda->bfd", d_values, params["attn.value"])
        nodes = params.graph.num_nodes
        norm = params.graph.norm_matrix()
        d_desc = d_input.reshape(batch * cfg.window_len, cfg.graph.hidden_dim)
        grads["graph.readout"] += np.einsum("nkc,nc->kc", state.activated[-1], d_desc)
        d_hidden = np.repeat(d_desc[:, None, :], nodes, axis=1) * params["graph.readout"]
        for layer in range(cfg.graph.layers - 1, -1, -1):
            d_pre = d_hidden * (1.0 - state.activated[layer] ** 2)
            grads[f"graph.l{layer}.weight"] += np.einsum(
                "nki,nkj->ij", state.aggregated[layer], d_pre
            )
            grads[f"graph.l{layer}.bias"] += d_pre.sum(axis=(0, 1))
            d_agg = d_pre @ params[f"graph.l{layer}.weight"].T
            d_hidden = np.einsum("kl,nkc->nlc", norm, d_agg)

    return np.concatenate([grads[name].ravel() for name, _ in params.shapes])


def reference_mine(d2, labels, mining: str, rng):
    """Triplet mining one anchor at a time, filtering candidates by label."""
    n = d2.shape[0]
    pos = np.empty(n, dtype=np.int64)
    neg = np.empty(n, dtype=np.int64)
    for i in range(n):
        same = np.flatnonzero(labels == labels[i])
        same = same[same != i]
        diff = np.flatnonzero(labels != labels[i])
        if same.size == 0:
            pos[i] = i
        elif mining == "random":
            pos[i] = rng.choice(same)
        else:
            pos[i] = same[np.argmax(d2[i, same])]
        d_pos = d2[i, pos[i]]
        if mining == "random":
            neg[i] = rng.choice(diff)
        elif mining == "hardest":
            neg[i] = diff[np.argmin(d2[i, diff])]
        else:
            ahead = diff[d2[i, diff] > d_pos]
            neg[i] = ahead[np.argmin(d2[i, ahead])] if ahead.size else diff[
                np.argmin(d2[i, diff])
            ]
    return pos, neg


def mined_triplet_loss(params, windows, labels, pos, neg, margin: float) -> float:
    """Batch triplet objective for fixed (anchor, positive, negative) indices,
    computed from embeddings alone (no gradient code involved), for
    finite-difference checks."""
    from avatarprint.embedder import forward_batch

    z, _ = forward_batch(params, windows)
    terms = ((z - z[pos]) ** 2).sum(axis=1) - ((z - z[neg]) ** 2).sum(axis=1) + margin
    return float(np.maximum(terms, 0.0).mean())


def finite_difference_grad(loss_fn, flat: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences over every entry of ``flat``, mutated in place."""
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = loss_fn()
        flat[i] = orig - h
        minus = loss_fn()
        flat[i] = orig
        grad[i] = (plus - minus) / (2.0 * h)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst per-component relative disagreement, floored so that entries
    which are zero in both vectors compare by absolute difference."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def random_model(rng: np.random.Generator, with_graph: bool):
    """Small random model: a path-graph encoder over 3-5 landmarks when
    ``with_graph``, else attention over 4-8 raw input dimensions."""
    from avatarprint.embedder import (
        AdjacencyGraph,
        EmbedderConfig,
        GraphEncoderConfig,
        init_params,
    )

    if with_graph:
        nodes = int(rng.integers(3, 6))
        input_dim = 2 * nodes
        order = [int(i) for i in rng.permutation(nodes)]
        edges = {tuple(sorted(p)) for p in zip(order[:-1], order[1:])}
        graph = AdjacencyGraph(nodes, tuple(sorted(edges)))
        graph_cfg = GraphEncoderConfig(layers=1, hidden_dim=int(rng.integers(4, 7)))
    else:
        input_dim = int(rng.integers(4, 9))
        graph, graph_cfg = None, None

    heads = int(rng.integers(1, 3))
    attention_dim = heads * int(rng.integers(2, 4))
    attn_in = graph_cfg.hidden_dim if graph_cfg else input_dim
    config = EmbedderConfig(
        input_dim=input_dim,
        heads=heads,
        attention_dim=attention_dim,
        projection_dim=int(rng.integers(2, min(4, attn_in - 1) + 1)),
        window_len=int(rng.choice([4, 6])),
        graph=graph_cfg,
        seed=int(rng.integers(0, 2**31)),
    )
    return init_params(config, graph=graph)


def training_shaped_graph_model(rng: np.random.Generator):
    """A one-layer graph model of the training benchmark's shape: 16 chained
    landmarks, hidden 32, 32-frame windows, 4 heads over 32 attention
    dimensions, 16-dimensional embeddings, with a random readout."""
    from avatarprint.embedder import (
        AdjacencyGraph,
        EmbedderConfig,
        GraphEncoderConfig,
        init_params,
    )

    graph = AdjacencyGraph(16, tuple((i, i + 1) for i in range(15)))
    config = EmbedderConfig(input_dim=32, heads=4, attention_dim=32, projection_dim=16,
                            window_len=32, graph=GraphEncoderConfig(1, 32), seed=5)
    params = init_params(config, graph=graph)
    params["graph.readout"][:] = rng.normal(size=params["graph.readout"].shape) / 4
    return params


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during ``fn(*args)``."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Identities with three, three, two and one windows: anchors can share a
# mined positive, and the single-window anchor is its own positive.
SETUP_LABELS = np.array([0, 0, 0, 1, 1, 1, 2, 2, 3])


def random_embedder_setup(rng: np.random.Generator, with_graph: bool):
    """Small random model plus a labeled window batch whose mined triplets
    (semi-hard, the training default) sit safely away from the hinge kink,
    so central differences stay clean.

    Returns (params, windows, labels, margin); windows of one identity are
    noisy copies of one pattern.
    """
    from avatarprint.embedder import forward_batch
    from avatarprint.training import _squared_distances

    params = random_model(rng, with_graph)
    config = params.config
    margin = 1.0
    labels = SETUP_LABELS
    for _ in range(50):
        patterns = rng.normal(size=(labels.max() + 1, config.window_len, config.input_dim))
        windows = patterns[labels] + 0.3 * rng.normal(
            size=(labels.size, config.window_len, config.input_dim)
        )
        z, _ = forward_batch(params, windows)
        d2 = _squared_distances(z)
        pos, neg = reference_mine(d2, labels, "semi-hard", None)
        n = labels.size
        terms = d2[np.arange(n), pos] - d2[np.arange(n), neg] + margin
        if np.any(terms > 0.0) and np.all(np.abs(terms) > 0.05):
            return params, windows, labels, margin
    raise AssertionError("could not find a window batch clear of the hinge kink")


def enumerate_trials_bruteforce(
    catalog: Catalog, split: Split, include_identical: bool
) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """Exhaustive trial enumeration by scanning every video pair.

    Returns (genuine, impostor) sets of (enroll, test) video id pairs.
    Quadratic in the number of videos; only for very small catalogs.
    """
    eval_ids = split.evaluation
    vids = list(catalog.videos())
    genuine: set[tuple[str, str]] = set()
    impostor: set[tuple[str, str]] = set()
    for e in vids:
        if e.target != e.driver or e.driver not in eval_ids:
            continue
        for t in vids:
            if (t.dataset, t.generator) != (e.dataset, e.generator):
                continue
            if t.target != e.target or t.driver not in eval_ids:
                continue
            if t.driver == t.target:
                if include_identical or t.video_id != e.video_id:
                    genuine.add((e.video_id, t.video_id))
            else:
                impostor.add((e.video_id, t.video_id))
    return genuine, impostor
