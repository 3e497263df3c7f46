"""Window embedding model.

Maps a fixed-length window of per-frame features to a compact L2-normalized
embedding: optional per-frame graph encoder over facial landmarks (with a
learned per-node readout, run in blocks of frames), multi-head
temporal attention pooling (learned query vectors over key/value projections
of the frames), a linear map back to the frame-feature dimension, and a final
projection head. Gradients are derived analytically; no autodiff framework is
involved, which keeps the arithmetic inspectable and lets tests compare every
coordinate against finite differences.

``forward_batch`` is ``attend`` over ``encode_frames``: the first gives each
frame's input to attention (its graph descriptor, or the frame itself), and
the second pools a window's encoded frames. An encoded row depends on its
frame alone, so scoring encodes the frames of many videos in one call and
cuts the windows afterwards, once per frame instead of once per window
covering it. Attention runs on one video's windows at a time: its logits
product over the batch's rows does not round the same in every batch
size, and a pair scored alone must equal its row in a table.

The per-head keys X·W_k[h] and values X·W_v[h] are never formed. With frames
X (F, dim), head h's logits are X·(W_k[h] q[h])/√a and its pooled output is
(w·X)·W_v[h], w being the softmax weights. Backward collapses the same way:
with S[h] = Σ_bf ∂logit·x, ∂W_k[h] = S[h] ⊗ q[h] and ∂q[h] = W_k[h]ᵀ S[h],
and ∂W_v[h] = Σ_b (w·X)[b,h] ⊗ ∂pooled[b,h]. The parameters keep the
key/value layout, so checkpoints are unchanged.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .feature_store import NormalizationParams
from .files import AtomicFile


class EmbedderError(ValueError):
    pass


class NonFiniteError(EmbedderError):
    """A non-finite value appeared; carries the layer where it surfaced and
    what else is known of where."""

    def __init__(self, layer: str, detail: str = ""):
        super().__init__(f"non-finite value in {layer}" + (f": {detail}" if detail else ""))
        self.layer = layer
        self.detail = detail


# -- landmark adjacency ----------------------------------------------------


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected landmark topology; node indices are 0-based."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise EmbedderError("graph needs at least one node")
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise EmbedderError(f"self-loop ({i},{i}); every node aggregates itself already")
            if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
                raise EmbedderError(f"edge ({i},{j}) out of range for {self.num_nodes} nodes")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise EmbedderError(f"duplicate edge ({i},{j})")
            seen.add(key)

    def norm_matrix(self) -> np.ndarray:
        """Row-normalized aggregation over each node plus its neighbors."""
        mat = np.eye(self.num_nodes)
        for i, j in self.edges:
            mat[i, j] = 1.0
            mat[j, i] = 1.0
        return mat / mat.sum(axis=1, keepdims=True)

    def to_dict(self) -> dict:
        return {"num_nodes": self.num_nodes, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, d: Mapping) -> "AdjacencyGraph":
        return cls(int(d["num_nodes"]), tuple((int(i), int(j)) for i, j in d["edges"]))


def load_adjacency(path: str | Path, num_nodes: int) -> AdjacencyGraph:
    """The graph of ``num_nodes`` nodes whose edges an edge-list CSV ("i,j"
    per line, 0-based) lists."""
    path = Path(path)
    edges: list[tuple[int, int]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise EmbedderError(f"{path}:{lineno}: expected 'i,j', got {row!r}")
            try:
                i, j = int(row[0]), int(row[1])
            except ValueError:
                raise EmbedderError(f"{path}:{lineno}: non-integer node index {row!r}") from None
            edges.append((i, j))
    return AdjacencyGraph(num_nodes, tuple(edges))


# -- configuration ---------------------------------------------------------


@dataclass(frozen=True)
class GraphEncoderConfig:
    layers: int = 1
    hidden_dim: int = 32
    # Path the graph was loaded from. Checkpoints do not record it (the edges
    # travel in the checkpoint itself); the field stays for callers that
    # still pass it (`perfbench/workloads.py:setup_job`).
    adjacency: str | None = None

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise EmbedderError(f"graph encoder needs 'layers' >= 1, got {self.layers}")
        if self.hidden_dim < 1:
            raise EmbedderError(f"graph encoder needs 'hidden_dim' >= 1, got {self.hidden_dim}")


@dataclass(frozen=True)
class EmbedderConfig:
    """Shape of the model.

    input_dim is the per-frame dimension as stored; with a graph encoder it
    must equal 2 x num_nodes and the attention block then runs on the graph
    encoder's hidden_dim instead.
    """

    input_dim: int
    heads: int = 4
    attention_dim: int = 64
    projection_dim: int = 16
    window_len: int = 32
    graph: GraphEncoderConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise EmbedderError("input_dim must be >= 1")
        if self.heads < 1 or self.attention_dim % self.heads != 0:
            raise EmbedderError(
                f"heads ({self.heads}) must divide attention_dim ({self.attention_dim})"
            )
        if self.window_len < 2 or self.window_len % 2 != 0:
            raise EmbedderError("window_len must be an even number >= 2")
        if self.projection_dim >= self.attn_input_dim:
            raise EmbedderError(
                f"projection_dim ({self.projection_dim}) must be smaller than the "
                f"attention input dimension ({self.attn_input_dim})"
            )

    @property
    def attn_input_dim(self) -> int:
        return self.graph.hidden_dim if self.graph is not None else self.input_dim

    @property
    def head_dim(self) -> int:
        return self.attention_dim // self.heads

    def to_dict(self) -> dict:
        d = {
            "input_dim": self.input_dim,
            "heads": self.heads,
            "attention_dim": self.attention_dim,
            "projection_dim": self.projection_dim,
            "window_len": self.window_len,
            "seed": self.seed,
            "graph": None,
        }
        if self.graph is not None:
            d["graph"] = {"layers": self.graph.layers, "hidden_dim": self.graph.hidden_dim}
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "EmbedderConfig":
        graph = None
        if d.get("graph"):
            g = d["graph"]
            # an "adjacency" key, written by older checkpoints, is ignored
            graph = GraphEncoderConfig(int(g["layers"]), int(g["hidden_dim"]))
        return cls(
            input_dim=int(d["input_dim"]),
            heads=int(d["heads"]),
            attention_dim=int(d["attention_dim"]),
            projection_dim=int(d["projection_dim"]),
            window_len=int(d["window_len"]),
            graph=graph,
            seed=int(d.get("seed", 0)),
        )


# -- parameters --------------------------------------------------------------


def _param_shapes(config: EmbedderConfig) -> list[tuple[str, tuple[int, ...]]]:
    h, a = config.heads, config.head_dim
    dim = config.attn_input_dim
    shapes: list[tuple[str, tuple[int, ...]]] = []
    if config.graph is not None:
        in_dim = 2
        for layer in range(config.graph.layers):
            shapes.append((f"graph.l{layer}.weight", (in_dim, config.graph.hidden_dim)))
            shapes.append((f"graph.l{layer}.bias", (config.graph.hidden_dim,)))
            in_dim = config.graph.hidden_dim
        shapes.append(("graph.readout", (config.input_dim // 2, config.graph.hidden_dim)))
    shapes += [
        ("attn.query", (h, a)),
        ("attn.key", (h, dim, a)),
        ("attn.value", (h, dim, a)),
        ("attn.out", (config.attention_dim, dim)),
        ("proj.weight", (dim, config.projection_dim)),
        ("proj.bias", (config.projection_dim,)),
    ]
    return shapes


class EmbedderParams:
    """All weights in one flat float64 vector with named views.

    Views share memory with ``flat``: optimizer updates on the flat vector
    are immediately visible through the named arrays and vice versa.
    """

    def __init__(
        self,
        config: EmbedderConfig,
        flat: np.ndarray,
        normalization: NormalizationParams | None = None,
        graph: AdjacencyGraph | None = None,
    ):
        if (config.graph is None) != (graph is None):
            raise EmbedderError("graph topology must be supplied iff the config has one")
        if graph is not None and config.input_dim != 2 * graph.num_nodes:
            raise EmbedderError(
                f"input_dim {config.input_dim} incompatible with {graph.num_nodes} "
                f"landmark nodes (expected {2 * graph.num_nodes})"
            )
        self.config = config
        self.shapes = _param_shapes(config)
        total = sum(int(np.prod(s)) for _, s in self.shapes)
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (total,):
            raise EmbedderError(f"flat parameter vector has {flat.shape}, expected ({total},)")
        if not np.all(np.isfinite(flat)):
            raise NonFiniteError("parameters")
        self.flat = flat
        self.normalization = normalization
        self.graph = graph
        self.views: dict[str, np.ndarray] = {}
        pos = 0
        for name, shape in self.shapes:
            size = int(np.prod(shape))
            self.views[name] = self.flat[pos : pos + size].reshape(shape)
            pos += size

    def __getitem__(self, name: str) -> np.ndarray:
        return self.views[name]

    @property
    def size(self) -> int:
        return self.flat.size

    def copy(self) -> "EmbedderParams":
        return EmbedderParams(self.config, self.flat.copy(), self.normalization, self.graph)


def init_params(
    config: EmbedderConfig,
    normalization: NormalizationParams | None = None,
    graph: AdjacencyGraph | None = None,
) -> EmbedderParams:
    """Seeded initialization: zero biases, scaled Gaussian weights, unit
    Gaussian query vectors, and a graph readout of 1/nodes (the node mean),
    which draws nothing from the generator. Deterministic for a given
    config.seed."""
    rng = np.random.default_rng(config.seed)
    chunks = []
    for name, shape in _param_shapes(config):
        if name.endswith(".bias"):
            chunks.append(np.zeros(shape))
        elif name == "graph.readout":
            chunks.append(np.full(shape, 1.0 / shape[0]))
        elif name == "attn.query":
            chunks.append(rng.standard_normal(shape))
        else:
            fan_in = shape[0] if len(shape) == 2 else shape[1]
            chunks.append(rng.standard_normal(shape) / np.sqrt(fan_in))
    flat = np.concatenate([c.ravel() for c in chunks])
    return EmbedderParams(config, flat, normalization, graph)


# -- graph encoder -----------------------------------------------------------


GRAPH_BLOCK = 128  # frames encoded at a time, so a block's (frames, nodes, hidden) stays in cache


@dataclass
class _GraphState:
    aggregated: np.ndarray | None = None  # (N, L, 3): neighbor-averaged landmarks, ones
    activated: list[np.ndarray] = field(default_factory=list)  # per layer: (N, L, out)


def graph_encode(
    params: EmbedderParams, frames_landmarks: np.ndarray, state: _GraphState | None = None
) -> np.ndarray:
    """Encode frames of landmark points, (N, L, 2) -> (N, hidden_dim).

    Each layer averages every node with its neighbors (degree-normalized),
    applies a learned linear map and tanh. The frame descriptor is the
    readout R (L, hidden) applied per node, Σₙ a[:, n, :] ⊙ R[n], so it
    keeps which landmark moved how; at initialization R is the node mean.
    Frames run in blocks of ``GRAPH_BLOCK``; layer 0's bias rides in its
    weight product as a ones column of the aggregated landmarks.
    """
    cfg = params.config.graph
    graph = params.graph
    if cfg is None or graph is None:
        raise EmbedderError("model has no graph encoder")
    frames_landmarks = np.asarray(frames_landmarks, dtype=np.float64)
    if frames_landmarks.ndim != 3 or frames_landmarks.shape[1:] != (graph.num_nodes, 2):
        raise EmbedderError(
            f"expected (N, {graph.num_nodes}, 2) landmark frames, "
            f"got {frames_landmarks.shape}"
        )
    n, nodes = frames_landmarks.shape[:2]
    norm = graph.norm_matrix()
    first = np.vstack([params["graph.l0.weight"], params["graph.l0.bias"]])
    readout = params["graph.readout"]
    aggregated = np.empty((n, nodes, 3))
    aggregated[:, :, 2] = 1.0
    activated = [np.empty((n, nodes, cfg.hidden_dim)) for _ in range(cfg.layers)]
    desc = np.empty((n, cfg.hidden_dim))
    for start in range(0, n, GRAPH_BLOCK):
        part = slice(start, start + GRAPH_BLOCK)
        np.matmul(norm, frames_landmarks[part], out=aggregated[part, :, :2])
        hidden = np.matmul(aggregated[part], first, out=activated[0][part])
        np.tanh(hidden, out=hidden)
        for layer in range(1, cfg.layers):
            hidden = np.matmul(np.matmul(norm, hidden), params[f"graph.l{layer}.weight"],
                               out=activated[layer][part])
            hidden += params[f"graph.l{layer}.bias"]
            np.tanh(hidden, out=hidden)
        np.einsum("nlh,lh->nh", hidden, readout, out=desc[part])
    if state is not None:
        state.aggregated, state.activated = aggregated, activated
    return desc


def _graph_backward(
    params: EmbedderParams, state: _GraphState, d_desc: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    """Accumulate graph-encoder gradients given d(loss)/d(descriptor), (N, hidden),
    block by block as ``graph_encode`` ran.

    The readout gives ∂R = Σ_N a ⊙ ∂desc and ∂a = ∂desc ⊙ R for the last
    layer's activations a. Above the first layer, G = normᵀ ∂pre gives both
    the weight gradient Σ inputᵀ G and the gradient G Wᵀ reaching the
    layer's input, so only the first layer's aggregated landmarks are kept
    from the forward pass; their ones column yields the first bias's
    gradient with its weight's. The landmarks themselves need no gradient.
    """
    cfg = params.config.graph
    graph = params.graph
    assert cfg is not None and graph is not None and state.aggregated is not None
    norm_t = graph.norm_matrix().T
    readout = params["graph.readout"]
    hid = cfg.hidden_dim
    d_first = np.zeros((3, hid))
    for start in range(0, d_desc.shape[0], GRAPH_BLOCK):
        part = slice(start, start + GRAPH_BLOCK)
        d_part = d_desc[part]
        grads["graph.readout"] += np.einsum("nlh,nh->lh", state.activated[-1][part], d_part)
        d_hidden = d_part[:, None, :] * readout
        for layer in range(cfg.layers - 1, -1, -1):
            activated = state.activated[layer][part]
            d_pre = np.multiply(activated, activated)  # tanh' = 1 - a², in one buffer
            np.subtract(1.0, d_pre, out=d_pre)
            d_pre *= d_hidden
            if layer == 0:
                d_first += state.aggregated[part].reshape(-1, 3).T @ d_pre.reshape(-1, hid)
                break
            grads[f"graph.l{layer}.bias"] += d_pre.reshape(-1, hid).sum(axis=0)
            d_out = np.matmul(norm_t, d_pre)
            below = state.activated[layer - 1][part]
            grads[f"graph.l{layer}.weight"] += below.reshape(-1, hid).T @ d_out.reshape(-1, hid)
            d_hidden = np.matmul(d_out, params[f"graph.l{layer}.weight"].T)
    grads["graph.l0.weight"] += d_first[:2]
    grads["graph.l0.bias"] += d_first[2]


# -- forward / backward ------------------------------------------------------


@dataclass
class _ForwardState:
    attn_input: np.ndarray  # (B, F, dim)
    weights: np.ndarray  # (B, H, F)
    weighted: np.ndarray  # (B, H, dim) attention-weighted frames, w·X
    pooled: np.ndarray  # (B, A) concatenated head outputs
    zhat: np.ndarray  # (B, dim)
    z_raw: np.ndarray  # (B, d) before normalization
    norms: np.ndarray  # (B,)
    z: np.ndarray  # (B, d)
    graph: _GraphState | None = None


def _check_finite(arr: np.ndarray, layer: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(layer)


def _key_queries(params: EmbedderParams) -> np.ndarray:
    """W_k[h] q[h] per head: (H, dim)."""
    return np.matmul(params["attn.key"], params["attn.query"][:, :, None])[:, :, 0]


def encode_frames(
    params: EmbedderParams, frames: np.ndarray, state: _GraphState | None = None
) -> np.ndarray:
    """The per-frame input of attention for frames (N, input_dim): the graph
    descriptors (N, hidden_dim), or the frames themselves for a model without
    a graph encoder. ``state`` keeps what the graph backward needs. A row
    depends on its own frame only, so frames may be encoded in any grouping
    and windows cut from the result afterwards."""
    cfg = params.config
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != cfg.input_dim:
        raise EmbedderError(f"expected frames of shape (N, {cfg.input_dim}), got {frames.shape}")
    _check_finite(frames, "input")
    if cfg.graph is None:
        return frames
    desc = graph_encode(params, frames.reshape(frames.shape[0], cfg.input_dim // 2, 2), state)
    _check_finite(desc, "graph_encoder")
    return desc


def attend(
    params: EmbedderParams, encoded_windows: np.ndarray, state: _GraphState | None
) -> tuple[np.ndarray, _ForwardState]:
    """Attention pooling, the output map, the projection and the L2 norm over
    windows of encoded frames (B, F, dim) -> (B, d). Returns the embeddings
    together with the cached intermediates needed by backward_batch, which
    also needs the graph encoder's ``state`` (None when nothing is trained)."""
    cfg = params.config
    attn_input = encoded_windows
    batch, frames, dim = attn_input.shape

    # logit[b,h,f] = x[b,f] · W_k[h] q[h] / √a; overflow is reported just below
    with np.errstate(over="ignore", invalid="ignore"):
        kq = _key_queries(params) * (1.0 / np.sqrt(cfg.head_dim))
        logits = (attn_input.reshape(batch * frames, dim) @ kq.T).reshape(
            batch, frames, cfg.heads
        ).transpose(0, 2, 1)
    _check_finite(logits, "attention_logits")
    logits = logits - logits.max(axis=2, keepdims=True)
    expw = np.exp(logits)
    weights = expw / expw.sum(axis=2, keepdims=True)

    # pooled[b,h] = (Σ_f w[b,h,f] x[b,f]) · W_v[h]
    weighted = np.matmul(weights, attn_input)
    pooled = np.matmul(weighted.transpose(1, 0, 2), params["attn.value"])
    pooled = pooled.transpose(1, 0, 2).reshape(batch, cfg.attention_dim)
    zhat = pooled @ params["attn.out"]
    z_raw = zhat @ params["proj.weight"] + params["proj.bias"]
    _check_finite(z_raw, "projection")
    norms = np.linalg.norm(z_raw, axis=1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise NonFiniteError("l2_normalize", "zero or non-finite embedding norm")
    z = z_raw / norms[:, None]

    forward_state = _ForwardState(
        attn_input=attn_input, weights=weights, weighted=weighted,
        pooled=pooled, zhat=zhat, z_raw=z_raw, norms=norms, z=z, graph=state,
    )
    return z, forward_state


def forward_batch(params: EmbedderParams, windows: np.ndarray) -> tuple[np.ndarray, _ForwardState]:
    """Embed a batch of windows (B, F, input_dim) -> L2-normalized (B, d):
    ``attend`` over the windows' frames as ``encode_frames`` gives them.

    Returns the embeddings together with the cached intermediates needed by
    backward_batch.
    """
    cfg = params.config
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1] != cfg.window_len or windows.shape[2] != cfg.input_dim:
        raise EmbedderError(
            f"expected windows of shape (B, {cfg.window_len}, {cfg.input_dim}), "
            f"got {windows.shape}"
        )
    batch, frames = windows.shape[0], windows.shape[1]
    graph_state = _GraphState() if cfg.graph is not None else None
    encoded = encode_frames(params, windows.reshape(batch * frames, cfg.input_dim), graph_state)
    return attend(params, encoded.reshape(batch, frames, encoded.shape[1]), graph_state)


def forward(params: EmbedderParams, window: np.ndarray) -> np.ndarray:
    """Embed one window (F, input_dim) -> (d,)."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise EmbedderError(f"expected a 2-D window, got shape {window.shape}")
    z, _ = forward_batch(params, window[None])
    return z[0]


def backward_batch(
    params: EmbedderParams, state: _ForwardState, d_z: np.ndarray
) -> np.ndarray:
    """Gradient of a scalar loss wrt all parameters, given d(loss)/d(z).

    d_z has the shape of the embeddings (B, d). Returns a flat vector aligned
    with params.flat.
    """
    cfg = params.config
    batch = d_z.shape[0]
    x = state.attn_input
    frames, dim = x.shape[1], x.shape[2]
    grads = {name: np.zeros(shape) for name, shape in params.shapes}

    # L2 normalization: z = u/|u|, dL/du = (dz - z (z . dz)) / |u|
    inner = np.einsum("bd,bd->b", state.z, d_z)
    d_raw = (d_z - state.z * inner[:, None]) / state.norms[:, None]

    grads["proj.bias"] += d_raw.sum(axis=0)
    grads["proj.weight"] += state.zhat.T @ d_raw
    d_zhat = d_raw @ params["proj.weight"].T

    grads["attn.out"] += state.pooled.T @ d_zhat
    d_pooled = (d_zhat @ params["attn.out"].T).reshape(batch, cfg.heads, cfg.head_dim)

    # values: ∂W_v[h] = Σ_b (w·X)[b,h] ⊗ ∂pooled[b,h]; ∂(w·X)[b,h] = W_v[h] ∂pooled[b,h]
    d_pooled_h = d_pooled.transpose(1, 0, 2)  # (H, B, a)
    grads["attn.value"] += np.matmul(state.weighted.transpose(1, 2, 0), d_pooled_h)
    d_weighted = np.matmul(d_pooled_h, params["attn.value"].transpose(0, 2, 1)).transpose(1, 0, 2)
    d_weights = np.matmul(d_weighted, x.transpose(0, 2, 1))  # (B, H, F)

    # softmax: dlogits = w * (dw - sum_f w*dw)
    mix = np.einsum("bhf,bhf->bh", state.weights, d_weights)
    d_logits = state.weights * (d_weights - mix[:, :, None])
    d_logits *= 1.0 / np.sqrt(cfg.head_dim)

    # keys: S[h] = Σ_bf ∂logit·x, ∂W_k[h] = S[h] ⊗ q[h], ∂q[h] = W_k[h]ᵀ S[h]
    s = d_logits.transpose(1, 0, 2).reshape(cfg.heads, batch * frames) @ x.reshape(
        batch * frames, dim
    )
    grads["attn.key"] += s[:, :, None] * params["attn.query"][:, None, :]
    grads["attn.query"] += np.matmul(s[:, None, :], params["attn.key"])[:, 0, :]

    if cfg.graph is not None:
        d_input = np.matmul(state.weights.transpose(0, 2, 1), d_weighted)
        d_input += np.matmul(d_logits.transpose(0, 2, 1), _key_queries(params))
        d_desc = d_input.reshape(batch * frames, dim)
        assert state.graph is not None
        _graph_backward(params, state.graph, d_desc, grads)

    flat = np.concatenate([grads[name].ravel() for name, _ in params.shapes])
    if not np.all(np.isfinite(flat)):
        raise NonFiniteError("gradient")
    return flat


# -- checkpoint I/O -------------------------------------------------------------

_CKPT_MAGIC = b"AVCK"


def save_checkpoint(params: EmbedderParams, path: str | Path) -> None:
    """Write config + normalization + graph as a JSON header followed by the
    raw float64 parameter vector. Round trips bit-exactly."""
    header = {
        "format_version": 1,
        "config": params.config.to_dict(),
        "normalization": params.normalization.to_dict() if params.normalization else None,
        "graph": params.graph.to_dict() if params.graph else None,
        "param_count": params.size,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with AtomicFile(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> EmbedderParams:
    path = Path(path)
    blob = path.read_bytes()
    magic = blob[:4]
    if magic != _CKPT_MAGIC:
        raise EmbedderError(f"{path}: not a model checkpoint (magic {magic!r})")
    if len(blob) < 8:
        raise EmbedderError(f"{path}: truncated checkpoint ({len(blob)} bytes)")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    if len(blob) < 8 + hlen:
        raise EmbedderError(
            f"{path}: truncated checkpoint header ({len(blob) - 8} of {hlen} bytes)"
        )
    try:
        header = json.loads(blob[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EmbedderError(f"{path}: unreadable checkpoint header: {exc}") from None
    raw = blob[8 + hlen :]
    if len(raw) != 8 * header["param_count"]:
        raise EmbedderError(
            f"{path}: parameter payload has {len(raw)} bytes, "
            f"header promises {header['param_count']} float64 values"
        )
    config = EmbedderConfig.from_dict(header["config"])
    expected = sum(int(np.prod(shape)) for _, shape in _param_shapes(config))
    if header["param_count"] != expected:
        raise EmbedderError(
            f"{path}: {header['param_count']} parameters where the model needs {expected} "
            "(a graph checkpoint written before the per-node readout lacks graph.readout)"
        )
    norm = (
        NormalizationParams.from_dict(header["normalization"])
        if header.get("normalization")
        else None
    )
    graph = AdjacencyGraph.from_dict(header["graph"]) if header.get("graph") else None
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return EmbedderParams(config, flat, norm, graph)
