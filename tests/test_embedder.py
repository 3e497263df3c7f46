"""Embedder forward pass, graph encoder, parameters and checkpointing."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from avatarprint.embedder import (
    GRAPH_BLOCK,
    AdjacencyGraph,
    EmbedderConfig,
    EmbedderError,
    EmbedderParams,
    GraphEncoderConfig,
    NonFiniteError,
    _GraphState,
    backward_batch,
    forward_batch,
    graph_encode,
    init_params,
    load_adjacency,
    load_checkpoint,
    save_checkpoint,
)
from avatarprint.feature_store import NormalizationParams

from helpers import (
    finite_difference_grad,
    max_relative_error,
    random_model,
    reference_backward_batch,
    reference_forward_batch,
    traced_peak,
    training_shaped_graph_model,
)


def small_config(**overrides):
    base = dict(input_dim=6, heads=2, attention_dim=8, projection_dim=4, window_len=8, seed=1)
    base.update(overrides)
    return EmbedderConfig(**base)


def graph_setup(seed=2):
    graph = AdjacencyGraph(3, ((0, 1), (1, 2)))
    config = EmbedderConfig(
        input_dim=6, heads=2, attention_dim=8, projection_dim=3, window_len=4,
        graph=GraphEncoderConfig(layers=1, hidden_dim=5), seed=seed,
    )
    return config, graph


def rewrite_header(path, edit):
    """Replace the JSON header of the checkpoint at ``path`` by ``edit(header)``."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[4:8], "little")
    head = json.dumps(edit(json.loads(blob[8 : 8 + hlen])), sort_keys=True).encode("utf-8")
    path.write_bytes(b"AVCK" + len(head).to_bytes(4, "little") + head + blob[8 + hlen :])


class TestAdjacency:
    def test_rejects_bad_edges(self):
        with pytest.raises(EmbedderError, match="self-loop"):
            AdjacencyGraph(3, ((1, 1),))
        with pytest.raises(EmbedderError, match="duplicate"):
            AdjacencyGraph(3, ((0, 1), (1, 0)))
        with pytest.raises(EmbedderError, match="out of range"):
            AdjacencyGraph(3, ((0, 3),))

    def test_norm_matrix_path_graph(self):
        # two nodes joined by an edge: each averages itself and the other
        mat = AdjacencyGraph(2, ((0, 1),)).norm_matrix()
        np.testing.assert_allclose(mat, [[0.5, 0.5], [0.5, 0.5]])
        # isolated node only aggregates itself
        mat3 = AdjacencyGraph(3, ((0, 1),)).norm_matrix()
        np.testing.assert_allclose(mat3[2], [0.0, 0.0, 1.0])

    def test_norm_matrix_is_computed_once_and_read_only(self):
        graph = AdjacencyGraph(3, ((0, 1), (1, 2)))
        assert graph.norm_matrix() is graph.norm_matrix()
        assert not graph.norm_matrix().flags.writeable

    def test_csv_loading(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("0,1\n1,2\n", encoding="utf-8")
        graph = load_adjacency(p, num_nodes=3)
        assert graph.num_nodes == 3 and graph.edges == ((0, 1), (1, 2))
        assert load_adjacency(p, num_nodes=5).num_nodes == 5
        p.write_text("0,x\n", encoding="utf-8")
        with pytest.raises(EmbedderError, match="non-integer"):
            load_adjacency(p, num_nodes=3)

    def test_dict_round_trip(self):
        graph = AdjacencyGraph(4, ((0, 1), (2, 3)))
        assert AdjacencyGraph.from_dict(graph.to_dict()) == graph


class TestConfig:
    def test_head_split_must_be_exact(self):
        with pytest.raises(EmbedderError, match="divide"):
            small_config(heads=3, attention_dim=8)

    def test_window_must_be_even(self):
        with pytest.raises(EmbedderError):
            small_config(window_len=7)
        with pytest.raises(EmbedderError):
            small_config(window_len=0)

    def test_projection_must_compress(self):
        with pytest.raises(EmbedderError, match="projection_dim"):
            small_config(projection_dim=6)
        cfg, _ = graph_setup()
        # with a graph encoder the bound is its hidden size, not input_dim
        assert cfg.projection_dim < cfg.graph.hidden_dim

    def test_dict_round_trip(self):
        for cfg in (small_config(), graph_setup()[0]):
            assert EmbedderConfig.from_dict(cfg.to_dict()) == cfg


class TestParams:
    def test_views_share_flat_memory(self):
        params = init_params(small_config())
        params["proj.bias"][:] = 7.0
        start = params.flat.size - params["proj.bias"].size
        np.testing.assert_array_equal(params.flat[start:], 7.0)

    def test_size_matches_shapes(self):
        cfg = small_config()
        params = init_params(cfg)
        expected = (
            cfg.heads * cfg.head_dim  # queries
            + 2 * cfg.heads * cfg.input_dim * cfg.head_dim  # keys, values
            + cfg.attention_dim * cfg.input_dim  # head mixer
            + cfg.input_dim * cfg.projection_dim + cfg.projection_dim  # projection
        )
        assert params.size == expected

    def test_init_is_seeded(self):
        a = init_params(small_config(seed=5)).flat
        b = init_params(small_config(seed=5)).flat
        c = init_params(small_config(seed=6)).flat
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        params = init_params(small_config())
        np.testing.assert_array_equal(params["proj.bias"], 0.0)

    def test_graph_topology_consistency(self):
        cfg, graph = graph_setup()
        with pytest.raises(EmbedderError, match="iff"):
            init_params(cfg, graph=None)
        with pytest.raises(EmbedderError, match="incompatible"):
            init_params(cfg, graph=AdjacencyGraph(4, ((0, 1),)))

    def test_rejects_wrong_length_or_nan(self):
        cfg = small_config()
        with pytest.raises(EmbedderError):
            EmbedderParams(cfg, np.zeros(3))
        flat = init_params(cfg).flat
        flat[0] = np.nan
        with pytest.raises(NonFiniteError):
            EmbedderParams(cfg, flat)


class TestForward:
    def test_embeddings_are_unit_norm(self):
        params = init_params(small_config())
        windows = np.random.default_rng(0).normal(size=(5, 8, 6))
        z, _ = forward_batch(params, windows)
        assert z.shape == (5, 4)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_single_window_matches_batch(self):
        params = init_params(small_config())
        windows = np.random.default_rng(1).normal(size=(3, 8, 6))
        z_batch, _ = forward_batch(params, windows)
        for i in range(3):
            z, _ = forward_batch(params, windows[i][None])
            np.testing.assert_allclose(z[0], z_batch[i], atol=1e-12)

    def test_constant_window_gets_uniform_attention(self):
        params = init_params(small_config())
        window = np.tile(np.random.default_rng(2).normal(size=(1, 6)), (8, 1))
        weights = forward_batch(params, window[None])[1].weights[0]
        np.testing.assert_allclose(weights, 1.0 / 8.0, rtol=0, atol=1e-12)

    def test_frame_order_does_not_matter(self):
        # pooling attends over frames with no positional signal, so any
        # permutation of the window embeds identically
        params = init_params(small_config())
        rng = np.random.default_rng(3)
        window = rng.normal(size=(8, 6))
        z, _ = forward_batch(params, window[None])
        for _ in range(3):
            perm = rng.permutation(8)
            np.testing.assert_allclose(forward_batch(params, window[perm][None])[0], z,
                                       atol=1e-12)

    def test_scaled_input_keeps_unit_norm(self):
        params = init_params(small_config())
        window = np.random.default_rng(4).normal(size=(8, 6))
        z, _ = forward_batch(params, 1000.0 * window[None])
        assert np.linalg.norm(z[0]) == pytest.approx(1.0, abs=1e-12)

    def test_shape_and_finiteness_guards(self):
        params = init_params(small_config())
        with pytest.raises(EmbedderError, match="expected windows"):
            forward_batch(params, np.zeros((2, 7, 6)))
        bad = np.zeros((1, 8, 6))
        bad[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteError) as err:
            forward_batch(params, bad)
        assert "input" in str(err.value)

    def test_zero_window_cannot_be_normalized(self):
        # zero input with zero biases gives a zero pre-normalization vector
        params = init_params(small_config())
        with pytest.raises(NonFiniteError) as err:
            forward_batch(params, np.zeros((1, 8, 6)))
        assert "l2_normalize" in str(err.value)


class TestGraphEncoder:
    def test_hand_computed_aggregation(self):
        # 2-node path graph, 1 layer, hidden_dim 1, weight picks the x channel:
        # node values x = [1, 3] aggregate to [2, 2]; tanh then node mean
        graph = AdjacencyGraph(2, ((0, 1),))
        cfg = EmbedderConfig(
            input_dim=4, heads=1, attention_dim=2, projection_dim=1, window_len=2,
            graph=GraphEncoderConfig(layers=1, hidden_dim=2), seed=0,
        )
        params = init_params(cfg, graph=graph)
        params["graph.l0.weight"][:] = [[1.0, 0.0], [0.0, 1.0]]
        params["graph.l0.bias"][:] = 0.0
        frames = np.array([[[1.0, 10.0], [3.0, 30.0]]])  # (N=1, L=2, xy)
        desc = graph_encode(params, frames)
        np.testing.assert_allclose(desc, [[np.tanh(2.0), np.tanh(20.0)]], atol=1e-12)

    def test_isolated_node_keeps_its_value(self):
        graph = AdjacencyGraph(3, ((0, 1),))
        cfg = EmbedderConfig(
            input_dim=6, heads=1, attention_dim=2, projection_dim=1, window_len=2,
            graph=GraphEncoderConfig(layers=1, hidden_dim=2), seed=0,
        )
        params = init_params(cfg, graph=graph)
        params["graph.l0.weight"][:] = np.eye(2)
        params["graph.l0.bias"][:] = 0.0
        frames = np.zeros((1, 3, 2))
        frames[0, 2] = [0.5, -0.5]
        desc = graph_encode(params, frames)
        # nodes 0 and 1 see only zeros; node 2 sees itself
        manual = (np.tanh([0.0, 0.0]) + np.tanh([0.0, 0.0]) + np.tanh([0.5, -0.5])) / 3.0
        np.testing.assert_allclose(desc[0], manual, atol=1e-12)

    def test_block_buffers_give_the_descriptors_state_keeps(self):
        # 300 frames: two full blocks and a remainder, through one block of buffers
        rng = np.random.default_rng(61)
        params = random_model(rng, True)
        params["graph.readout"][:] = rng.normal(size=params["graph.readout"].shape)
        frames = rng.normal(size=(300, params.graph.num_nodes, 2))
        assert frames.shape[0] > 2 * GRAPH_BLOCK and frames.shape[0] % GRAPH_BLOCK
        state = _GraphState()
        kept = graph_encode(params, frames, state)
        hid, nodes = params.config.graph.hidden_dim, params.graph.num_nodes
        assert state.activated.shape == (300, nodes, hid)
        assert state.collapsed.shape == (300, 3, hid)
        assert np.array_equal(graph_encode(params, frames), kept)

    def test_one_layer_backward_forms_no_frame_node_array(self):
        # the last layer's gradient is collapsed in the forward pass: backward
        # allocates less than one (frames, nodes, hidden) array of the batch
        rng = np.random.default_rng(70)
        params = training_shaped_graph_model(rng)
        windows = rng.normal(size=(64, 32, 32))
        z, state = forward_batch(params, windows)
        assert state.graph.collapsed.shape == (64 * 32, 3, 32)
        d_z = rng.normal(size=z.shape)
        frame_node_bytes = 8 * (64 * 32) * 16 * 32  # float64
        assert traced_peak(backward_batch, params, state, d_z) < frame_node_bytes

    def test_zero_weights_collapse_to_bias(self):
        cfg, graph = graph_setup()
        params = init_params(cfg, graph=graph)
        params["graph.l0.weight"][:] = 0.0
        params["graph.l0.bias"][:] = 0.25
        desc = graph_encode(params, np.random.default_rng(0).normal(size=(4, 3, 2)))
        np.testing.assert_allclose(desc, np.tanh(0.25), rtol=0, atol=1e-12)

    def test_forward_uses_graph_path(self):
        cfg, graph = graph_setup()
        params = init_params(cfg, graph=graph)
        windows = np.random.default_rng(5).normal(size=(2, 4, 6))
        z, state = forward_batch(params, windows)
        assert state.graph is not None
        assert state.attn_input.shape == (2, 4, cfg.graph.hidden_dim)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_readout_weights_each_node(self):
        # two nodes, no edges: node n's activation tanh(x_n) is scaled by R[n]
        graph = AdjacencyGraph(2, ())
        cfg = EmbedderConfig(
            input_dim=4, heads=1, attention_dim=2, projection_dim=1, window_len=2,
            graph=GraphEncoderConfig(layers=1, hidden_dim=2), seed=0,
        )
        params = init_params(cfg, graph=graph)
        np.testing.assert_array_equal(params["graph.readout"], 0.5)  # the node mean
        params["graph.l0.weight"][:] = np.eye(2)
        params["graph.l0.bias"][:] = 0.0
        params["graph.readout"][:] = [[1.0, -2.0], [0.5, 3.0]]
        frames = np.array([[[0.1, 0.2], [0.3, -0.4]]])
        want = np.tanh([0.1, 0.2]) * [1.0, -2.0] + np.tanh([0.3, -0.4]) * [0.5, 3.0]
        np.testing.assert_allclose(graph_encode(params, frames)[0], want, rtol=0, atol=1e-15)

    def test_readout_draws_nothing_at_init(self):
        cfg, graph = graph_setup(seed=6)
        params = init_params(cfg, graph=graph)
        names = [name for name, _ in params.shapes]
        assert names.index("graph.readout") == names.index("graph.l0.bias") + 1
        # the generator's draw after the graph layer is the attention query's
        rng = np.random.default_rng(6)
        rng.standard_normal((2, 5))
        np.testing.assert_array_equal(params["attn.query"], rng.standard_normal((2, 4)))
        np.testing.assert_array_equal(params["graph.readout"], np.full((3, 5), 1 / 3))

    def test_shape_guard(self):
        cfg, graph = graph_setup()
        params = init_params(cfg, graph=graph)
        with pytest.raises(EmbedderError, match="landmark frames"):
            graph_encode(params, np.zeros((2, 4, 2)))


class TestCollapsedAttention:
    """The collapsed algebra against the materialized (B, H, F, a) keys and
    values it replaces."""

    @pytest.mark.parametrize("with_graph", [False, True], ids=["kinematic", "graph-1-layer"])
    def test_matches_materialized_keys_and_values(self, with_graph):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = random_model(rng, with_graph)
            cfg = params.config
            windows = rng.normal(size=(5, cfg.window_len, cfg.input_dim))
            z, state = forward_batch(params, windows)
            z_ref, state_ref = reference_forward_batch(params, windows)
            np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.weights, state_ref.weights, rtol=0, atol=1e-12)

            d_z = rng.normal(size=z.shape)
            grad = backward_batch(params, state, d_z)
            assert max_relative_error(grad, reference_backward_batch(params, state_ref, d_z)) < 1e-10


    def test_blocks_and_remainder_match_reference_and_differences(self):
        # 300 frames: two full blocks of frames and a remainder
        rng = np.random.default_rng(41)
        params = random_model(rng, True)
        params["graph.readout"][:] = rng.normal(size=params["graph.readout"].shape)
        cfg = params.config
        windows = rng.normal(size=(300 // cfg.window_len, cfg.window_len, cfg.input_dim))
        assert windows.shape[0] * windows.shape[1] == 300 > 2 * GRAPH_BLOCK
        z, state = forward_batch(params, windows)
        z_ref, state_ref = reference_forward_batch(params, windows)
        np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.weights, state_ref.weights, rtol=0, atol=1e-12)

        d_z = rng.normal(size=z.shape)
        grad = backward_batch(params, state, d_z)
        assert max_relative_error(grad, reference_backward_batch(params, state_ref, d_z)) < 1e-10
        numeric = finite_difference_grad(
            lambda: float(np.sum(forward_batch(params, windows)[0] * d_z)), params.flat)
        assert max_relative_error(grad, numeric) < 1e-5


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        cfg, graph = graph_setup(seed=9)
        norm = NormalizationParams(
            mean=np.arange(6.0), std=np.full(6, 0.5), floored_dims=(1,), n_frames=321
        )
        params = init_params(cfg, norm, graph)
        path = tmp_path / "model.avck"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.config == params.config
        assert back.graph == params.graph
        np.testing.assert_array_equal(back.flat, params.flat)
        np.testing.assert_array_equal(back.normalization.mean, norm.mean)
        np.testing.assert_array_equal(back.normalization.std, norm.std)
        assert back.normalization.floored_dims == (1,)
        assert back.normalization.n_frames == 321

    def test_adjacency_path_is_not_recorded(self, tmp_path):
        cfg, graph = graph_setup(seed=4)
        with_path = replace(cfg, graph=replace(cfg.graph, adjacency="/elsewhere/edges.csv"))
        assert "adjacency" not in with_path.to_dict()["graph"]
        save_checkpoint(init_params(cfg, graph=graph), tmp_path / "a.avck")
        save_checkpoint(init_params(with_path, graph=graph), tmp_path / "b.avck")
        assert (tmp_path / "a.avck").read_bytes() == (tmp_path / "b.avck").read_bytes()
        # a config written with the path, as older checkpoints hold it, still loads
        old = cfg.to_dict()
        old["graph"]["adjacency"] = "/elsewhere/edges.csv"
        assert EmbedderConfig.from_dict(old) == cfg

    def test_graph_checkpoint_without_readout_is_refused(self, tmp_path):
        # as written before graph.readout existed: the same header, fewer values
        cfg, graph = graph_setup(seed=4)
        params = init_params(cfg, graph=graph)
        save_checkpoint(params, tmp_path / "new.avck")
        blob = (tmp_path / "new.avck").read_bytes()
        hlen = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + hlen])
        readout = params["graph.readout"].size
        header["param_count"] -= readout
        start = sum(params[name].size for name, _ in params.shapes[:2])  # l0 weight+bias
        old = np.delete(params.flat, np.s_[start : start + readout])
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        (tmp_path / "old.avck").write_bytes(
            b"AVCK" + len(head).to_bytes(4, "little") + head + old.astype("<f8").tobytes())
        with pytest.raises(EmbedderError, match="graph.readout"):
            load_checkpoint(tmp_path / "old.avck")

    def test_plain_model_round_trip(self, tmp_path):
        params = init_params(small_config(seed=11))
        save_checkpoint(params, tmp_path / "m.avck")
        back = load_checkpoint(tmp_path / "m.avck")
        assert back.normalization is None and back.graph is None
        np.testing.assert_array_equal(back.flat, params.flat)
        w = np.random.default_rng(0).normal(size=(3, 8, 6))
        np.testing.assert_array_equal(forward_batch(back, w)[0], forward_batch(params, w)[0])

    @pytest.mark.parametrize("edit, named", [
        (None, ""),
        (lambda h: [h], ""),
        (lambda h: {k: v for k, v in h.items() if k != "param_count"}, ""),
        (lambda h: {**h, "config": {**h["config"], "heads": 3}}, ""),
        (lambda h: {**h, "config": {**h["config"], "graph": {"layers": 2, "hidden_dim": 5}}}, ""),
        (lambda h: {**h, "graph": None}, ""),
        (lambda h: {**h, "config": {**h["config"], "input_dim": 7}}, "input_dim 7 is odd"),
    ], ids=["junk", "list-header", "no-param-count", "rejected-config", "two-layer-graph",
            "no-topology", "odd-graph-input-dim"])
    def test_bad_file_rejected(self, tmp_path, edit, named):
        # every refusal is an EmbedderError that names the file
        p = tmp_path / "bad.avck"
        if edit is None:
            p.write_bytes(b"JUNKJUNKJUNK")
        else:
            cfg, graph = graph_setup(seed=4)
            save_checkpoint(init_params(cfg, graph=graph), p)
            rewrite_header(p, edit)
        with pytest.raises(EmbedderError, match=re.escape(str(p))) as exc:
            load_checkpoint(p)
        assert named in str(exc.value)

    @pytest.mark.parametrize("keep", [6, 40], ids=["length-field", "mid-header"])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "m.avck"
        save_checkpoint(init_params(small_config(seed=3)), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(EmbedderError, match="truncated"):
            load_checkpoint(path)

    def test_payload_length_checked(self, tmp_path):
        path = tmp_path / "m.avck"
        save_checkpoint(init_params(small_config(seed=3)), path)
        raw = path.read_bytes()
        for cut in (raw[:-3], raw[:-8], raw + bytes(8)):
            path.write_bytes(cut)
            with pytest.raises(EmbedderError, match="payload"):
                load_checkpoint(path)
