"""Model assembly, forward contracts, parameter accounting, persistence."""

import numpy as np
import pytest

from treeformer.aggregation import formula_param_count
from treeformer.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from treeformer.decoding import beam_search
from treeformer.model import (
    AggregationSpec,
    ConfigError,
    ModelConfig,
    aggregated_span,
    build,
    config_digest,
    count_params,
    encode_source,
    forward_step,
    param_report,
    tree_span,
)
from treeformer.nn import AttentionMask, label_smoothed_ce
from treeformer.tasks import Batch, make_batch
from treeformer.tensor import MaskError, Tape, Tensor

from oracles import np_log_softmax, np_vanilla_forward


def tiny_config(**kwargs) -> ModelConfig:
    base = dict(num_layers=2, d_model=8, num_heads=2, d_ff=16, vocab_size=9,
                max_len=16, dropout=0.0, seed=0)
    base.update(kwargs)
    return ModelConfig(**base)


BATCH_PAIRS = [((3, 4, 5, 6), (3, 4, 5, 6)), ((7, 8), (7, 8))]
BATCH = make_batch(BATCH_PAIRS)

ALL_SPECS = [AggregationSpec("none", "mean", "both")] + [
    AggregationSpec(structure, formula, position)
    for structure in ("rtal", "cnn_tree", "linear", "iterative")
    for formula in ("mean", "concat_ffn", "ewp_ffn")
    for position in ("encoder", "decoder", "both")
]


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=9).validate()
        with pytest.raises(ConfigError):
            tiny_config(vocab_size=3).validate()
        with pytest.raises(ConfigError):
            tiny_config(dropout=1.0).validate()
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"d_modell": 8})
        with pytest.raises(ConfigError):
            tiny_config(aggregation=AggregationSpec(structure="ring")).validate()

    def test_single_layer_tree_rejected_with_rule(self):
        cfg = tiny_config(num_layers=1, aggregation=AggregationSpec("rtal", "mean", "both"))
        with pytest.raises(ConfigError, match="2\\^n"):
            cfg.validate()

    def test_span_rule(self):
        assert tree_span(6) == 4
        assert tree_span(3) == 2
        assert tree_span(4) == 4
        assert tree_span(8) == 8
        rtal6 = tiny_config(num_layers=6, aggregation=AggregationSpec("rtal", "mean", "both"))
        assert aggregated_span(rtal6) == (3, 6)
        rtal3 = tiny_config(num_layers=3, aggregation=AggregationSpec("rtal", "mean", "both"))
        assert aggregated_span(rtal3) == (2, 3)
        flat = tiny_config(num_layers=6, aggregation=AggregationSpec("linear", "mean", "both"))
        assert aggregated_span(flat) == (1, 6)
        assert aggregated_span(tiny_config()) is None

    def test_round_trip_dict(self):
        cfg = tiny_config(aggregation=AggregationSpec("rtal", "ewp_ffn", "decoder"))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        assert config_digest(cfg) == config_digest(ModelConfig.from_dict(cfg.to_dict()))
        assert config_digest(cfg) != config_digest(tiny_config())


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build(tiny_config())
        b = build(tiny_config())
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build(tiny_config())
        b = build(tiny_config(seed=1))
        assert not np.array_equal(a.embedding.weight.data, b.embedding.weight.data)

    def test_core_init_unaffected_by_aggregation(self):
        plain = build(tiny_config())
        fused = build(tiny_config(aggregation=AggregationSpec("rtal", "ewp_ffn", "both")))
        plain_params = dict(plain.named_parameters())
        fused_params = dict(fused.named_parameters())
        for name, p in plain_params.items():
            np.testing.assert_array_equal(p.data, fused_params[name].data)

    def test_tree_node_count_per_stack(self):
        model = build(tiny_config(num_layers=6, d_model=8,
                                  aggregation=AggregationSpec("rtal", "mean", "both")))
        assert len(model.encoder.agg.nodes) == 3
        assert len(model.decoder.agg.nodes) == 3
        assert model.encoder.agg.num_inputs == 4

    @pytest.mark.parametrize("structure,group,nodes", [
        ("rtal", "nodes", 3), ("cnn_tree", "nodes", 3), ("iterative", "steps", 5)])
    def test_aggregator_parameter_names(self, structure, group, nodes):
        # checkpoints key aggregator parameters by these names
        model = build(tiny_config(num_layers=6, aggregation=AggregationSpec(structure, "ewp_ffn", "both")))
        names = set(dict(model.named_parameters()))
        for stack in ("encoder", "decoder"):
            for i in range(nodes):
                assert f"{stack}.agg.{group}.{i}.beta" in names
                assert f"{stack}.agg.{group}.{i}.lin1.weight" in names
            assert f"{stack}.agg.{group}.{nodes}.beta" not in names

    def test_position_controls_which_stacks(self):
        enc_only = build(tiny_config(aggregation=AggregationSpec("rtal", "mean", "encoder")))
        assert enc_only.encoder.agg is not None and enc_only.decoder.agg is None
        dec_only = build(tiny_config(aggregation=AggregationSpec("rtal", "mean", "decoder")))
        assert dec_only.encoder.agg is None and dec_only.decoder.agg is not None

    @pytest.mark.parametrize("structure", ["rtal", "iterative", "linear", "none"])
    def test_each_stack_names_its_slice_of_the_model_parameters(self, structure):
        # per-stack views (gradient norms, aggregator state) read these slices
        model = build(tiny_config(num_layers=4, aggregation=AggregationSpec(structure, "ewp_ffn", "both")))
        everything = list(model.named_parameters())
        for stack in ("encoder", "decoder"):
            own = list(getattr(model, stack).named_parameters(stack))
            assert [(n, id(p)) for n, p in own] == \
                [(n, id(p)) for n, p in everything if n.startswith(stack + ".")]
            assert any(".agg." in n for n, _ in own) == (structure != "none")


class TestForward:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.structure}-{s.formula}-{s.position}")
    def test_logits_shape_sweep(self, spec):
        model = build(tiny_config(aggregation=spec))
        logits = model.forward_train(BATCH)
        assert logits.shape == (2, BATCH.tgt_in.shape[1], 9)
        assert np.isfinite(logits.data).all()

    def test_causal_logits_invariance(self):
        model = build(tiny_config(num_layers=4, aggregation=AggregationSpec("rtal", "ewp_ffn", "both")))
        logits = model.forward_train(BATCH).data
        tampered = make_batch([((3, 4, 5, 6), (3, 4, 5, 8)), ((7, 8), (7, 8))])
        logits2 = model.forward_train(tampered).data
        # targets diverge at position 3 of tgt_in (token index 4 in tgt_in)
        np.testing.assert_array_equal(logits[0, :4], logits2[0, :4])
        assert not np.array_equal(logits[0, 4:], logits2[0, 4:])

    def test_vanilla_matches_independent_numpy_forward(self):
        model = build(tiny_config())
        ours = model.forward_train(BATCH).data
        ref = np_vanilla_forward(model, BATCH)
        real = BATCH.tgt_out != BATCH.pad_id
        np.testing.assert_allclose(ours[real], ref[real], rtol=1e-4, atol=1e-5)
        # training runs on real rows only: logits at pad-target slots are exactly 0
        assert not real.all() and (ours[~real] == 0).all()

    @pytest.mark.parametrize("structure, formula", [("none", "mean"), ("rtal", "ewp_ffn"),
                                                    ("linear", "mean"), ("iterative", "concat_ffn")])
    def test_float32_model_stays_float32(self, structure, formula):
        # a numpy float64 scalar anywhere in a kernel promotes float32 arrays
        # to float64 under NumPy 2 promotion rules, silently slowing training
        model = build(tiny_config(dropout=0.1, aggregation=AggregationSpec(structure, formula, "both")))
        with Tape() as tape:
            logits = model.forward_train(BATCH, rng=np.random.default_rng(0))
            loss = label_smoothed_ce(logits, BATCH.tgt_out, 0.1, BATCH.pad_id)
        tape.backward(loss)
        assert logits.dtype == np.float32
        assert loss.dtype == np.float32
        for name, p in model.named_parameters():
            assert p.grad is not None and p.grad.dtype == np.float32, name
        cache = encode_source(model, BATCH.src[:1], BATCH.pad_id)
        assert forward_step(model, cache, BATCH.tgt_in[:1, :3]).dtype == np.float32

    def test_sequence_longer_than_max_len_rejected(self):
        model = build(tiny_config(max_len=4))
        long_batch = make_batch([(tuple(range(3, 9)), tuple(range(3, 9)))])
        with pytest.raises(ConfigError):
            model.forward_train(long_batch)


class TestAttentionMasks:
    @pytest.fixture
    def built(self, monkeypatch):
        """The masks each call builds, by the shape of their visibility mask."""
        shapes, of = [], AttentionMask.of.__func__

        def counting(cls, mask, dtype=np.float32):
            shapes.append(np.shape(mask))
            return of(cls, mask, dtype)

        monkeypatch.setattr(AttentionMask, "of", classmethod(counting))
        return shapes

    def test_built_once_per_batch(self, built):
        model = build(tiny_config(num_layers=4))
        model.forward_train(BATCH)
        b, s, t = BATCH.src.shape + BATCH.tgt_in.shape[1:]
        # encoder self-attention, decoder self-attention, cross-attention: each for all 4 layers
        assert built == [(b, 1, 1, s), (b, 1, t, t), (b, 1, 1, s)]

    def test_each_decoder_call_builds_its_two_masks_once(self, built):
        model = build(tiny_config(num_layers=4))
        cache = encode_source(model, np.array([3, 4, 2]), 0)
        assert len(built) == 1   # the encoder's
        for t in range(1, 4):
            forward_step(model, cache, np.ones((2, t), dtype=np.int64))
        assert len(built) == 1 + 2 * 3   # then a self- and a cross-attention mask per decoder call

    def test_all_pad_source_row_raises_before_any_layer_runs(self, monkeypatch):
        model = build(tiny_config())
        monkeypatch.setattr(type(model.encoder.layers[0]), "__call__",
                            lambda *a, **k: pytest.fail("a layer ran"))
        with pytest.raises(MaskError):
            model.encode(np.array([[3, 4, 2], [0, 0, 0]]), 0)


class TestPackedTraining:
    """forward_train runs on real rows only, so padding is invisible to it."""

    SPECS = [AggregationSpec("none", "mean", "both"), AggregationSpec("rtal", "ewp_ffn", "both")]

    @staticmethod
    def _loss_and_grads(model, batch):
        model.zero_grad()
        with Tape() as tape:
            loss = label_smoothed_ce(model.forward_train(batch), batch.tgt_out, 0.1, batch.pad_id)
        tape.backward(loss)
        return loss.item(), {name: p.grad.copy() for name, p in model.named_parameters()}

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.structure)
    def test_extra_pad_column_leaves_loss_and_gradients(self, spec):
        model = build(tiny_config(num_layers=4, aggregation=spec))
        wider = Batch(*(np.pad(a, ((0, 0), (0, 1)), constant_values=BATCH.pad_id)
                        for a in (BATCH.src, BATCH.tgt_in, BATCH.tgt_out)), pad_id=BATCH.pad_id)
        loss, grads = self._loss_and_grads(model, BATCH)
        wider_loss, wider_grads = self._loss_and_grads(model, wider)
        assert wider_loss == pytest.approx(loss, rel=1e-5)
        for name, g in grads.items():
            scale = np.abs(g).max()
            np.testing.assert_allclose(wider_grads[name], g, rtol=1e-5, atol=1e-5 * scale, err_msg=name)

    def test_target_slot_with_pad_output_still_serves_as_key(self):
        # a pad target inside a sentence: its input token is real and later
        # positions attend to it, so the row must be computed
        model = build(tiny_config())
        holed = Batch(BATCH.src, BATCH.tgt_in, BATCH.tgt_out.copy(), BATCH.pad_id)
        holed.tgt_out[0, 1] = BATCH.pad_id
        real = holed.tgt_out != BATCH.pad_id
        np.testing.assert_allclose(model.forward_train(holed).data[real],
                                   np_vanilla_forward(model, holed)[real], rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.structure)
    def test_each_sentence_matches_its_own_batch(self, spec):
        model = build(tiny_config(num_layers=4, aggregation=spec))
        logits = model.forward_train(BATCH).data
        for i, pair in enumerate(BATCH_PAIRS):
            alone = make_batch([pair])
            real = alone.tgt_out.shape[1]
            np.testing.assert_allclose(logits[i, :real], model.forward_train(alone).data[0],
                                       rtol=1e-5, atol=1e-6)


class TestForwardStep:
    @pytest.mark.parametrize("structure", ["rtal", "cnn_tree", "iterative"])
    @pytest.mark.parametrize("formula", ["mean", "concat_ffn", "ewp_ffn"])
    def test_step_equals_train_slice(self, structure, formula):
        model = build(tiny_config(num_layers=4,
                                  aggregation=AggregationSpec(structure, formula, "both")))
        self._assert_step_matches_train(model)

    @pytest.mark.parametrize("structure", ["none", "linear"])
    def test_step_equals_train_slice_flat(self, structure):
        model = build(tiny_config(aggregation=AggregationSpec(structure, "mean", "both")))
        self._assert_step_matches_train(model)

    @staticmethod
    def _assert_step_matches_train(model):
        batch = make_batch([((3, 4, 5), (5, 4, 3))])
        train_logp = np_log_softmax(model.forward_train(batch).data)
        cache = encode_source(model, batch.src, batch.pad_id)
        for t in range(1, batch.tgt_in.shape[1] + 1):
            step_logp = forward_step(model, cache, batch.tgt_in[:, :t])
            np.testing.assert_allclose(step_logp[0], train_logp[0, t - 1], rtol=1e-5, atol=1e-6)

    STEP_SPECS = [AggregationSpec("none", "mean", "both"), AggregationSpec("rtal", "ewp_ffn", "both")]

    @staticmethod
    def _full_decode_logp(model, src, prefixes):
        """Log-probabilities of the last position of a full decode re-run, projecting the memory."""
        memory, visible = model.encode(src, 0)
        rows = prefixes.shape[0]
        memory = Tensor(np.broadcast_to(memory.data, (rows,) + memory.shape[1:]))
        visible = np.broadcast_to(visible, (rows, visible.shape[1]))
        return np_log_softmax(model.decode(prefixes, memory, visible, 0).data[:, -1, :])

    @staticmethod
    def _prefixes(rows, length=5):
        prefixes = np.random.default_rng(rows).integers(3, 9, size=(rows, length))
        prefixes[:, 0] = 1
        return prefixes

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("spec", STEP_SPECS)
    def test_cached_cross_kv_equals_projecting_memory(self, spec, rows):
        # the same arithmetic on both paths: the cached cross keys and values, and the first
        # position, which has no earlier keys to reuse
        model = build(tiny_config(num_layers=4, aggregation=spec))
        src = np.array([[3, 4, 2]])
        cache = encode_source(model, src, 0)
        assert len(cache.cross_kv) == 4
        memory, _ = model.encode(src, 0)
        for layer, kv in zip(model.decoder.layers, cache.cross_kv):
            for cached, projected in zip(kv, layer.cross_attn.project_kv(memory)):
                assert cached.shape == (1, 3, 8)
                np.testing.assert_array_equal(cached, projected)
        prefixes = self._prefixes(rows)[:, :1]
        np.testing.assert_array_equal(forward_step(model, cache, prefixes),
                                      self._full_decode_logp(model, src, prefixes))

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("spec", STEP_SPECS)
    def test_later_positions_match_full_decode(self, spec, rows, dtype, rtol):
        # a step runs 1-row products where the re-run runs t-row ones, so float32 agrees to
        # rounding; float64 shows that both paths compute the same function
        model = build(tiny_config(num_layers=4, aggregation=spec), dtype=dtype)
        src = np.array([[3, 4, 2]])
        cache = encode_source(model, src, 0)
        prefixes = self._prefixes(rows)
        for t in range(1, 6):
            np.testing.assert_allclose(forward_step(model, cache, prefixes[:, :t]),
                                       self._full_decode_logp(model, src, prefixes[:, :t]), rtol=rtol)
        assert cache.depth == 5 and len(cache.rows) == rows

    @pytest.mark.parametrize("width", [
        pytest.param(dict(d_model=8), id="criterion4"),
        pytest.param(dict(d_model=64, vocab_size=16), id="acceptance"),
        # the known defect: the tied output projection's GEMM is not row-order invariant here
        # (the decoder output is; a C-ordered copy of the embedding's transpose fixes vocab 9
        # but not every width), so a fix shows up as XPASS.  Not strict: whether the GEMM is
        # invariant depends on the BLAS kernel the CPU gets, and another CPU may pass it
        pytest.param(dict(d_model=32), id="d32_vocab9", marks=pytest.mark.xfail(
            reason="tied output projection GEMM is not row-order invariant (CHANGES.md FOUND)")),
    ])
    @pytest.mark.parametrize("spec", STEP_SPECS)
    def test_reordered_prefixes_give_reordered_rows(self, spec, width):
        # batch invariance, which criterion 4's 1e-9 beam-vs-exhaustive bound rests on: a row's
        # log-probabilities do not depend on the rows beside it (see the layer norm's
        # test_forward_rows_are_batch_invariant), on the rebuild path and on cached parents
        model = build(tiny_config(num_layers=4, aggregation=spec, **width))
        src, prefixes = np.array([[3, 4, 5, 2]]), self._prefixes(5)
        perm = np.array([3, 0, 4, 1, 2])
        rebuilt = forward_step(model, encode_source(model, src, 0), prefixes)
        assert forward_step(model, encode_source(model, src, 0), prefixes[perm]).tobytes() == \
            rebuilt[perm].tobytes()
        caches = encode_source(model, src, 0), encode_source(model, src, 0)
        for t in range(1, prefixes.shape[1] + 1):
            stepped = forward_step(model, caches[0], prefixes[:, :t])
            assert forward_step(model, caches[1], prefixes[perm, :t]).tobytes() == stepped[perm].tobytes()
        assert stepped.tobytes() == rebuilt.tobytes()

    def test_pad_inside_prefix_is_masked_only_as_a_key(self):
        model = build(tiny_config(num_layers=4, aggregation=self.STEP_SPECS[1]), dtype=np.float64)
        src = np.array([[3, 4, 2]])
        cache = encode_source(model, src, 0)
        prefixes = np.array([[1, 3, 0, 4, 5], [1, 0, 0, 6, 0], [1, 5, 6, 7, 8]])
        for t in range(1, 6):
            np.testing.assert_allclose(forward_step(model, cache, prefixes[:, :t]),
                                       self._full_decode_logp(model, src, prefixes[:, :t]), rtol=1e-12)

    def test_uncached_ancestors_and_shorter_prefixes(self):
        # a prefix asked for with no cached parent computes its ancestors; a shorter prefix
        # asked for after longer ones starts over, and so does a set with only some parents cached
        model = build(tiny_config(num_layers=4, aggregation=self.STEP_SPECS[1]), dtype=np.float64)
        src = np.array([[3, 4, 2]])
        cache = encode_source(model, src, 0)
        prefixes = np.array([[1, 3, 4, 5, 6], [1, 3, 4, 5, 7], [1, 8, 4, 5, 6]])
        for t in (4, 5, 2, 3):
            np.testing.assert_allclose(forward_step(model, cache, prefixes[:, :t]),
                                       self._full_decode_logp(model, src, prefixes[:, :t]), rtol=1e-12)
            assert cache.depth == t and all(len(key) == t for key in cache.rows)
        # half the parents cached, half not
        forward_step(model, cache, prefixes[:1, :4])
        np.testing.assert_allclose(forward_step(model, cache, prefixes),
                                   self._full_decode_logp(model, src, prefixes), rtol=1e-12)

    def test_one_source_cache_serves_two_beam_searches(self):
        model = build(tiny_config(num_layers=4, aggregation=self.STEP_SPECS[1]))
        source = np.array([3, 4, 5, 2])
        cache = encode_source(model, source, 0)
        first = beam_search(model, source, beam_size=4, max_len=6, cache=cache)
        second = beam_search(model, source, beam_size=4, max_len=6, cache=cache)
        assert first == second
        assert first == beam_search(model, source, beam_size=4, max_len=6)

    def test_prefix_longer_than_max_len_rejected(self):
        model = build(tiny_config(max_len=4))
        cache = encode_source(model, np.array([3, 4, 2]), 0)
        forward_step(model, cache, np.array([1, 3, 4, 5]))
        with pytest.raises(ConfigError):
            forward_step(model, cache, np.array([1, 3, 4, 5, 6]))

    def test_empty_prefix_rejected(self):
        model = build(tiny_config())
        cache = encode_source(model, np.array([3, 4, 2]), 0)
        with pytest.raises(ValueError):
            forward_step(model, cache, np.zeros((1, 0), dtype=np.int64))

    def test_log_probs_normalized_and_deterministic(self):
        model = build(tiny_config())
        cache = encode_source(model, np.array([3, 4, 2]), 0)
        prefix = np.array([1, 3], dtype=np.int64)
        logp = forward_step(model, cache, prefix)
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-5)
        np.testing.assert_array_equal(logp, forward_step(model, cache, prefix))


class TestCountParams:
    def test_base_configuration_near_65m(self):
        base = ModelConfig(num_layers=6, d_model=512, num_heads=8, d_ff=2048,
                           vocab_size=37000, max_len=512, dropout=0.1)
        total = count_params(base)
        assert abs(total - 65_000_000) / 65_000_000 <= 0.05

    def test_big_configuration_near_213m(self):
        big = ModelConfig(num_layers=6, d_model=1024, num_heads=16, d_ff=4096,
                          vocab_size=37000, max_len=512, dropout=0.1)
        total = count_params(big)
        assert abs(total - 213_000_000) / 213_000_000 <= 0.10

    @pytest.mark.parametrize("spec", ALL_SPECS[::4], ids=lambda s: f"{s.structure}-{s.formula}-{s.position}")
    def test_count_matches_enumerated_model(self, spec):
        cfg = tiny_config(num_layers=4, aggregation=spec)
        model = build(cfg)
        assert count_params(cfg) == sum(p.data.size for _, p in model.named_parameters())

    def test_mean_formula_adds_nothing(self):
        plain = tiny_config(num_layers=4)
        fused = tiny_config(num_layers=4, aggregation=AggregationSpec("rtal", "mean", "both"))
        assert count_params(plain) == count_params(fused)

    def test_rtal_delta_matches_closed_form(self):
        plain = tiny_config(num_layers=6)
        for formula in ("concat_ffn", "ewp_ffn"):
            for position, stacks in (("encoder", 1), ("decoder", 1), ("both", 2)):
                fused = tiny_config(num_layers=6,
                                    aggregation=AggregationSpec("rtal", formula, position))
                delta = count_params(fused) - count_params(plain)
                nodes = tree_span(6) - 1
                per_node = formula_param_count(formula, fused.d_model, fused.inner_dim)
                assert delta == stacks * nodes * per_node
                assert delta > 0

    def test_position_leaves_other_stack_unchanged(self):
        plain = param_report(tiny_config(num_layers=4))
        enc = param_report(tiny_config(num_layers=4,
                                       aggregation=AggregationSpec("rtal", "ewp_ffn", "encoder")))
        assert enc["components"]["decoder_layers"] == plain["components"]["decoder_layers"]
        assert enc["components"]["decoder_aggregation"] == 0
        assert enc["components"]["encoder_aggregation"] > 0

    def test_report_span_line_material(self):
        report = param_report(tiny_config(num_layers=6,
                                          aggregation=AggregationSpec("rtal", "mean", "both")))
        assert report["aggregated_span"] == [3, 6]


class TestCheckpointRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        model = build(tiny_config(aggregation=AggregationSpec("rtal", "ewp_ffn", "both")))
        digest = config_digest(model.config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(params=model.state_dict(), step=17, config_digest=digest))
        loaded = load_checkpoint(path)
        assert loaded.step == 17
        assert loaded.config_digest == digest
        state = model.state_dict()
        assert set(loaded.params) == set(state)
        for name, value in state.items():
            np.testing.assert_array_equal(loaded.params[name], value)

    def test_load_state_round_trip_preserves_forward(self, tmp_path):
        model = build(tiny_config())
        before = model.forward_train(BATCH).data.copy()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(model.state_dict(), 1, config_digest(model.config)))
        other = build(tiny_config(seed=5))
        other.load_state(load_checkpoint(path).params)
        np.testing.assert_array_equal(other.forward_train(BATCH).data, before)

    def test_truncated_file_raises_checkpoint_error_naming_it(self, tmp_path):
        model = build(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(model.state_dict(), 3, config_digest(model.config)))
        raw = path.read_bytes()
        header = 4 + 32 + 12                       # version, digest, step and count
        first = header + 4 + len("embedding.weight") + 4 + 2 * 8   # then its payload
        cuts = {"empty": 0, "version": 2, "digest": 20, "step/count": 40, "header end": header - 1,
                "name length": header + 2, "name": header + 10, "shape": first - 3,
                "payload": first + 53 * 4, "last byte": len(raw) - 1}
        for size in cuts.values():
            cut = tmp_path / f"cut_{size}.ckpt"
            cut.write_bytes(raw[:size])
            with pytest.raises(CheckpointError, match=f"{cut.name}.*truncated"):
                load_checkpoint(cut)
        assert load_checkpoint(path).step == 3

    def test_unknown_version_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes((99).to_bytes(4, "little") + bytes(44))
        with pytest.raises(CheckpointError, match="future.ckpt.*version 99"):
            load_checkpoint(path)

    def test_load_state_rejects_mismatched_names(self):
        model = build(tiny_config())
        state = model.state_dict()
        state.pop("embedding.weight")
        with pytest.raises(ConfigError):
            model.load_state(state)
