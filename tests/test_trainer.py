import dataclasses
import hashlib
import inspect
import logging
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tijepa import numerics as numerics_module
from tijepa import trainer as trainer_module
from tijepa.core import CrossAttnConfig, FusionModule, PairInputs, Predictor
from tijepa.dataprep import PairedExample, load_manifest, synth_generate, write_synth_dataset
from tijepa.encoders import ImageEncoder, TextEncoder, TransformerBlock, tokenize_text
from tijepa.errors import DataError, NumericalError, ShapeError
from tijepa.eval_head import ClassifierHead, evaluate, finetune
from tijepa.masking import sample_masks
from tijepa.numerics import AttentionParams, Module, Tensor, active_tape
from tijepa.trainer import (
    AdamWState,
    EmaSchedule,
    PretrainState,
    TiJepaConfig,
    adamw_step,
    caption_sensitivity,
    collapse_metric,
    ema_update,
    load_checkpoint,
    load_config,
    momentum_at,
    parse_config_text,
    read_tensor_file,
    save_checkpoint,
    train,
    write_tensor_file,
)


def tiny_config(**overrides):
    base = dict(image_size=16, patch_size=8, embed_dim=16, text_embed_dim=16,
                encoder_depth=1, encoder_heads=2, max_text_len=16,
                fusion_layers=1, fusion_heads=2, fusion_hidden=16,
                predictor_depth=1, predictor_heads=2, predictor_width=16,
                num_targets=2, tgt_scale_lo=0.15, tgt_scale_hi=0.3,
                batch_size=4, total_steps=3, log_interval=1,
                checkpoint_interval=100, seed=0)
    base.update(overrides)
    return TiJepaConfig(**base)


def tiny_dataset(n=8, seed=0):
    return synth_generate(n, seed=seed, image_size=16)


def param_bytes(params):
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(params[name].data.tobytes())
    return digest.hexdigest()


class TestAdamW:
    def test_zero_grads_leave_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        params = {"p": p}
        state = AdamWState.create(params)
        before = p.data.copy()
        adamw_step(params, state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes the first update m_hat/sqrt(v_hat) = sign(g)
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([0.37], dtype=np.float32)
        params = {"p": p}
        state = AdamWState.create(params)
        adamw_step(params, state, lr=0.01)
        assert p.data[0] == pytest.approx(-0.01, rel=1e-3)

    def test_decoupled_decay_scales_params(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        params = {"p": p}
        state = AdamWState.create(params)
        lr, wd = 0.1, 0.5
        adamw_step(params, state, lr=lr, weight_decay=wd)
        assert p.data[0] == pytest.approx(2.0 * (1 - lr * wd), rel=1e-6)
        adamw_step(params, state, lr=lr, weight_decay=wd)
        assert p.data[0] == pytest.approx(2.0 * (1 - lr * wd) ** 2, rel=1e-6)

    def test_matches_the_plain_update_expressions_bitwise(self):
        rng = np.random.default_rng(1)
        params = {"w": Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True, dtype=np.float32)}
        state = AdamWState.create(params)
        p = params["w"].data.copy()
        m, v = np.zeros_like(p), np.zeros_like(p)
        lr, beta1, beta2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.05
        for t in range(1, 4):
            g = rng.normal(0, 1, (3, 4)).astype(np.float32)
            params["w"].grad = g
            adamw_step(params, state, lr, beta1, beta2, eps, wd)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            p = p * (1.0 - lr * wd)
            p = p - lr * ((m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps))
            assert (params["w"].data.tobytes(), state.m["w"].tobytes(), state.v["w"].tobytes()) \
                == (p.tobytes(), m.tobytes(), v.tobytes())

    def test_several_parameters_match_the_plain_update_expressions_bitwise(self):
        # one pass over all moments updates each parameter as it would alone
        rng = np.random.default_rng(2)
        shapes = {"z.scale": (2, 3, 2), "a.bias": (5,), "m.weight": (3, 4)}
        params = {n: Tensor(rng.normal(0, 1, s), requires_grad=True, dtype=np.float32)
                  for n, s in shapes.items()}
        state = AdamWState.create(params)
        plain = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
                 for n, p in params.items()}
        lr, beta1, beta2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.05
        for t in range(1, 4):
            for name, shape in shapes.items():
                params[name].grad = rng.normal(0, 1, shape).astype(np.float32)
            adamw_step(params, state, lr, beta1, beta2, eps, wd)
            for name, (p, m, v) in plain.items():
                g = params[name].grad
                m = beta1 * m + (1.0 - beta1) * g
                v = beta2 * v + (1.0 - beta2) * g * g
                p = p * (1.0 - lr * wd)
                p = p - lr * ((m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps))
                plain[name] = p, m, v
                assert (params[name].data.tobytes(), state.m[name].tobytes(),
                        state.v[name].tobytes()) == (p.tobytes(), m.tobytes(), v.tobytes())

    def test_nan_in_two_gradients_names_the_first_sorted_and_moves_nothing(self):
        rng = np.random.default_rng(3)
        # inserted out of order: the report follows sorted names, not the dict
        params = {name: Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
                  for name in ("z.weight", "m.weight", "a.weight")}
        state = AdamWState.create(params)
        for p in params.values():
            p.grad = rng.normal(0, 1, (2, 3)).astype(np.float32)
        adamw_step(params, state, lr=0.1, weight_decay=0.05)  # non-zero m, v and t
        for p in params.values():
            p.grad = rng.normal(0, 1, (2, 3)).astype(np.float32)
        params["z.weight"].grad[0, 0] = np.nan
        params["m.weight"].grad[1, 1] = np.inf
        before = step_bytes_of(params, state)
        with pytest.raises(NumericalError,
                           match=r"^non-finite gradient for parameter 'm\.weight'$"):
            adamw_step(params, state, lr=0.1, weight_decay=0.05)
        assert step_bytes_of(params, state) == before

    def test_moments_are_views_of_one_buffer_each(self):
        params = {"b": Tensor(np.ones((2, 2)), requires_grad=True),
                  "a": Tensor(np.ones(3), requires_grad=True)}
        state = AdamWState.create(params)
        assert state.m_flat.shape == state.v_flat.shape == (7,)
        for moments, flat in ((state.m, state.m_flat), (state.v, state.v_flat)):
            assert list(moments) == ["a", "b"]
            assert [moments[n].shape for n in moments] == [(3,), (2, 2)]
            assert all(np.shares_memory(moments[n], flat) for n in moments)
        assert not np.shares_memory(state.m_flat, state.v_flat)

    def test_create_rejects_parameters_of_two_dtypes(self):
        params = {"a": Tensor(np.ones(2), requires_grad=True, dtype=np.float32),
                  "b": Tensor(np.ones(2), requires_grad=True, dtype=np.float64)}
        with pytest.raises(ShapeError, match="one dtype, got \\['float32', 'float64'\\]"):
            AdamWState.create(params)

    def test_a_state_of_other_parameters_is_a_shape_error(self):
        params = {"a": Tensor(np.ones(2), requires_grad=True)}
        state = AdamWState.create(params)
        with pytest.raises(ShapeError, match="different names"):
            adamw_step({"b": Tensor(np.ones(2), requires_grad=True)}, state, lr=0.1)
        with pytest.raises(ShapeError, match="shape mismatch for 'a'"):
            adamw_step({"a": Tensor(np.ones(3), requires_grad=True)}, state, lr=0.1)
        assert state.t == 0

    def test_nan_gradient_aborts_with_name(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan], dtype=np.float32)
        params = {"layer.weight": p}
        state = AdamWState.create(params)
        with pytest.raises(NumericalError, match="layer.weight"):
            adamw_step(params, state, lr=0.1)

    def test_nan_in_last_sorted_gradient_moves_nothing(self):
        rng = np.random.default_rng(0)
        params = {name: Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
                  for name in ("a.weight", "b.weight", "z.weight")}
        state = AdamWState.create(params)
        for p in params.values():
            p.grad = rng.normal(0, 1, (2, 3)).astype(np.float32)
        adamw_step(params, state, lr=0.1, weight_decay=0.05)  # non-zero m, v and t
        for p in params.values():
            p.grad = rng.normal(0, 1, (2, 3)).astype(np.float32)
        params["z.weight"].grad[1, 2] = np.nan
        before = ({n: p.data.tobytes() for n, p in params.items()},
                  {n: a.tobytes() for n, a in state.m.items()},
                  {n: a.tobytes() for n, a in state.v.items()}, state.t)
        with pytest.raises(NumericalError, match="z.weight"):
            adamw_step(params, state, lr=0.1, weight_decay=0.05)
        after = ({n: p.data.tobytes() for n, p in params.items()},
                 {n: a.tobytes() for n, a in state.m.items()},
                 {n: a.tobytes() for n, a in state.v.items()}, state.t)
        assert after == before

    @staticmethod
    def two_params_one_step_in(rng):
        params = {name: Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True, dtype=np.float32)
                  for name in ("a.weight", "z.weight")}
        state = AdamWState.create(params)
        for p in params.values():
            p.grad = rng.normal(0, 1, (2, 3)).astype(np.float32)
        adamw_step(params, state, lr=0.1, weight_decay=0.05)  # non-zero m, v and t
        for p in params.values():
            p.grad = rng.normal(0, 1, (2, 3)).astype(np.float32)
        return params, state

    @pytest.mark.parametrize("g", [1e20, -1e20, 2.0 ** 63])
    def test_a_gradient_that_would_overflow_the_moments_moves_nothing(self, g):
        # finite, but in float32 (1 - beta2) * g * g, v / bc2 or v itself turns
        # Inf, after which the parameter's updates are 0 and its checkpoint is rejected
        params, state = self.two_params_one_step_in(np.random.default_rng(0))
        params["z.weight"].grad[0, 1] = g
        before = step_bytes_of(params, state)
        with pytest.raises(NumericalError, match=r"gradient for parameter 'z.weight' reaches"):
            adamw_step(params, state, lr=0.1, weight_decay=0.05)
        assert step_bytes_of(params, state) == before

    def test_a_large_gradient_below_the_limit_updates(self):
        params, state = self.two_params_one_step_in(np.random.default_rng(0))
        params["z.weight"].grad[0, 1] = -1e18
        before = params["z.weight"].data.copy()
        adamw_step(params, state, lr=0.1, weight_decay=0.05)
        assert state.t == 2
        moved = params["z.weight"].data - before * (1 - 0.1 * 0.05)
        assert 0.0 < moved[0, 1] <= 0.11  # about one learning rate
        for arr in (*state.m.values(), *state.v.values(), params["z.weight"].data):
            assert np.isfinite(arr).all()


def step_bytes_of(params, state):
    return ({n: p.data.tobytes() for n, p in params.items()},
            {n: a.tobytes() for n, a in state.m.items()},
            {n: a.tobytes() for n, a in state.v.items()}, state.t)


class TestMomentumSchedule:
    def test_endpoints_exact(self):
        sched = EmaSchedule(0.996, 1.0, 100)
        assert momentum_at(0, sched) == 0.996
        assert momentum_at(100, sched) == 1.0

    def test_midpoint(self):
        sched = EmaSchedule(0.996, 1.0, 100)
        assert momentum_at(50, sched) == pytest.approx(0.998)

    def test_out_of_range_clamps_with_warning(self, caplog):
        sched = EmaSchedule(0.996, 1.0, 10)
        with caplog.at_level(logging.WARNING):
            assert momentum_at(25, sched) == 1.0
            assert momentum_at(-3, sched) == 0.996
        assert "clamping" in caplog.text


class TestEmaUpdate:
    def make_pair(self, tgt, onl):
        return ({"w": Tensor(np.array(tgt))}, {"w": Tensor(np.array(onl))})

    def test_m_one_is_fixed_point(self):
        targets, online = self.make_pair([0.25, -1.5], [9.0, 9.0])
        before = targets["w"].data.copy()
        ema_update(targets, online, 1.0)
        np.testing.assert_array_equal(targets["w"].data, before)

    def test_m_zero_copies_exactly(self):
        targets, online = self.make_pair([1e30, -7.0], [0.123, 4.56])
        ema_update(targets, online, 0.0)
        np.testing.assert_array_equal(targets["w"].data, online["w"].data)

    def test_small_step_arithmetic(self):
        targets, online = self.make_pair([0.0], [1.0])
        ema_update(targets, online, 0.996)
        assert targets["w"].data[0] == pytest.approx(0.004, abs=1e-6)

    def test_equal_params_stay_bitwise_fixed(self):
        value = np.array([0.1, 0.7, -0.3], dtype=np.float32)
        targets = {"w": Tensor(value)}
        online = {"w": Tensor(value)}
        ema_update(targets, online, 0.996)
        np.testing.assert_array_equal(targets["w"].data, online["w"].data)

    def test_shape_mismatch(self):
        targets = {"w": Tensor(np.zeros(2))}
        online = {"w": Tensor(np.zeros(3))}
        with pytest.raises(ShapeError):
            ema_update(targets, online, 0.5)

    def test_name_mismatch(self):
        targets, online = {"w": Tensor(np.zeros(2))}, {"v": Tensor(np.zeros(2))}
        with pytest.raises(ShapeError,
                           match="EMA parameter names differ between target and online modules"):
            ema_update(targets, online, 0.5)


class TestCollapseMetric:
    def test_identical_rows_collapse_to_zero(self):
        reps = np.tile(np.array([1.0, 2.0, 3.0], dtype=np.float32), (2, 4, 1))
        assert collapse_metric(reps) == 0.0

    def test_alternating_single_dimension(self):
        d = 8
        reps = np.zeros((2, 2, d), dtype=np.float32)
        reps[:, :, 0] = [[1.0, -1.0], [1.0, -1.0]]
        assert collapse_metric(reps) == pytest.approx(1.0 / d)

    def test_translation_invariant(self):
        rng = np.random.default_rng(0)
        reps = rng.uniform(-1, 1, (3, 5, 6)).astype(np.float32)
        shift = rng.uniform(-1, 1, 6).astype(np.float32)
        assert collapse_metric(reps + shift) == pytest.approx(collapse_metric(reps), abs=1e-6)

    def test_needs_two_examples(self):
        with pytest.raises(ShapeError):
            collapse_metric(np.zeros((1, 4, 8), dtype=np.float32))


class TestConfig:
    def test_parse_key_value_with_comments(self):
        text = "# header\nbatch_size = 8  # trailing\n\ntotal_steps = 5\n"
        assert parse_config_text(text) == {"batch_size": "8", "total_steps": "5"}

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown config key"):
            TiJepaConfig.from_mapping({"bad_key": "1"})

    def test_malformed_line_reports_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse_config_text("a = 1\nnonsense\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_text_roundtrip(self):
        cfg = tiny_config(learning_rate=0.00125, freeze_predictor=True)
        assert TiJepaConfig.from_text(cfg.to_text()) == cfg

    def test_empty_key_rejected(self):
        with pytest.raises(DataError, match="config line 2: empty key"):
            parse_config_text("seed = 1\n = 3\n")

    def test_override_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(tiny_config().to_text())
        with pytest.raises(DataError, match="override must look like key=value, got 'seed'"):
            load_config(path, overrides=["seed"])

    def test_an_invalid_config_cannot_be_built(self):
        with pytest.raises(DataError, match="image_size must be >= 1, got 0"):
            TiJepaConfig(image_size=0)
        with pytest.raises(DataError, match="loss_type must be 'l2' or 'l1', got 'huber'"):
            dataclasses.replace(tiny_config(), loss_type="huber")

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(tiny_config().to_text())
        cfg = load_config(path, overrides=["seed=9", "batch_size = 2"])
        assert cfg.seed == 9
        assert cfg.batch_size == 2

    def test_validation_catches_bad_geometry(self):
        for image_size, patch_size in ((60, 8), (64, 0), (64, -8), (64, 64)):
            with pytest.raises(DataError):
                TiJepaConfig(image_size=image_size, patch_size=patch_size).validate()

    def test_validation_catches_bad_loss(self):
        with pytest.raises(DataError):
            tiny_config(loss_type="huber").validate()

    @pytest.mark.parametrize("overrides, key", [
        (dict(embed_dim=16, encoder_heads=3), "embed_dim"),
        (dict(patch_size=0), "patch_size"),
        (dict(fusion_layers=0), "fusion_layers"),
        (dict(predictor_width=16, predictor_heads=3), "predictor_width"),
        (dict(text_embed_dim=5, encoder_heads=1), "text_embed_dim"),
        (dict(embed_dim=6), "embed_dim"),
        (dict(fusion_hidden=16, fusion_heads=3), "fusion_hidden"),
        (dict(predictor_width=6), "predictor_width"),
        (dict(max_text_len=1), "max_text_len"),
    ], ids=["encoder_heads", "patch_size", "fusion_layers", "predictor_heads",
            "text_width_quarters", "image_width_quarters", "fusion_heads",
            "predictor_width_quarters", "max_text_len"])
    def test_validation_names_the_size_no_module_can_build(self, overrides, key):
        with pytest.raises(DataError, match=key):
            tiny_config(**overrides).validate()

    @pytest.mark.parametrize("overrides", [
        dict(embed_dim=4, text_embed_dim=4, encoder_heads=1),
        dict(fusion_hidden=1, fusion_heads=1),
        dict(fusion_hidden=3, fusion_heads=3),
        dict(max_text_len=2),
        dict(predictor_width=4, predictor_heads=4),
        dict(encoder_depth=0),
        dict(predictor_depth=0),
        dict(text_embed_dim=6, encoder_heads=2),
    ], ids=["width_4_one_head", "fusion_hidden_1", "fusion_hidden_3", "max_text_len_2",
            "predictor_width_4_four_heads", "encoder_depth_0", "predictor_depth_0",
            "text_width_6_even_not_quarters"])
    def test_every_edge_size_validate_accepts_trains_a_step(self, overrides):
        cfg = tiny_config(total_steps=1, **overrides)
        cfg.validate()
        result = train(cfg, tiny_dataset())
        assert result.state.step == 1
        assert np.isfinite(result.losses).all()

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("learning_rate", "-0.001"),
        ("weight_decay", "nan"), ("weight_decay", "-0.05"),
        ("beta1", "1.0"), ("beta1", "-0.1"), ("beta2", "1.0"), ("beta2", "nan"),
        ("adam_eps", "0"), ("adam_eps", "-1e-8"), ("adam_eps", "inf"),
        ("ctx_scale_lo", "0"), ("ctx_scale_lo", "nan"), ("ctx_scale_hi", "1.5"),
        ("tgt_scale_lo", "0.5"), ("tgt_scale_lo", "-0.1"), ("tgt_scale_hi", "1.01"),
        ("tgt_aspect_lo", "-1"), ("tgt_aspect_lo", "0"), ("tgt_aspect_lo", "2"),
        ("tgt_aspect_hi", "inf"), ("tgt_aspect_hi", "nan"),
        ("mask_max_retries", "-1"),
        ("image_size", "0"), ("embed_dim", "0"), ("text_embed_dim", "0"),
        ("encoder_heads", "0"), ("fusion_layers", "0"), ("fusion_heads", "0"),
        ("fusion_hidden", "0"), ("mlp_ratio", "0"), ("mlp_ratio", "-1"),
        ("predictor_heads", "0"), ("predictor_width", "0"),
        ("encoder_depth", "-1"), ("predictor_depth", "-1"), ("seed", "-1"),
    ])
    def test_validation_catches_bad_optimizer_and_masking_values(self, key, value):
        with pytest.raises(DataError, match=key):
            TiJepaConfig.from_mapping({key: value})

    @pytest.mark.parametrize("key", ["num_targets", "batch_size", "total_steps", "log_interval",
                                     "checkpoint_interval"])
    def test_a_count_below_one_is_named_alone(self, key):
        with pytest.raises(DataError, match=f"^{key} must be >= 1, got 0$"):
            TiJepaConfig.from_mapping({key: "0"})

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "0"), ("weight_decay", "0"), ("beta1", "0"), ("beta2", "0.5"),
        ("tgt_scale_lo", "0.2"), ("ctx_scale_hi", "1"), ("tgt_aspect_lo", "1.5"),
        ("mask_max_retries", "0"), ("encoder_depth", "0"), ("predictor_depth", "0"),
        ("seed", "0"),
    ])
    def test_validation_keeps_boundary_values(self, key, value):
        TiJepaConfig.from_mapping({key: value})

    def test_mask_args_spell_out_the_sampling_keys(self):
        cfg = tiny_config(num_targets=3, ctx_scale_lo=0.8, tgt_aspect_hi=1.25,
                          mask_max_retries=7)
        assert cfg.mask_args() == dict(grid=(2, 2), num_targets=3, ctx_scale=(0.8, 1.0),
                                       tgt_scale=(0.15, 0.3), tgt_aspect=(0.75, 1.25),
                                       max_retries=7)
        a = sample_masks(rng=np.random.default_rng(5), **cfg.mask_args())
        b = sample_masks((2, 2), 3, (0.8, 1.0), (0.15, 0.3), (0.75, 1.25),
                         np.random.default_rng(5), 7)
        assert a == b


class TestTensorFileFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        tensors = {"b": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "a": np.array([1.5], dtype=np.float32)}
        path = tmp_path / "t.tijp"
        write_tensor_file(path, tensors)
        loaded = read_tensor_file(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["b"], tensors["b"])

    def test_save_twice_identical_bytes(self, tmp_path):
        tensors = {"x": np.random.default_rng(0).normal(size=(4, 4)).astype(np.float32)}
        p1, p2 = tmp_path / "1.tijp", tmp_path / "2.tijp"
        write_tensor_file(p1, tensors)
        write_tensor_file(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tijp"
        write_tensor_file(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="CRC|magic"):
            read_tensor_file(path)

    def test_corrupted_payload_fails_crc(self, tmp_path):
        path = tmp_path / "c.tijp"
        write_tensor_file(path, {"x": np.ones(8, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="CRC"):
            read_tensor_file(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.tijp"
        write_tensor_file(path, {"x": np.ones(8, dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataError):
            read_tensor_file(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.tijp"
        write_tensor_file(path, {"x": np.ones(4, dtype=np.float32)})
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(trainer_module.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            write_tensor_file(path, {"x": np.zeros(64, dtype=np.float32)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.tijp"]

    @staticmethod
    def rewrite(path, body):
        """``body`` under a valid CRC at ``path``."""
        import struct
        import zlib
        path.write_bytes(bytes(body) + struct.pack("<Q", zlib.crc32(bytes(body))))

    # "a" (2,) takes bytes 12..33: u32 length, name, tag, rank, one dim, 8 payload bytes
    @pytest.mark.parametrize("start", [16, 38], ids=["first", "second"])
    def test_a_name_that_is_not_utf8_is_reported_at_its_first_byte(self, tmp_path, start):
        path = tmp_path / "n.tijp"
        write_tensor_file(path, {"a": np.ones(2, dtype=np.float32),
                                 "bc": np.ones(1, dtype=np.float32)})
        body = bytearray(path.read_bytes()[:-8])
        assert body[start:start + 1] == (b"a" if start == 16 else b"b")
        body[start] = 0xFF
        self.rewrite(path, body)
        with pytest.raises(DataError, match=f"tensor name at byte {start} is not UTF-8"):
            read_tensor_file(path)

    # one tensor "ab" (2,): length 12..15, name 16..17, tag 18, rank 19..22, dim 23..26,
    # payload 27..34; the count still says one tensor wherever the body is cut
    @pytest.mark.parametrize("end, message", [
        (14, "truncated checkpoint"), (17, "truncated checkpoint"),
        (18, "truncated checkpoint"), (21, "truncated checkpoint"),
        (25, "truncated checkpoint"), (31, "truncated tensor payload for 'ab'")])
    def test_a_header_cut_inside_any_of_its_groups_is_truncated(self, tmp_path, end, message):
        path = tmp_path / "t.tijp"
        write_tensor_file(path, {"ab": np.ones(2, dtype=np.float32)})
        body = path.read_bytes()[:-8]
        assert len(body) == 35
        self.rewrite(path, body[:end])
        with pytest.raises(DataError, match=message):
            read_tensor_file(path)

    def test_an_unknown_dtype_tag_is_refused(self, tmp_path):
        path = tmp_path / "d.tijp"
        write_tensor_file(path, {"ab": np.ones(2, dtype=np.float32)})
        body = bytearray(path.read_bytes()[:-8])
        body[18] = 7
        self.rewrite(path, body)
        with pytest.raises(DataError, match="unknown dtype tag 7 for 'ab'"):
            read_tensor_file(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import struct
        import zlib
        path = tmp_path / "v.tijp"
        write_tensor_file(path, {"x": np.ones(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())[:-8]
        blob[4:8] = struct.pack("<I", 99)
        blob += struct.pack("<Q", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            read_tensor_file(path)


class TestGoldenBytes:
    # The default config's initial checkpoint, pinned. Initialization draws
    # from seeded generators and uses no BLAS, so the bytes are the same on
    # every machine; a change means the init draw order, a tensor name or the
    # file format moved.
    INIT_SHA256 = "bae0ce0fcff131214275940f490b0049b8fd9002bcb06b6de67bacec4f21739b"
    INIT_BYTES = 4_366_107

    def test_default_initial_checkpoint_digest(self, tmp_path):
        save_checkpoint(PretrainState.initialize(TiJepaConfig()), tmp_path / "init.tijp")
        blob = (tmp_path / "init.tijp").read_bytes()
        assert len(blob) == self.INIT_BYTES
        assert hashlib.sha256(blob).hexdigest() == self.INIT_SHA256


def reachable_tensors(module: Module) -> dict[int, Tensor]:
    """Every tensor reachable from ``module`` through the attributes of it and
    its submodules, and through lists and tuples, keyed by id."""
    found, stack, seen = {}, [module], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Tensor):
            found[id(item)] = item
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, Module):
            stack.extend(vars(item).values())
    return found


class TestParameterTree:
    # the sorted names of the default config's parameters, pinned
    DEFAULT_NAMES_SHA256 = "505139cf18fa89b5bb2b9b52dec38030d3eb492ce5020059c19cf1703a72c6fd"

    @pytest.mark.parametrize("make", [
        lambda rng: PretrainState.initialize(TiJepaConfig()),
        lambda rng: FusionModule(CrossAttnConfig(layers=1, heads=2, hidden=8, patch_dim=12,
                                                 text_dim=20), rng),
        lambda rng: Predictor(0, 2, 8, 12, rng),
        lambda rng: ClassifierHead(8, rng),
        lambda rng: PretrainState.initialize(TiJepaConfig()).clone(),
        lambda rng: FusionModule(CrossAttnConfig(layers=1, heads=2, hidden=8, patch_dim=12,
                                                 text_dim=20), rng).clone(),
        lambda rng: Predictor(0, 2, 8, 12, rng).clone(),
        lambda rng: ClassifierHead(8, rng).clone(),
    ], ids=["default_state", "fusion_with_projections", "depth0_predictor", "head",
            "default_state_clone", "fusion_with_projections_clone", "depth0_predictor_clone",
            "head_clone"])
    def test_every_reachable_tensor_is_named_exactly_once(self, make):
        module = make(np.random.default_rng(0))
        params = module.named_parameters()
        ids = [id(p) for p in params.values()]
        assert len(set(ids)) == len(ids)
        assert set(ids) == set(reachable_tensors(module))

    @pytest.mark.parametrize("make", [
        lambda: PretrainState.initialize(TiJepaConfig()),
        lambda: PretrainState.initialize(TiJepaConfig(freeze_encoders=False)),
        lambda: PretrainState.initialize(TiJepaConfig(freeze_predictor=True)),
        lambda: ClassifierHead(8, np.random.default_rng(0)),
    ], ids=["default_state", "unfrozen_encoders", "frozen_predictor", "head"])
    def test_each_parameter_is_made_by_one_param_call(self, monkeypatch, make):
        # the target twin is cloned from the online fusion, so its tensors are copies
        made, real_param = [], Module._param

        def counted(self, name, *args, **kwargs):
            made.append(name)
            return real_param(self, name, *args, **kwargs)

        monkeypatch.setattr(Module, "_param", counted)
        module = make()
        params = module.named_parameters()
        twin = [name for name in params if name.startswith("target_fusion.")]
        assert len(made) == len(params) - len(twin) > 0
        if isinstance(module, PretrainState):
            online = module.fusion.named_parameters("target_fusion")
            assert twin == list(online)
            for name in twin:
                assert params[name] is not online[name]
                assert params[name].data.tobytes() == online[name].data.tobytes()

    def test_initialize_scans_no_parameter_value(self, monkeypatch):
        scanned = []

        def counting(arr, what, *args):
            scanned.append(what)

        for module in (numerics_module, trainer_module):
            monkeypatch.setattr(module, "_check_finite", counting)
        PretrainState.initialize(TiJepaConfig(freeze_encoders=False))
        assert scanned == []

    def test_every_parameter_owns_its_writable_array(self):
        params = PretrainState.initialize(TiJepaConfig()).named_parameters().values()
        for p in params:
            assert p.data.flags.writeable and p.data.flags.owndata
        # arrays that each own their memory share it only when they are one array
        assert len({id(p.data) for p in params}) == len(params)

    def test_default_state_keeps_its_names(self):
        names = sorted(PretrainState.initialize(TiJepaConfig()).named_parameters())
        assert len(names) == 198
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == \
            self.DEFAULT_NAMES_SHA256


# one builder per model class and layout, each from sizes and a generator
MODEL_BUILDERS = {
    "attention": lambda rng: AttentionParams(8, rng),
    "block": lambda rng: TransformerBlock(8, 2, rng),
    "cross_block": lambda rng: TransformerBlock(8, 2, rng, cross_std=0.2),
    "image_encoder": lambda rng: ImageEncoder(4, 8, 1, 2, rng),
    "text_encoder": lambda rng: TextEncoder(8, 1, 2, 8, rng),
    "fusion_with_projections": lambda rng: FusionModule(
        CrossAttnConfig(layers=2, heads=2, hidden=8, patch_dim=12, text_dim=20), rng),
    "depth0_predictor": lambda rng: Predictor(0, 2, 8, 12, rng),
    "depth2_predictor": lambda rng: Predictor(2, 2, 8, 12, rng),
    "head": lambda rng: ClassifierHead(8, rng),
}


def module_subclasses(cls=Module):
    for sub in cls.__subclasses__():
        yield sub
        yield from module_subclasses(sub)


class TestModuleMethods:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("make", MODEL_BUILDERS.values(), ids=MODEL_BUILDERS)
    def test_clone_is_an_independent_bitwise_copy(self, make, dtype):
        module = make(np.random.default_rng(7)).astype(dtype)
        params = module.named_parameters()
        rng = np.random.default_rng(8)
        for p in params.values():  # trained values: biases and gains no longer 0 and 1
            p.data[...] = rng.uniform(-1, 1, p.shape)
            p.grad = np.ones_like(p.data)
        twin = module.clone()
        assert type(twin) is type(module)
        assert list(twin.named_parameters()) == list(params)
        for name, p in twin.named_parameters().items():
            assert p.data.dtype == dtype and p.data.tobytes() == params[name].data.tobytes()
            assert not p.requires_grad and p.grad is None
            assert not np.shares_memory(p.data, params[name].data)
        assert all(p.requires_grad and p.grad is not None for p in params.values())

    @pytest.mark.parametrize("make", MODEL_BUILDERS.values(), ids=MODEL_BUILDERS)
    def test_astype_casts_every_parameter_in_its_own_tensor(self, make):
        module = make(np.random.default_rng(7))
        params = module.named_parameters()
        values = {name: p.data.copy() for name, p in params.items()}
        assert module.astype(np.float64) is module
        cast = module.named_parameters()
        assert list(cast) == list(params)
        for name, p in cast.items():
            assert p is params[name] and p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, values[name])

    @pytest.mark.parametrize("make", MODEL_BUILDERS.values(), ids=MODEL_BUILDERS)
    def test_requires_grad_sets_every_parameter(self, make):
        module = make(np.random.default_rng(7))
        params = module.named_parameters().values()
        assert all(p.requires_grad for p in params)
        assert module.requires_grad_(False) is module
        assert not any(p.requires_grad for p in params)
        assert all(p.requires_grad for p in module.requires_grad_(True).named_parameters().values())

    def test_modules_take_sizes_and_a_generator_and_share_one_set_of_tree_methods(self):
        found = {cls for cls in module_subclasses() if cls.__module__.startswith("tijepa.")}
        assert {AttentionParams, TransformerBlock, ImageEncoder, TextEncoder, FusionModule,
                Predictor, ClassifierHead, PretrainState} <= found
        for cls in found:
            signature = inspect.signature(cls.__init__).parameters
            assert "dtype" not in signature and "requires_grad" not in signature, cls
            assert not {"clone", "astype", "requires_grad_"} & set(vars(cls)), cls


class TestCheckpointing:
    def test_roundtrip_restores_everything(self, tmp_path):
        cfg = tiny_config(total_steps=2)
        result = train(cfg, tiny_dataset())
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(result.state, path)
        restored = load_checkpoint(path)
        assert restored.step == result.state.step
        assert restored.config == cfg
        original = result.state.named_parameters()
        for name, p in restored.named_parameters().items():
            np.testing.assert_array_equal(p.data, original[name].data)
        assert restored.opt.t == result.state.opt.t

    def test_a_checkpoint_without_a_config_snapshot_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(PretrainState.initialize(tiny_config()), path)
        tensors = read_tensor_file(path)
        del tensors["meta.config"]
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match="checkpoint lacks a config snapshot"):
            load_checkpoint(path)

    def test_unknown_tensor_rejected(self, tmp_path):
        cfg = tiny_config(total_steps=1)
        state = PretrainState.initialize(cfg)
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(state, path)
        tensors = read_tensor_file(path)
        tensors["mystery.weight"] = np.zeros(3, dtype=np.float32)
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match="unknown"):
            load_checkpoint(path)

    @staticmethod
    def with_key_biases(path):
        """The tensors of ``path`` plus nonzero attention key biases and their
        moments, as a file written before the key bias was removed holds them."""
        tensors = read_tensor_file(path)
        rng = np.random.default_rng(3)
        for name in [n for n in tensors if n.endswith(".wk")]:
            width = tensors[name].shape[1]
            tensors[name[:-3] + ".bk"] = rng.uniform(0.1, 1.0, width).astype(np.float32)
        return tensors

    def test_key_biases_of_an_older_file_are_dropped(self, tmp_path):
        path, again = tmp_path / "old.tijp", tmp_path / "again.tijp"
        save_checkpoint(train(tiny_config(total_steps=1), tiny_dataset()).state, path)
        tensors = self.with_key_biases(path)
        assert {f"{kind}fusion.layers.0.cross_attn.bk"
                for kind in ("", "optimizer.m.", "optimizer.v.")} <= set(tensors)
        write_tensor_file(path, tensors)
        save_checkpoint(load_checkpoint(path), again)
        kept = read_tensor_file(again)
        assert set(kept) == {n for n in tensors if not n.endswith(".bk")}
        for name, arr in kept.items():
            np.testing.assert_array_equal(arr, tensors[name], err_msg=name)

    @pytest.mark.parametrize("name", ["mystery.weight", "fusion.layers.0.cross_attn.bk2",
                                      "fusion.layers.0.cross_attn.bkey"])
    def test_other_unknown_tensors_beside_key_biases_rejected(self, tmp_path, name):
        path = tmp_path / "old.tijp"
        save_checkpoint(PretrainState.initialize(tiny_config(total_steps=1)), path)
        tensors = self.with_key_biases(path)
        tensors[name] = np.ones(3, dtype=np.float32)
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match=f"unknown tensors: {name}\\)"):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg = tiny_config(total_steps=1)
        state = PretrainState.initialize(cfg)
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(state, path)
        tensors = read_tensor_file(path)
        del tensors["predictor.mask_token"]
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match="missing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value, match", [
        ("fusion.layers.0.cross_attn.bq", np.nan, "non-finite"),
        ("predictor.mask_token", np.inf, "non-finite"),
        ("optimizer.m.predictor.mask_token", -np.inf, "non-finite"),
        ("optimizer.v.fusion.layers.0.cross_attn.bq", np.nan, "non-finite"),
    ])
    def test_non_finite_parameter_or_moment_rejected(self, tmp_path, name, value, match):
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(PretrainState.initialize(tiny_config(total_steps=1)), path)
        tensors = read_tensor_file(path)
        tensors[name].reshape(-1)[0] = value
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["m", "v"])
    def test_non_finite_moments_name_the_first_bad_tensor(self, tmp_path, kind):
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(PretrainState.initialize(tiny_config(total_steps=1)), path)
        tensors = read_tensor_file(path)
        first, later = "fusion.layers.0.cross_attn.bq", "predictor.mask_token"
        for name in (later, first):
            tensors[f"optimizer.{kind}.{name}"].reshape(-1)[-1] = np.nan
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match=f"non-finite values in tensor "
                                            f"'optimizer.{kind}.{first}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("frozen", [True, False])
    def test_load_checks_each_value_once(self, tmp_path, monkeypatch, frozen):
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(train(tiny_config(total_steps=1, freeze_encoders=frozen),
                              tiny_dataset()).state, path)
        scanned = []
        real_check = numerics_module._check_finite

        def counting(arr, what, *args):
            scanned.append(arr.size)
            real_check(arr, what, *args)

        for module in (numerics_module, trainer_module):
            monkeypatch.setattr(module, "_check_finite", counting)
        state = load_checkpoint(path)
        # each parameter and each moment once; none of the zero layout's constants
        assert sum(scanned) == sum(p.data.size for p in state.named_parameters().values()) \
            + state.opt.m_flat.size + state.opt.v_flat.size
        for p in state.named_parameters().values():
            assert p.data.flags.writeable and p.data.flags.owndata

    @pytest.mark.parametrize("step", [-1.0, 2.5, np.nan])
    def test_negative_or_fractional_counters_rejected(self, tmp_path, step):
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(PretrainState.initialize(tiny_config(total_steps=1)), path)
        tensors = read_tensor_file(path)
        for name in ("optimizer.t", "meta.step"):
            tensors[name][0] = step
            write_tensor_file(path, tensors)
            with pytest.raises(DataError, match=name):
                load_checkpoint(path)
            tensors[name][0] = 0.0

    def test_optimizer_t_must_equal_meta_step(self, tmp_path):
        path = tmp_path / "ckpt.tijp"
        save_checkpoint(train(tiny_config(total_steps=2), tiny_dataset()).state, path)
        tensors = read_tensor_file(path)
        tensors["optimizer.t"][0] = 7.0
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match="optimizer.t 7 != meta.step 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("overrides", [{}, {"freeze_encoders": False},
                                           {"freeze_predictor": True}])
    def test_load_draws_no_init_and_restores_every_byte(self, tmp_path, monkeypatch, overrides):
        cfg = tiny_config(total_steps=1, **overrides)
        p1, p2 = tmp_path / "a.tijp", tmp_path / "b.tijp"
        save_checkpoint(train(cfg, tiny_dataset()).state, p1)
        fresh = PretrainState.initialize(cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert {n: (p.requires_grad, p.dtype) for n, p in loaded.named_parameters().items()} \
            == {n: (p.requires_grad, p.dtype) for n, p in fresh.named_parameters().items()}
        assert loaded.opt.m.keys() == fresh.opt.m.keys() == loaded.opt.v.keys()

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg = tiny_config(total_steps=1)
        result = train(cfg, tiny_dataset())
        p1, p2 = tmp_path / "a.tijp", tmp_path / "b.tijp"
        save_checkpoint(result.state, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestTrainLoop:
    def test_zero_learning_rate_freezes_all_parameters(self):
        # default weight decay stays in: lr=0 makes the decay factor exactly 1
        cfg = tiny_config(total_steps=1, learning_rate=0.0)
        state = PretrainState.initialize(cfg)
        before = {n: p.data.copy() for n, p in state.named_parameters().items()}
        train(cfg, tiny_dataset(), state=state)
        for name, p in state.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_frozen_encoders_unchanged_and_online_modules_move(self):
        cfg = tiny_config(total_steps=5)
        state = PretrainState.initialize(cfg)
        enc_before = param_bytes({**state.image_encoder.named_parameters(),
                                  **state.text_encoder.named_parameters()})
        fusion_before = param_bytes(state.fusion.named_parameters())
        predictor_before = param_bytes(state.predictor.named_parameters())
        train(cfg, tiny_dataset(), state=state)
        enc_after = param_bytes({**state.image_encoder.named_parameters(),
                                 **state.text_encoder.named_parameters()})
        assert enc_after == enc_before
        assert param_bytes(state.fusion.named_parameters()) != fusion_before
        assert param_bytes(state.predictor.named_parameters()) != predictor_before
        for p in state.target_fusion.named_parameters().values():
            assert p.grad is None

    def test_same_seed_same_checkpoint_bytes(self, tmp_path):
        cfg = tiny_config(total_steps=3)
        for name in ("a", "b"):
            result = train(cfg, tiny_dataset())
            save_checkpoint(result.state, tmp_path / f"{name}.tijp")
        assert (tmp_path / "a.tijp").read_bytes() == (tmp_path / "b.tijp").read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        # the mid-run checkpoint comes from the same config, so the EMA ramp
        # and batch schedule line up exactly with the uninterrupted run
        data = tiny_dataset()
        cfg = tiny_config(total_steps=5, checkpoint_interval=3)
        full = train(cfg, data, out_dir=tmp_path / "full")
        resumed_state = load_checkpoint(tmp_path / "full" / "checkpoint_000003.tijp")
        resumed = train(cfg, data, state=resumed_state)
        assert resumed.losses == full.losses[3:]
        p2 = tmp_path / "resumed.tijp"
        save_checkpoint(resumed.state, p2)
        final = (tmp_path / "full" / "checkpoint_final.tijp").read_bytes()
        assert p2.read_bytes() == final

    def test_a_batch_that_cannot_be_masked_stops_before_any_update(self, caplog):
        # every target block covers the whole 2x2 grid, so no example keeps a context
        cfg = tiny_config(tgt_scale_lo=1.0, tgt_scale_hi=1.0)
        state = PretrainState.initialize(cfg)
        before = step_bytes(state)
        with caplog.at_level(logging.WARNING, logger="tijepa.trainer"):
            with pytest.raises(DataError, match="step 1: no example of the batch could be masked"):
                train(cfg, tiny_dataset(), state=state)
        skipped = [r for r in caplog.records if "skipping example" in r.getMessage()]
        assert len(skipped) == cfg.batch_size
        assert state.step == 0
        assert step_bytes(state) == before

    def test_metric_rows_follow_log_interval(self):
        cfg = tiny_config(total_steps=6, log_interval=2)
        result = train(cfg, tiny_dataset())
        assert [row.step for row in result.rows] == [1, 2, 4, 6]
        for row in result.rows:
            assert np.isfinite(row.loss)
            parts = row.format().split("\t")
            assert len(parts) == 4

    def test_metrics_log_file(self, tmp_path):
        cfg = tiny_config(total_steps=2, log_interval=1, checkpoint_interval=2)
        train(cfg, tiny_dataset(), out_dir=tmp_path)
        lines = (tmp_path / "metrics.log").read_text().strip().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "checkpoint_000002.tijp").exists()
        assert (tmp_path / "checkpoint_final.tijp").exists()

    def test_metrics_rows_survive_a_failed_step(self, tmp_path, monkeypatch):
        real_step = trainer_module.adamw_step
        calls = []

        def step_that_fails_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericalError("injected")
            real_step(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "adamw_step", step_that_fails_third)
        with pytest.raises(NumericalError, match="injected"):
            train(tiny_config(total_steps=5, log_interval=1), tiny_dataset(),
                  out_dir=tmp_path)
        lines = (tmp_path / "metrics.log").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["1", "2"]
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_resumed_run_logs_each_step_once(self, tmp_path, monkeypatch):
        real_step = trainer_module.adamw_step
        calls = []

        def step_that_fails_fourth(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise NumericalError("injected")
            real_step(*args, **kwargs)

        cfg = tiny_config(total_steps=5, log_interval=1, checkpoint_interval=2)
        monkeypatch.setattr(trainer_module, "adamw_step", step_that_fails_fourth)
        with pytest.raises(NumericalError, match="injected"):
            train(cfg, tiny_dataset(), out_dir=tmp_path)
        monkeypatch.setattr(trainer_module, "adamw_step", real_step)
        state = load_checkpoint(tmp_path / "checkpoint_000002.tijp")
        train(cfg, tiny_dataset(), out_dir=tmp_path, state=state)
        lines = (tmp_path / "metrics.log").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["1", "2", "3", "4", "5"]

    def test_a_torn_last_row_is_dropped_on_resume(self, tmp_path):
        # a crash while row 11 was appended leaves its first byte; the resume
        # from step 10 must log row 11 whole, not after that byte
        cfg = tiny_config(total_steps=12, log_interval=1, checkpoint_interval=10)
        train(cfg, tiny_dataset(), out_dir=tmp_path)
        log = tmp_path / "metrics.log"
        whole = log.read_bytes()
        rows = whole.splitlines(keepends=True)
        log.write_bytes(b"".join(rows[:10]) + rows[10][:1])
        final = (tmp_path / "checkpoint_final.tijp").read_bytes()
        state = load_checkpoint(tmp_path / "checkpoint_000010.tijp")
        train(cfg, tiny_dataset(), out_dir=tmp_path, state=state)
        assert log.read_bytes() == whole
        assert (tmp_path / "checkpoint_final.tijp").read_bytes() == final

    def test_an_extended_run_ramps_the_ema_over_the_new_total(self):
        data = tiny_dataset()
        state = train(tiny_config(total_steps=2), data).state
        longer = tiny_config(total_steps=4)
        rows = train(longer, data, state=state).rows
        assert [(row.step, row.ema_m) for row in rows] == \
            [(step, momentum_at(step, longer.ema_schedule())) for step in (3, 4)]

    def test_a_failed_rewrite_of_a_resumed_runs_log_keeps_its_bytes(self, tmp_path, monkeypatch):
        cfg = tiny_config(total_steps=5, log_interval=1, checkpoint_interval=2)
        train(cfg, tiny_dataset(), out_dir=tmp_path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        assert len((tmp_path / "metrics.log").read_text().splitlines()) == 5

        def failing_replace(src, dst):
            raise OSError("injected")

        monkeypatch.setattr(trainer_module.os, "replace", failing_replace)
        state = load_checkpoint(tmp_path / "checkpoint_000002.tijp")
        with pytest.raises(OSError, match="injected"):
            train(cfg, tiny_dataset(), out_dir=tmp_path, state=state)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_nan_in_one_example_stops_the_step_before_any_update(self, tmp_path):
        cfg = tiny_config(batch_size=4, total_steps=1)
        data = tiny_dataset(n=4)
        data[2].image[1, 3, 5] = np.nan
        state = PretrainState.initialize(cfg)
        before = param_bytes(state.named_parameters())
        moments = [arr.copy() for arr in (*state.opt.m.values(), *state.opt.v.values())]
        # the pixel is refused by its example's position before anything under out_dir
        with pytest.raises(NumericalError, match="non-finite pixels in example 2"):
            train(cfg, data, out_dir=tmp_path / "run", state=state)
        assert list(tmp_path.iterdir()) == []
        assert param_bytes(state.named_parameters()) == before
        for old, new in zip(moments, (*state.opt.m.values(), *state.opt.v.values())):
            assert new.tobytes() == old.tobytes()
        assert state.opt.t == 0 and state.step == 0

    @pytest.mark.parametrize("bad", ["int64", "out_of_range"])
    def test_an_image_outside_the_pixel_contract_is_refused_before_out_dir(self, tmp_path, bad):
        data = tiny_dataset(n=4)
        image = data[2].image
        data[2] = dataclasses.replace(data[2], image=(image * 255).astype(np.int64)
                                      if bad == "int64" else image * 2.0 - 0.5)
        message = "example 2: image dtype int64 is not uint8 or float" if bad == "int64" \
            else r"example 2: float pixels outside \[0, 1\]"
        with pytest.raises(DataError, match=message):
            train(tiny_config(total_steps=1), data, out_dir=tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("frozen", [True, False])
    def test_tape_size_does_not_grow_with_the_batch(self, monkeypatch, frozen):
        sizes = []
        real_backward = trainer_module.backward

        def counted_backward(loss):
            sizes.append(len(active_tape()))
            real_backward(loss)

        monkeypatch.setattr(trainer_module, "backward", counted_backward)
        for batch_size in (1, 4):
            train(tiny_config(batch_size=batch_size, total_steps=1, freeze_encoders=frozen),
                  tiny_dataset())
        assert sizes[0] == sizes[1] > 0

    def test_step_tape_ends_with_the_loss_op_and_its_batch_mean(self, monkeypatch):
        taped = []
        real_backward = trainer_module.backward

        def recorded_backward(loss):
            taped.append([op for op, *_ in active_tape()])
            real_backward(loss)

        monkeypatch.setattr(trainer_module, "backward", recorded_backward)
        train(tiny_config(total_steps=1), tiny_dataset())
        assert len(taped) == 1
        assert taped[0][-2:] == ["block_distance", "scale"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(tiny_config(), [])

    def test_wrong_image_size_rejected(self):
        cfg = tiny_config()
        with pytest.raises(DataError, match=r"example 0: image shape \(3, 32, 32\)"):
            train(cfg, synth_generate(4, seed=0, image_size=32))

    def test_a_wrong_size_image_leaves_a_resumed_runs_files_as_they_were(self, tmp_path):
        # a resume would first cut the log back to step 2, so the image check
        # must come before anything under out_dir is touched
        cfg = tiny_config(total_steps=4, log_interval=1, checkpoint_interval=2)
        train(cfg, tiny_dataset(), out_dir=tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert {"metrics.log", "checkpoint_000002.tijp"} <= set(before)
        state = load_checkpoint(tmp_path / "checkpoint_000002.tijp")
        data = tiny_dataset()
        data[5] = synth_generate(1, seed=0, image_size=32)[0]
        with pytest.raises(DataError, match="example 5: image shape"):
            train(cfg, data, out_dir=tmp_path, state=state)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert state.step == 2

    def test_a_masking_config_that_leaves_no_context_leaves_a_resumed_runs_files_as_they_were(
            self, tmp_path):
        # the first step's masks are drawn before the resume cuts the log back to step 2
        cfg = tiny_config(total_steps=4, log_interval=1, checkpoint_interval=2)
        train(cfg, tiny_dataset(), out_dir=tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert len((tmp_path / "metrics.log").read_text().splitlines()) == 4
        state = load_checkpoint(tmp_path / "checkpoint_000002.tijp")
        with pytest.raises(DataError, match="step 3: no example of the batch could be masked"):
            train(dataclasses.replace(cfg, num_targets=50), tiny_dataset(), out_dir=tmp_path,
                  state=state)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert state.step == 2

    def test_caption_sensitivity_returns_two_means(self):
        cfg = tiny_config(total_steps=1)
        result = train(cfg, tiny_dataset())
        true_loss, permuted_loss = caption_sensitivity(result.state, tiny_dataset(),
                                                       limit=4)
        assert np.isfinite(true_loss) and np.isfinite(permuted_loss)

    def test_caption_sensitivity_needs_two_examples(self):
        state = PretrainState.initialize(tiny_config())
        for data, limit in ((tiny_dataset(1), None), (tiny_dataset(), 1)):
            with pytest.raises(DataError, match="caption sensitivity needs at least 2 examples"):
                caption_sensitivity(state, data, limit=limit)

    def test_caption_sensitivity_rejects_an_example_without_an_image(self):
        data = tiny_dataset()
        data[2] = PairedExample(None, data[2].caption)
        with pytest.raises(DataError, match="example 2 has no image data"):
            caption_sensitivity(PretrainState.initialize(tiny_config()), data, limit=4)

    def test_caption_sensitivity_rejects_an_image_of_another_size(self):
        data = tiny_dataset()[:3] + synth_generate(1, seed=0, image_size=32)
        with pytest.raises(DataError, match="example 3: image shape"):
            caption_sensitivity(PretrainState.initialize(tiny_config()), data, limit=4)


class TestBackwardReplay:
    """``backward`` pops each record as it replays it; the gradients are those of
    a replay that keeps every record until the end."""

    @staticmethod
    def kept_tape_backward(tape, loss):
        # every record stays alive until the replay ends
        loss.grad = np.ones_like(loss.data)
        for _op, inputs, output, back in reversed(tape):
            if output.grad is None:
                continue
            for t, gi in zip(inputs, back(output.grad)):
                if gi is not None and t.requires_grad:
                    t.grad = np.asarray(gi, dtype=t.data.dtype) if t.grad is None else t.grad + gi

    @pytest.mark.parametrize("frozen", [True, False])
    def test_leaf_gradients_equal_a_kept_tape_replay_bitwise(self, monkeypatch, frozen):
        compared = []
        real_backward = trainer_module.backward

        def both_ways(loss):
            kept = list(active_tape())
            produced = {id(output) for _op, _inputs, output, _back in kept}
            leaves = {id(t): t for _op, inputs, _o, _b in kept for t in inputs
                      if t.requires_grad and id(t) not in produced}
            self.kept_tape_backward(kept, loss)
            reference = {key: t.grad for key, t in leaves.items()}
            for _op, inputs, output, _back in kept:
                output.grad = None
                for t in inputs:
                    t.grad = None
            real_backward(loss)
            assert not active_tape()
            for key, t in leaves.items():
                expected = np.zeros_like(t.data) if reference[key] is None else reference[key]
                assert t.grad.tobytes() == expected.tobytes()
            assert all(output.grad is None for _op, _inputs, output, _back in kept)
            compared.append(len(leaves))

        monkeypatch.setattr(trainer_module, "backward", both_ways)
        train(tiny_config(total_steps=2, freeze_encoders=frozen), tiny_dataset())
        assert len(compared) == 2 and compared[0] > 0

    @pytest.mark.parametrize("frozen", [True, False])
    def test_backward_frees_activations_as_it_replays(self, monkeypatch, frozen):
        # traced peak during backward above the live memory at its entry, on this
        # config: 17-26 kB frozen and 28-37 kB with trainable encoders; keeping every
        # record until the replay ended gave 82-86 kB and 238-240 kB
        rises = []
        real_backward = trainer_module.backward

        def measured(loss):
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            real_backward(loss)
            rises.append(tracemalloc.get_traced_memory()[1] - entry)

        monkeypatch.setattr(trainer_module, "backward", measured)
        tracemalloc.start()
        try:
            train(tiny_config(total_steps=2, freeze_encoders=frozen), tiny_dataset())
        finally:
            tracemalloc.stop()
        assert len(rises) == 2 and max(rises) < 56 * 1024, rises


def step_bytes(state):
    """Everything a training step may move: parameters, moments and counters."""
    moments = {name: arr.tobytes() for kind in ("m", "v")
               for name, arr in getattr(state.opt, kind).items()}
    return param_bytes(state.named_parameters()), moments, state.opt.t, state.step


def first_weight(module):
    return next(t for t in module.named_parameters().values() if t.ndim == 2)


class TestFinitenessPolicy:
    """Op outputs are not scanned: the loss check and the gradient check in
    ``adamw_step`` stop a step, and gradient-free outputs are checked where
    they leave the model."""

    @staticmethod
    def trained_state(frozen):
        # one good step first, so the moments that must not move are non-zero
        return train(tiny_config(total_steps=1, freeze_encoders=frozen), tiny_dataset()).state

    @pytest.mark.parametrize("frozen", [True, False])
    @pytest.mark.parametrize("module", ["fusion", "target_fusion"])
    def test_nan_fusion_weight_stops_the_step_before_any_update(self, frozen, module):
        state = self.trained_state(frozen)
        first_weight(getattr(state, module)).data[0, 0] = np.nan
        before = step_bytes(state)
        with pytest.raises(NumericalError, match="non-finite loss at step 2"):
            train(tiny_config(total_steps=2, freeze_encoders=frozen), tiny_dataset(), state=state)
        assert step_bytes(state) == before

    def test_nan_only_in_a_backward_stops_the_step_at_adamw(self, monkeypatch):
        real_record = numerics_module._record

        def nan_mlp_backward(op, inputs, arr, back):
            if op == "mlp":
                return real_record(op, inputs, arr,
                                   lambda g: tuple(np.full_like(gi, np.nan) for gi in back(g)))
            return real_record(op, inputs, arr, back)

        state = self.trained_state(frozen=True)
        before = step_bytes(state)
        monkeypatch.setattr(numerics_module, "_record", nan_mlp_backward)
        with pytest.raises(NumericalError, match="non-finite gradient for parameter '"):
            train(tiny_config(total_steps=2), tiny_dataset(), state=state)
        assert step_bytes(state) == before

    def test_finetune_and_evaluate_reject_non_finite_features(self):
        state = PretrainState.initialize(tiny_config())
        first_weight(state.fusion).data[0, 0] = np.nan
        before = step_bytes(state)
        data = synth_generate(8, seed=0, image_size=16, labeled=True)
        with pytest.raises(NumericalError, match="pooled features"):
            finetune(state, data[:4], data[4:], epochs=1)
        with pytest.raises(NumericalError, match="pooled features"):
            evaluate(state, ClassifierHead(16), data)
        assert step_bytes(state) == before

    def test_caption_sensitivity_rejects_a_non_finite_loss(self):
        state = PretrainState.initialize(tiny_config())
        first_weight(state.predictor).data[0, 0] = np.nan
        before = step_bytes(state)
        with pytest.raises(NumericalError, match="caption sensitivity loss"):
            caption_sensitivity(state, tiny_dataset(), limit=4)
        assert step_bytes(state) == before

    def test_a_step_checks_no_op_output_but_its_loss(self, monkeypatch):
        outputs, checked = [], []
        real_record, real_check = numerics_module._record, numerics_module._check_finite

        def recording(op, inputs, arr, back):
            outputs.append(real_record(op, inputs, arr, back))
            return outputs[-1]

        def spying(arr, what, *args):
            checked.append((arr, what))
            real_check(arr, what, *args)

        state = PretrainState.initialize(tiny_config(total_steps=1))
        for module in (numerics_module, trainer_module):
            monkeypatch.setattr(module, "_check_finite", spying)
        monkeypatch.setattr(numerics_module, "_record", recording)
        train(tiny_config(total_steps=1), tiny_dataset(), state=state)
        # both lists hold their arrays alive, so equal ids mean the same array
        op_arrays = {id(out.data) for out in outputs}
        assert outputs and [what for arr, what in checked if id(arr) in op_arrays] \
            == ["loss at step 1"]
        # the step's gradient checks cover every trainable value once
        gradient_sizes = [arr.size for arr, what in checked if what.startswith("gradient")]
        assert sum(gradient_sizes) == sum(p.data.size
                                          for p in state.trainable_parameters().values())


class TestStepFunctions:
    @pytest.mark.parametrize("frozen", [True, False])
    def test_the_gradient_half_moves_nothing_and_repeats_bit_for_bit(self, frozen):
        # one good step first, so the moments that must not move are non-zero
        cfg = tiny_config(total_steps=1, freeze_encoders=frozen)
        data = tiny_dataset()
        state = train(cfg, data).state
        table = PairInputs([e.image for e in data], [e.caption for e in data], cfg.image_size,
                           state.image_encoder, state.text_encoder, stored=frozen)
        masks = [sample_masks(rng=np.random.default_rng([7, i]), **cfg.mask_args())
                 for i in range(4)]
        before = step_bytes(state)
        runs = []
        for _ in range(2):
            loss, fused = trainer_module.step_gradients(cfg, state, table, table.ids[:4], masks)
            grads = {n: p.grad.tobytes() for n, p in state.trainable_parameters().items()}
            runs.append((loss, fused.data.tobytes(), grads))
        assert runs[0] == runs[1]
        assert any(np.any(p.grad) for p in state.trainable_parameters().values())
        assert any(name.startswith("image_encoder.") for name in runs[0][2]) == (not frozen)
        assert step_bytes(state) == before


class TestFreezeVariants:
    def test_freeze_predictor_flag(self):
        cfg = tiny_config(freeze_predictor=True, total_steps=2)
        state = PretrainState.initialize(cfg)
        before = param_bytes(state.predictor.named_parameters())
        train(cfg, tiny_dataset(), state=state)
        assert param_bytes(state.predictor.named_parameters()) == before

    def test_unfrozen_encoders_train(self):
        cfg = tiny_config(freeze_encoders=False, total_steps=2)
        state = PretrainState.initialize(cfg)
        before = param_bytes(state.image_encoder.named_parameters())
        train(cfg, tiny_dataset(), state=state)
        assert param_bytes(state.image_encoder.named_parameters()) != before


def count_encoder_calls(monkeypatch):
    """Count the inputs of real text encodes and of full-image / context
    image encodes, and the batched calls that carried them."""
    counts = {"text": 0, "image_full": 0, "image_ctx": 0}
    calls = {"text": 0, "image_full": 0, "image_ctx": 0}
    text_encode, image_encode = TextEncoder.encode, ImageEncoder.encode

    def counted_text(self, token_ids, sizes=None):
        rows, sizes = text_encode(self, token_ids, sizes)
        counts["text"] += len(sizes)
        calls["text"] += 1
        return rows, sizes

    def counted_image(self, images, visible=None):
        rows, sizes = image_encode(self, images, visible)
        kind = "image_full" if visible is None else "image_ctx"
        counts[kind] += len(sizes)
        calls[kind] += 1
        return rows, sizes

    monkeypatch.setattr(TextEncoder, "encode", counted_text)
    monkeypatch.setattr(ImageEncoder, "encode", counted_image)
    return counts, calls


class TestStoredEncodingsInTraining:
    # 3 steps of 4 over 8 examples: epoch 0 sees all 8, then 4 again
    STEPS, BATCH = 3, 4

    def test_frozen_run_encodes_each_distinct_input_once(self, monkeypatch):
        data = tiny_dataset()
        counts, calls = count_encoder_calls(monkeypatch)
        train(tiny_config(total_steps=self.STEPS, batch_size=self.BATCH), data)
        captions = {tuple(tokenize_text(e.caption, 16)) for e in data}
        images = {e.image.tobytes() for e in data}
        assert counts == {"text": len(captions), "image_full": len(images),
                          "image_ctx": self.STEPS * self.BATCH}
        assert calls["image_ctx"] == self.STEPS

    def test_unfrozen_run_encodes_every_time(self, monkeypatch):
        counts, calls = count_encoder_calls(monkeypatch)
        train(tiny_config(total_steps=self.STEPS, batch_size=self.BATCH,
                          freeze_encoders=False), tiny_dataset())
        examples = self.STEPS * self.BATCH
        assert counts == {"text": 2 * examples, "image_full": examples,
                          "image_ctx": examples}
        # one batched call per path per step
        assert calls == {"text": 2 * self.STEPS, "image_full": self.STEPS,
                         "image_ctx": self.STEPS}

    @staticmethod
    def never_store(monkeypatch):
        monkeypatch.setattr(trainer_module, "PairInputs",
                            lambda *args, stored: PairInputs(*args, stored=False))

    def test_stored_encodings_leave_checkpoint_bytes_unchanged(self, tmp_path, monkeypatch):
        cfg = tiny_config(total_steps=4, checkpoint_interval=2)
        train(cfg, tiny_dataset(), out_dir=tmp_path / "memo")
        self.never_store(monkeypatch)
        train(cfg, tiny_dataset(), out_dir=tmp_path / "plain")
        for name in ("checkpoint_000002.tijp", "checkpoint_final.tijp", "metrics.log"):
            assert (tmp_path / "memo" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes(), name

    def test_caption_sensitivity_unchanged_by_stored_encodings(self, monkeypatch):
        state = train(tiny_config(total_steps=1), tiny_dataset()).state
        with_memo = caption_sensitivity(state, tiny_dataset(), limit=6)
        self.never_store(monkeypatch)
        assert caption_sensitivity(state, tiny_dataset(), limit=6) == with_memo


class TestEightBitImages:
    @pytest.mark.parametrize("frozen", [True, False])
    def test_ppm_pixels_train_to_the_bytes_of_their_float32_widening(self, tmp_path, frozen):
        loaded = load_manifest(write_synth_dataset(tiny_dataset(), tmp_path / "data"))
        assert all(e.image.dtype == np.uint8 for e in loaded)
        widened = [dataclasses.replace(e, image=e.image.astype(np.float32) / 255.0)
                   for e in loaded]
        cfg = tiny_config(total_steps=4, checkpoint_interval=2, freeze_encoders=frozen)
        train(cfg, loaded, out_dir=tmp_path / "uint8")
        train(cfg, widened, out_dir=tmp_path / "float32")
        for name in ("checkpoint_000002.tijp", "checkpoint_final.tijp", "metrics.log"):
            assert (tmp_path / "uint8" / name).read_bytes() == \
                (tmp_path / "float32" / name).read_bytes(), name


# Desk config at batch 8 on 32 pairs: 2 warm-up steps, then the minor page
# faults of 4 steps, in a process whose allocator no earlier test has touched.
_FAULTS_PER_STEP_SCRIPT = """
import dataclasses, resource
from tijepa.dataprep import synth_generate
from tijepa.trainer import TiJepaConfig, train
config = TiJepaConfig(batch_size=8, total_steps=2, log_interval=1000,
                      checkpoint_interval=1000)
data = synth_generate(32, seed=0)
state = train(config, data).state
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(dataclasses.replace(config, total_steps=6), data, state=state)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""


class TestAllocatorPolicy:
    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="the policy is set on Linux with glibc only")
    def test_training_steps_reuse_freed_memory(self):
        src = str(Path(trainer_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        # glibc's default, adaptive thresholds give 6,000-11,000 here
        assert float(run.stdout) < 500

    def test_other_libcs_are_left_alone(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ctypes.CDLL called on a non-glibc platform")

        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("", ""))
        monkeypatch.setattr(trainer_module.ctypes, "CDLL", refuse)
        trainer_module._keep_freed_memory()
