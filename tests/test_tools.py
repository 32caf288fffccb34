import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import numpy as np

import tijepa.eval_head as eval_head_module
from tijepa import core as core_module
from tijepa import numerics as numerics_module
from tijepa import trainer as trainer_module
from tijepa.core import FusionModule
from tijepa.dataprep import split_dataset, synth_generate
from tijepa.numerics import Tensor, active_tape, linear, mlp, no_grad, scale
from tijepa.trainer import TiJepaConfig

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TINY = TiJepaConfig(image_size=16, patch_size=8, embed_dim=16, text_embed_dim=16,
                    encoder_depth=1, encoder_heads=2, max_text_len=16,
                    fusion_layers=1, fusion_heads=2, fusion_hidden=16,
                    predictor_depth=1, predictor_heads=2, predictor_width=16,
                    num_targets=2, tgt_scale_lo=0.15, tgt_scale_hi=0.3, batch_size=4)


def tensor(shape, requires_grad=False):
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad)


class TestDesignNumbers:
    def test_tape_held_bytes_count_each_base_array_once(self):
        design_numbers = load_tool("design_numbers")
        active_tape().clear()
        x = tensor((2, 3), requires_grad=True)   # 24 bytes
        w, b = tensor((3, 4)), tensor((4,))      # 48 and 16 bytes
        # linear's matmul output is its add's input and output too: 32 bytes once
        y = scale(linear(x, w, b), 2.0)          # a new 32-byte array
        with no_grad():
            scale(y, 3.0)                        # not recorded
        held = design_numbers.held_arrays(active_tape())
        active_tape().clear()
        assert sorted(a.nbytes for a in held) == [16, 24, 32, 32, 48]

    def test_held_arrays_see_views_and_backward_captures(self):
        design_numbers = load_tool("design_numbers")
        base = np.zeros((4, 4), dtype=np.float32)
        captured = np.ones(5)

        def back(g):
            return (g * captured,)

        view = Tensor.__new__(Tensor)
        view.data, view.requires_grad, view.grad = base[1:3], True, None
        held = design_numbers.held_arrays([("op", (view,), view, back)])
        assert sorted(a.nbytes for a in held) == [40, 64]
        assert any(a is base for a in held)

    def test_one_mlp_record_holds_two_hidden_width_arrays(self):
        design_numbers = load_tool("design_numbers")
        active_tape().clear()
        rows, dim, hidden = 3, 4, 8
        mlp(tensor((rows, dim), requires_grad=True), tensor((dim, hidden)), tensor((hidden,)),
            tensor((hidden, dim)), tensor((dim,)))
        assert [op for op, *_ in active_tape()] == ["mlp"]
        held = design_numbers.held_arrays(active_tape())
        active_tape().clear()
        # the pre-activation and its tanh; GELU's output is rebuilt in backward
        assert sum(a.shape == (rows, hidden) for a in held) == 2

    def test_per_op_tape_records_add_up_to_the_tape(self, monkeypatch):
        design_numbers = load_tool("design_numbers")
        sizes, real_backward = [], trainer_module.backward

        def sized_backward(loss):
            sizes.append(len(active_tape()))
            real_backward(loss)

        monkeypatch.setattr(trainer_module, "backward", sized_backward)
        counts = design_numbers.tape_records(TINY, synth_generate(8, seed=0, image_size=16))
        assert len(sizes) == 1
        assert sum(counts.values()) == sizes[0]
        assert counts["block_distance"] == counts["scale"] == 1
        assert trainer_module.backward is sized_backward

    def test_a_call_hashes_each_example_at_most_once_and_no_step_hashes_one(self):
        design_numbers = load_tool("design_numbers")
        data = synth_generate(8, seed=0, image_size=16)
        for frozen in (True, False):
            config = dataclasses.replace(TINY, total_steps=5, freeze_encoders=frozen)
            total, in_steps, _ = design_numbers.image_hashes(
                lambda: trainer_module.train(config, data))
            assert in_steps == 0 and 0 < total <= len(data)
        examples = synth_generate(64, seed=0, image_size=16, labeled=True)
        total, in_steps, _ = design_numbers.image_hashes(
            lambda: design_numbers.finetune_and_eval(TINY, examples))
        assert in_steps == 0 and 0 < total <= len(examples)
        assert core_module.hashlib is hashlib
        assert trainer_module.zero_grads is numerics_module.zero_grads

    def test_loaded_pairs_hold_and_hash_one_byte_per_pixel_value(self):
        # a PPM image stays its 8-bit pixels: 3 * 16 * 16 bytes, 4x fewer than float32
        design_numbers = load_tool("design_numbers")
        data = synth_generate(8, seed=0, image_size=16)
        loaded = design_numbers.as_loaded(data)
        assert [e.caption for e in loaded] == [e.caption for e in data]
        assert sum(e.image.nbytes for e in loaded) == 8 * 3 * 16 * 16
        assert sum(e.image.nbytes for e in data) == 4 * 8 * 3 * 16 * 16
        config = dataclasses.replace(TINY, total_steps=3)
        total, in_steps, hashed = design_numbers.image_hashes(
            lambda: trainer_module.train(config, loaded))
        assert (total, in_steps, hashed) == (8, 0, 8 * 3 * 16 * 16)
        assert design_numbers.image_hashes(
            lambda: trainer_module.train(config, data))[2] == 4 * 8 * 3 * 16 * 16

    def test_finiteness_scans_see_the_loss_and_gradient_checks_of_every_step(self):
        design_numbers = load_tool("design_numbers")
        data = synth_generate(8, seed=0, image_size=16)
        for frozen in (True, False):
            config = dataclasses.replace(TINY, total_steps=3, freeze_encoders=frozen)
            scans = design_numbers.finiteness_scans(lambda: trainer_module.train(config, data))
            assert scans["steps"] == 3
            assert scans["in_steps_calls"] >= 2 * scans["steps"]
            assert scans["in_steps_bytes"] > 0
            # in-memory float images are scanned as they enter, once each, before step 1
            assert scans["before_calls"] == len(data)
            assert scans["before_bytes"] == sum(e.image.nbytes for e in data)
        for module in (numerics_module, trainer_module, core_module):
            assert module._check_finite is numerics_module._check_finite
        assert trainer_module.zero_grads is numerics_module.zero_grads

    def test_finetune_and_eval_fuse_each_distinct_pair_of_a_pass_once(self, monkeypatch):
        design_numbers = load_tool("design_numbers")
        examples = synth_generate(64, seed=0, image_size=16, labeled=True)
        train, val, test = split_dataset(examples)
        # fine-tuning pools train and val in one pass, eval the test split in another
        distinct = [len({(e.image.tobytes(), e.caption) for e in part})
                    for part in (train + val, test)]
        real_call = FusionModule.__call__
        assert design_numbers.pairs_fused(TINY, examples) == sum(distinct) <= 32
        assert FusionModule.__call__ is real_call
        monkeypatch.setattr(eval_head_module, "distinct_rows",
                            lambda rows: (np.arange(len(rows)), np.arange(len(rows))))
        assert design_numbers.pairs_fused(TINY, examples) == len(examples)
