import importlib.util
from pathlib import Path

from tijepa import trainer as trainer_module
from tijepa.dataprep import synth_generate
from tijepa.numerics import active_tape
from tijepa.trainer import TiJepaConfig

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDesignNumbers:
    def test_per_op_tape_records_add_up_to_the_tape(self, monkeypatch):
        design_numbers = load_tool("design_numbers")
        sizes, real_backward = [], trainer_module.backward

        def sized_backward(loss):
            sizes.append(len(active_tape()))
            real_backward(loss)

        monkeypatch.setattr(trainer_module, "backward", sized_backward)
        cfg = TiJepaConfig(image_size=16, patch_size=8, embed_dim=16, text_embed_dim=16,
                           encoder_depth=1, encoder_heads=2, max_text_len=16,
                           fusion_layers=1, fusion_heads=2, fusion_hidden=16,
                           predictor_depth=1, predictor_heads=2, predictor_width=16,
                           num_targets=2, tgt_scale_lo=0.15, tgt_scale_hi=0.3, batch_size=4)
        counts = design_numbers.tape_records(cfg, synth_generate(8, seed=0, image_size=16))
        assert len(sizes) == 1
        assert sum(counts.values()) == sizes[0]
        assert counts["block_distance"] == counts["scale"] == 1
        assert trainer_module.backward is sized_backward
