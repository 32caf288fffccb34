"""The names through which the benchmark harness (``perfbench/``) reaches the
package, and the log records, report lines and command lines it parses. The
harness wraps these functions from outside, looks each one up by its module
and name, and reads some arguments by position; a rename or a moved parameter
does not fail a run there, it only drops the metrics that need the name, and
a reworded record fails the run's checks. These tests pin each name, the
parameters the harness reads and what it parses, without importing it."""

import importlib
import inspect
import logging
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import tijepa
from tijepa import cli, core, dataprep, encoders, eval_head, masking, numerics, trainer

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"


def tiny_config(**overrides):
    base = dict(image_size=16, patch_size=8, embed_dim=16, text_embed_dim=16,
                encoder_depth=1, encoder_heads=2, max_text_len=16,
                fusion_layers=1, fusion_heads=2, fusion_hidden=16,
                predictor_depth=1, predictor_heads=2, predictor_width=16,
                num_targets=2, tgt_scale_lo=0.15, tgt_scale_hi=0.3,
                batch_size=4, total_steps=5, log_interval=2)
    base.update(overrides)
    return trainer.TiJepaConfig(**base)


def records(caplog, prefix: str) -> list[logging.LogRecord]:
    return [r for r in caplog.records if isinstance(r.msg, str) and r.msg.startswith(prefix)]


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize("module, name", [
    (trainer, "adamw_step"),  # its return ends a step, in the untraced step clock too
    (trainer, "save_checkpoint"),
    (trainer, "load_checkpoint"),
    (trainer, "ema_update"),
    (numerics, "backward"),
    (numerics, "active_tape"),
    (numerics, "_record"),
    (numerics, "_check_finite"),
    (dataprep, "load_manifest"),
    (dataprep, "split_dataset"),
    (masking, "sample_masks"),
    (core, "make_targets"),  # the target and context paths' per-step times
    (core, "make_context"),
    (core, "prediction_loss"),
    (eval_head, "pooled_representation"),  # feature time, inside and outside finetune
    (eval_head, "finetune"),
    (eval_head, "evaluate"),
    (cli, "dispatch"),
])
def test_function_is_defined_at_module_level_under_its_name(module, name):
    # the harness wraps only functions that the module itself defines
    fn = vars(module).get(name)
    assert isinstance(fn, types.FunctionType)
    assert fn.__module__ == module.__name__
    assert fn.__name__ == name


def test_active_tape_takes_no_arguments():
    inspect.signature(numerics.active_tape).bind()


def test_adamw_step_takes_params_state_and_lr_first():
    assert parameters(trainer.adamw_step)[:3] == ["params", "state", "lr"]


def test_pretraining_and_fine_tuning_step_through_a_module_level_adamw_step(monkeypatch):
    # the step clock rebinds each module-level name bound to adamw_step, the copy
    # that eval_head's `from .trainer import adamw_step` made included; a step
    # taken through any other reference would end untimed
    real, calls = trainer.adamw_step, []

    def clocked(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for info in pkgutil.iter_modules(tijepa.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"tijepa.{info.name}")
            for attr, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, attr, clocked)
    assert eval_head.adamw_step is clocked
    trainer.train(tiny_config(total_steps=2), dataprep.synth_generate(8, 0, 16))
    assert len(calls) == 2
    eval_head.finetune(trainer.PretrainState.initialize(tiny_config()),
                       dataprep.synth_generate(8, 0, 16, labeled=True), epochs=1, batch_size=4)
    assert len(calls) == 2 + 2


def test_save_checkpoint_takes_the_path_second():
    assert parameters(trainer.save_checkpoint) == ["state", "path"]


def test_text_encode_takes_token_ids_first():
    encode = vars(encoders.TextEncoder)["encode"]
    assert isinstance(encode, types.FunctionType)
    assert parameters(encode)[:2] == ["self", "token_ids"]


def test_image_encode_takes_images_first_and_visible_by_keyword():
    encode = vars(encoders.ImageEncoder)["encode"]
    assert isinstance(encode, types.FunctionType)
    params = inspect.signature(encode).parameters
    assert list(params)[:3] == ["self", "images", "visible"]
    assert params["visible"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_predictor_predicts_through_its_own_predict_method():
    # the predictor's step metrics are read from calls to this name
    assert isinstance(vars(core.Predictor).get("predict"), types.FunctionType)


def test_fusion_module_is_called_through_its_own_call_method():
    # an `encode` or `predict` beside `__call__` would rename its metrics
    members = vars(core.FusionModule)
    assert isinstance(members.get("__call__"), types.FunctionType)
    assert "encode" not in members and "predict" not in members
    # the fusion hook tells the online module from the target by its parameters
    fusion = core.FusionModule(core.CrossAttnConfig(layers=1, heads=2, hidden=8),
                               np.random.default_rng(0))
    params = fusion.named_parameters()
    assert params and all(name.startswith("fusion.") and isinstance(p, numerics.Tensor)
                          for name, p in params.items())



# what the harness parses: a logged value is the argument of the first
# `key=%` placeholder of a %-style record; a dump line is one `key=value`


def test_pretraining_logs_its_loss_at_step_one_each_interval_and_the_last_step(caplog):
    caplog.set_level(logging.INFO, logger="tijepa")
    result = trainer.train(tiny_config(), dataprep.synth_generate(8, 0, 16))
    logged = records(caplog, "step %d: loss=%")
    assert [r.args[0] for r in logged] == [1, 2, 4, 5]
    assert [r.args[1] for r in logged] == [result.losses[s - 1] for s in (1, 2, 4, 5)]


def test_a_skipped_example_is_logged_with_its_step_first(caplog, monkeypatch):
    calls, sample_masks = [], trainer.sample_masks

    def every_third_fails(**kwargs):
        calls.append(None)
        if len(calls) % 3 == 0:
            raise trainer.MaskSamplingError("no context left")
        return sample_masks(**kwargs)

    monkeypatch.setattr(trainer, "sample_masks", every_third_fails)
    caplog.set_level(logging.INFO, logger="tijepa")
    result = trainer.train(tiny_config(total_steps=2), dataprep.synth_generate(8, 0, 16))
    skipped = [r for r in caplog.records if "skipping example" in str(r.msg)]
    assert [r.args[0] for r in skipped] == [1, 2] and result.skipped_examples == 2
    assert all(r.levelno == logging.WARNING for r in skipped)


@pytest.mark.parametrize("with_val", [True, False], ids=["with_val", "without_val"])
def test_fine_tuning_logs_one_train_loss_per_epoch(caplog, with_val):
    state = trainer.PretrainState.initialize(tiny_config())
    examples = dataprep.synth_generate(12, 0, 16, labeled=True)
    caplog.set_level(logging.INFO, logger="tijepa")
    _, history = eval_head.finetune(state, examples[:8], examples[8:] if with_val else (),
                                    epochs=3, batch_size=4)
    logged = records(caplog, "epoch %d: train_loss=%")
    assert [r.args[0] for r in logged] == [1, 2, 3]
    assert [r.args[1] for r in logged] == history.train_losses


def test_eval_dump_holds_macro_f1_and_each_label_support():
    report = eval_head.compute_metrics(eval_head.ConfusionMatrix([[3, 1, 0], [0, 2, 2], [1, 0, 4]]))
    dump = dict(line.split("=", 1) for line in eval_head.dump_report(report).splitlines()
                if re.fullmatch(r"[\w.]+=[^=\s]+", line))
    assert float(dump["macro_f1"]) == pytest.approx(report.macro_f1, abs=1e-6)
    assert [int(dump[f"{label}.support"]) for label in dataprep.LABELS] == [4, 4, 5]


def test_the_harness_command_lines_parse_to_the_settings_it_assumes():
    parser = cli._build_parser()
    settings = ["total_steps=15", "log_interval=5", "checkpoint_interval=3",
                "freeze_encoders=false"]
    pretrain = parser.parse_args(["pretrain", "--config", str(DESK_CONFIG), "--data", "d.tsv",
                                  "--out", "o"] + [a for s in settings for a in ("--set", s)])
    assert pretrain.set == settings and pretrain.seed is None
    config = trainer.load_config(pretrain.config, pretrain.set)
    assert (config.total_steps, config.log_interval, config.checkpoint_interval,
            config.freeze_encoders, config.batch_size) == (15, 5, 3, False, 16)
    finetune = parser.parse_args(["finetune", "--ckpt", "c.tijp", "--data", "d.tsv", "--out", "o"])
    assert (finetune.epochs, finetune.batch_size) == (40, 16)
    evaluate = parser.parse_args(["eval", "--ckpt", "c.tijp", "--head", "h.tijp",
                                  "--data", "d.tsv", "--dump"])
    assert evaluate.split == "test" and evaluate.dump
    # 256 labeled pairs split 8:1:1, as the harness counts them
    assert [len(s) for s in dataprep.split_dataset(list(range(256)))] == [206, 25, 25]
