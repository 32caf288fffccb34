import itertools
import logging
import struct
import zlib

import numpy as np
import pytest

from tijepa.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, dispatch
from tijepa.dataprep import (LABELS, load_manifest, split_dataset, synth_generate,
                             write_synth_dataset)
from tijepa.encoders import write_rawt
from tijepa.eval_head import ClassifierHead, save_head
from tijepa.trainer import (PretrainState, TiJepaConfig, read_tensor_file, save_checkpoint,
                            write_tensor_file)


def tiny_config_text():
    cfg = TiJepaConfig(image_size=16, patch_size=8, embed_dim=16, text_embed_dim=16,
                       encoder_depth=1, encoder_heads=2, max_text_len=16,
                       fusion_layers=1, fusion_heads=2, fusion_hidden=16,
                       predictor_depth=1, predictor_heads=2, predictor_width=16,
                       num_targets=2, tgt_scale_lo=0.15, tgt_scale_hi=0.3,
                       batch_size=4, total_steps=2, log_interval=1,
                       checkpoint_interval=10)
    return cfg.to_text()


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert dispatch(["synth", "--n", "12", "--seed", "0", "--out", str(out),
                     "--image-size", "16", "--labeled"]) == EXIT_OK
    return out


def _checkpoint_and_manifest(tmp_path, sizes):
    """A tiny-config (16x16 images) checkpoint and a labeled manifest of 12
    pairs per image size in ``sizes``."""
    ckpt = tmp_path / "init.tijp"
    save_checkpoint(PretrainState.initialize(TiJepaConfig.from_text(tiny_config_text())), ckpt)
    examples = [e for size in sizes for e in synth_generate(12, 0, size, labeled=True)]
    return ckpt, write_synth_dataset(examples, tmp_path / "data")


class TestUsageErrors:
    def test_missing_required_flag_exits_one(self, capsys):
        assert dispatch(["pretrain"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_flag_exits_one(self):
        assert dispatch(["gradcheck", "--bogus"]) == EXIT_USAGE

    def test_unknown_subcommand_exits_one(self):
        assert dispatch(["fly"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["synth", "--n", "4", "--out", "unused"],
        ["gradcheck"],
        ["pretrain", "--config", "unused.cfg", "--data", "unused.tsv", "--out", "unused"],
        ["finetune", "--ckpt", "unused.tijp", "--data", "unused.tsv", "--out", "unused"],
    ], ids=["synth", "gradcheck", "pretrain", "finetune"])
    def test_negative_seed_exits_one(self, capsys, argv):
        assert dispatch(argv + ["--seed", "-1"]) == EXIT_USAGE
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_eval_takes_no_seed(self, capsys):
        # eval reads the one fixed split, which no seed moves
        assert dispatch(["eval", "--ckpt", "unused.tijp", "--head", "unused.tijp",
                         "--data", "unused.tsv", "--seed", "0"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


class TestGradcheck:
    def test_reports_all_ops_passed(self, capsys):
        assert dispatch(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all ops passed" in out
        assert "prediction_pipeline" in out

    def test_a_nan_forward_exits_three(self, monkeypatch, caplog):
        from tijepa import numerics

        def nan_mlp(x, w1, b1, w2, b2):
            out = np.full((x.shape[0], w2.shape[1]), np.nan)
            return numerics._record("mlp", (x, w1, b1, w2, b2), out, lambda g: (None,) * 5)

        monkeypatch.setattr(numerics, "mlp", nan_mlp)
        assert dispatch(["gradcheck"]) == EXIT_NUMERIC
        assert "non-finite loss in gradient check" in caplog.text


class TestSynth:
    def test_outputs_are_bit_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert dispatch(["synth", "--n", "8", "--seed", "3", "--out", str(out),
                             "--image-size", "16"]) == EXIT_OK
        assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()
        for img in sorted((a / "images").iterdir()):
            twin = b / "images" / img.name
            assert img.read_bytes() == twin.read_bytes()

    @pytest.mark.parametrize("size", ["-2", "0", "3"])
    def test_non_positive_or_odd_image_size_exits_two(self, tmp_path, caplog, size):
        out = tmp_path / "o"
        assert dispatch(["synth", "--n", "4", "--out", str(out), "--image-size", size]) == EXIT_DATA
        assert "positive even" in caplog.text
        assert not out.exists()


class TestPreprocessMvsa:
    def test_truth_table_fixture_stats(self, tmp_path, capsys):
        fixture = tmp_path / "ann.tsv"
        lines = [f"p{i}\t{text}\t{image}"
                 for i, (text, image) in enumerate(itertools.product(LABELS, repeat=2))]
        fixture.write_text("\n".join(lines) + "\n")
        out = tmp_path / "labels.tsv"
        assert dispatch(["preprocess-mvsa", "--annotations", str(fixture),
                         "--mode", "single", "--out", str(out), "--stats"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "kept 7 of 9" in printed
        assert "3\t1\t3\t7" in printed
        assert "discarded (cross-modal conflict): 2" in printed
        kept_lines = out.read_text().strip().splitlines()
        assert len(kept_lines) == 7
        assert kept_lines[0] == "p0\tpositive"

    def test_bad_annotation_file_exits_two(self, tmp_path):
        fixture = tmp_path / "ann.tsv"
        fixture.write_text("p0\tpositive\n")
        assert dispatch(["preprocess-mvsa", "--annotations", str(fixture),
                         "--mode", "single", "--out", str(tmp_path / "o.tsv")]) == EXIT_DATA


class TestPipeline:
    def test_pretrain_finetune_eval_and_inspect(self, tmp_path, synth_dir, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        run_dir = tmp_path / "run"
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(synth_dir / "manifest.tsv"),
                         "--out", str(run_dir)]) == EXIT_OK
        ckpt = run_dir / "checkpoint_final.tijp"
        assert ckpt.exists()
        assert (run_dir / "metrics.log").exists()

        assert dispatch(["inspect", "--ckpt", str(ckpt)]) == EXIT_OK
        listing = capsys.readouterr().out
        assert "predictor.mask_token\t16" in listing
        assert "meta.step" in listing

        head_dir = tmp_path / "head"
        assert dispatch(["finetune", "--ckpt", str(ckpt),
                         "--data", str(synth_dir / "manifest.tsv"),
                         "--out", str(head_dir), "--epochs", "1"]) == EXIT_OK
        head_path = head_dir / "head.tijp"
        assert head_path.exists()

        assert dispatch(["eval", "--ckpt", str(ckpt), "--head", str(head_path),
                         "--data", str(synth_dir / "manifest.tsv"),
                         "--split", "all", "--dump"]) == EXIT_OK
        report = capsys.readouterr().out
        assert "Accuracy (%)" in report
        assert "accuracy=" in report

    def test_eval_all_of_a_manifest_too_small_to_split_exits_zero(self, tmp_path, capsys):
        # a split needs 10 examples; --split all takes every example unsplit
        ckpt = tmp_path / "init.tijp"
        save_checkpoint(PretrainState.initialize(TiJepaConfig.from_text(tiny_config_text())), ckpt)
        manifest = write_synth_dataset(synth_generate(5, 0, 16, labeled=True), tmp_path / "data")
        head = tmp_path / "head.tijp"
        save_head(ClassifierHead(16), head)
        assert dispatch(["eval", "--ckpt", str(ckpt), "--head", str(head),
                         "--data", str(manifest), "--split", "all", "--dump"]) == EXIT_OK
        dump = capsys.readouterr().out.splitlines()
        assert sum(int(line.split("=")[1]) for line in dump if ".support=" in line) == 5

    def test_pretrain_identical_runs_identical_checkpoints(self, tmp_path, synth_dir):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert dispatch(["pretrain", "--config", str(config_path),
                             "--data", str(synth_dir / "manifest.tsv"),
                             "--out", str(out)]) == EXIT_OK
            outs.append((out / "checkpoint_final.tijp").read_bytes())
        assert outs[0] == outs[1]

    def test_set_overrides_config_keys(self, tmp_path, synth_dir):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        out = tmp_path / "o"
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(synth_dir / "manifest.tsv"),
                         "--out", str(out), "--set", "total_steps=1"]) == EXIT_OK
        log = (out / "metrics.log").read_text().strip().splitlines()
        assert len(log) == 1

    def test_unknown_config_key_exits_two(self, tmp_path, synth_dir):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text() + "warp_speed = 9\n")
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(synth_dir / "manifest.tsv"),
                         "--out", str(tmp_path / "o")]) == EXIT_DATA


class TestDataErrors:
    def test_missing_manifest_exits_two(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(tmp_path / "ghost.tsv"),
                         "--out", str(tmp_path / "o")]) == EXIT_DATA

    def test_a_width_no_module_can_build_exits_two_before_the_manifest_is_read(
            self, tmp_path, caplog):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(tmp_path / "ghost.tsv"), "--out", str(tmp_path / "o"),
                         "--set", "text_embed_dim=5", "--set", "encoder_heads=1"]) == EXIT_DATA
        assert "text_embed_dim" in caplog.text
        assert "ghost.tsv" not in caplog.text

    @pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--batch-size", "-3"),
                                             ("--epochs", "0")])
    def test_non_positive_finetune_sizes_exit_two(self, tmp_path, synth_dir, flag, value):
        ckpt = tmp_path / "init.tijp"
        save_checkpoint(PretrainState.initialize(TiJepaConfig.from_text(tiny_config_text())), ckpt)
        out = tmp_path / "head"
        assert dispatch(["finetune", "--ckpt", str(ckpt), "--data", str(synth_dir / "manifest.tsv"),
                         "--out", str(out), flag, value]) == EXIT_DATA
        assert not (out / "head.tijp").exists()

    @pytest.mark.parametrize("sizes", [(32,), (16, 32)], ids=["all_wrong", "mixed"])
    def test_finetune_on_images_of_another_size_exits_two(self, tmp_path, caplog, sizes):
        ckpt, manifest = _checkpoint_and_manifest(tmp_path, sizes)
        out = tmp_path / "head"
        assert dispatch(["finetune", "--ckpt", str(ckpt), "--data", str(manifest),
                         "--out", str(out), "--epochs", "1"]) == EXIT_DATA
        # the message names the position among the train split, then the val split
        train, val, _ = split_dataset(load_manifest(manifest))
        first = next(i for i, e in enumerate(train + val) if e.image.shape == (3, 32, 32))
        assert (f"example {first}: image shape (3, 32, 32) does not match configured size 16"
                in caplog.text)
        assert not (out / "head.tijp").exists()
        # the refused call removes the --out directory it made
        assert not out.exists()

    def test_a_refused_finetune_removes_every_directory_it_made(self, tmp_path):
        ckpt, manifest = _checkpoint_and_manifest(tmp_path, (32,))
        kept = tmp_path / "kept"
        kept.mkdir()
        out = kept / "new" / "deeper" / "head"
        assert dispatch(["finetune", "--ckpt", str(ckpt), "--data", str(manifest),
                         "--out", str(out), "--epochs", "1"]) == EXIT_DATA
        # each missing ancestor goes; the one that was there before the call stays
        assert not (kept / "new").exists()
        assert kept.is_dir()

    def test_a_failed_cleanup_keeps_the_refusals_exit_code(self, tmp_path, caplog, monkeypatch):
        import pathlib

        ckpt, manifest = _checkpoint_and_manifest(tmp_path, (32,))
        out = tmp_path / "head"

        def refuse(self):
            raise PermissionError(f"cannot remove {self}")

        monkeypatch.setattr(pathlib.Path, "rmdir", refuse)
        assert dispatch(["finetune", "--ckpt", str(ckpt), "--data", str(manifest),
                         "--out", str(out), "--epochs", "1"]) == EXIT_DATA
        # the data error is what is reported, not the failed removal
        assert "image shape (3, 32, 32)" in caplog.text
        assert "cannot remove" not in caplog.text

    @pytest.mark.parametrize("sizes", [(32,), (16, 32)], ids=["all_wrong", "mixed"])
    def test_eval_on_images_of_another_size_exits_two(self, tmp_path, caplog, sizes):
        ckpt, manifest = _checkpoint_and_manifest(tmp_path, sizes)
        head = tmp_path / "head.tijp"
        save_head(ClassifierHead(16), head)
        assert dispatch(["eval", "--ckpt", str(ckpt), "--head", str(head),
                         "--data", str(manifest), "--split", "all"]) == EXIT_DATA
        assert (f"example {12 * sizes.index(32)}: image shape (3, 32, 32) does not match "
                "configured size 16" in caplog.text)

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_an_unlabeled_manifest_exits_two(self, tmp_path, caplog, command):
        ckpt = tmp_path / "init.tijp"
        save_checkpoint(PretrainState.initialize(TiJepaConfig.from_text(tiny_config_text())), ckpt)
        manifest = write_synth_dataset(synth_generate(4, 0, 16), tmp_path / "data")
        head, out = tmp_path / "head.tijp", tmp_path / "out"
        save_head(ClassifierHead(16), head)
        rest = (["--out", str(out)] if command == "finetune"
                else ["--head", str(head), "--split", "all"])
        assert dispatch([command, "--ckpt", str(ckpt), "--data", str(manifest), *rest]) == EXIT_DATA
        assert f"{command} manifest contains unlabeled examples" in caplog.text
        assert not out.exists()

    def test_eval_of_every_example_of_an_empty_manifest_exits_two(self, tmp_path, caplog):
        ckpt = tmp_path / "init.tijp"
        save_checkpoint(PretrainState.initialize(TiJepaConfig.from_text(tiny_config_text())), ckpt)
        manifest, head = tmp_path / "empty.tsv", tmp_path / "head.tijp"
        manifest.write_text("")
        save_head(ClassifierHead(16), head)
        assert dispatch(["eval", "--ckpt", str(ckpt), "--head", str(head),
                         "--data", str(manifest), "--split", "all"]) == EXIT_DATA
        assert "split 'all' is empty" in caplog.text

    def test_eval_with_a_head_of_another_width_exits_two_before_pooling(self, tmp_path, caplog,
                                                                        monkeypatch):
        from tijepa import eval_head

        def refuse(*args):
            raise AssertionError("pooled before the head width was checked")

        monkeypatch.setattr(eval_head, "pooled_representation", refuse)
        ckpt, manifest = _checkpoint_and_manifest(tmp_path, (16,))
        head = tmp_path / "head.tijp"
        save_head(ClassifierHead(64), head)
        assert dispatch(["eval", "--ckpt", str(ckpt), "--head", str(head),
                         "--data", str(manifest), "--split", "all"]) == EXIT_DATA
        assert "head width 64 != checkpoint width 16" in caplog.text

    def test_eval_with_a_missing_head_exits_two_before_the_manifest_is_read(
            self, tmp_path, caplog, monkeypatch):
        from tijepa import dataprep

        read = []
        monkeypatch.setattr(dataprep, "load_manifest", lambda path: read.append(path))
        ckpt, manifest = _checkpoint_and_manifest(tmp_path, (16,))
        assert dispatch(["eval", "--ckpt", str(ckpt), "--head", str(tmp_path / "ghost.tijp"),
                         "--data", str(manifest)]) == EXIT_DATA
        assert "ghost.tijp" in caplog.text
        assert read == []

    @pytest.mark.parametrize("setting", ["learning_rate=nan", "tgt_aspect_lo=-1",
                                         "mask_max_retries=-1", "mlp_ratio=-1", "mlp_ratio=0",
                                         "embed_dim=0", "predictor_width=0", "image_size=0",
                                         "seed=-1", "encoder_heads=3", "fusion_heads=3",
                                         "predictor_heads=3", "max_text_len=1", "fusion_layers=0"])
    def test_bad_optimizer_or_masking_value_exits_two(self, tmp_path, synth_dir, setting):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        out = tmp_path / "o"
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(synth_dir / "manifest.tsv"),
                         "--out", str(out), "--set", setting]) == EXIT_DATA
        assert not (out / "checkpoint_final.tijp").exists()

    def test_masking_config_that_leaves_no_context_exits_two(self, tmp_path, synth_dir, caplog):
        # 50 target blocks cover the whole 2x2 patch grid of every example
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        out = tmp_path / "o"
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(synth_dir / "manifest.tsv"),
                         "--out", str(out), "--set", "num_targets=50"]) == EXIT_DATA
        assert "num_targets" in caplog.text
        assert not list(out.glob("*.tijp"))

    def test_masking_config_that_leaves_no_context_touches_no_out_directory(self, tmp_path,
                                                                            synth_dir, caplog):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        out = tmp_path / "o"
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(synth_dir / "manifest.tsv"), "--out", str(out),
                         "--set", "image_size=16", "--set", "num_targets=50"]) == EXIT_DATA
        assert "step 1: no example of the batch could be masked" in caplog.text
        assert not out.exists()

    def test_one_by_one_patch_grid_exits_two_before_any_step(self, tmp_path, synth_dir, caplog):
        # a target block would cover the grid's one patch and leave no context
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        out = tmp_path / "o"
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(synth_dir / "manifest.tsv"), "--out", str(out),
                         "--set", "image_size=16", "--set", "patch_size=16"]) == EXIT_DATA
        assert "1x1 patch grid" in caplog.text
        assert "skipping example" not in caplog.text
        assert not list(out.glob("*.tijp"))

    def test_nan_pixel_in_a_rawt_image_exits_two(self, tmp_path, caplog):
        data = tmp_path / "rawt"
        data.mkdir()
        rng = np.random.default_rng(0)
        lines = []
        for i in range(4):
            img = rng.uniform(0.0, 1.0, (3, 16, 16)).astype(np.float32)
            if i == 2:
                img[0, 4, 4] = np.nan
            write_rawt(data / f"img{i}.rawt", img)
            lines.append(f"img{i}.rawt\t-\ta caption {i}")
        (data / "manifest.tsv").write_text("\n".join(lines) + "\n")
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        out = tmp_path / "o"
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(data / "manifest.tsv"), "--out", str(out)]) == EXIT_DATA
        assert "img2.rawt" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "synth", "preprocess-mvsa"])
    def test_output_path_that_cannot_be_written_exits_two(self, tmp_path, synth_dir, caplog,
                                                          command):
        caplog.set_level(logging.INFO, logger="tijepa")
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        ckpt = tmp_path / "init.tijp"
        save_checkpoint(PretrainState.initialize(TiJepaConfig.from_text(tiny_config_text())), ckpt)
        annotations = tmp_path / "ann.tsv"
        annotations.write_text("1\tpositive\tneutral\n")
        # an existing file where a directory goes, or a directory where a file goes
        out = tmp_path / "taken"
        if command == "preprocess-mvsa":
            out.mkdir()
        else:
            out.write_text("")
        manifest = str(synth_dir / "manifest.tsv")
        argv = {
            "pretrain": ["pretrain", "--config", str(config_path), "--data", manifest],
            "finetune": ["finetune", "--ckpt", str(ckpt), "--data", manifest, "--epochs", "1"],
            "synth": ["synth", "--n", "4", "--image-size", "16"],
            "preprocess-mvsa": ["preprocess-mvsa", "--annotations", str(annotations),
                                "--mode", "single"],
        }[command]
        assert dispatch(argv + ["--out", str(out)]) == EXIT_DATA
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and str(out) in errors[0].getMessage()
        # the output path fails before any work: no epoch of fine-tuning ran
        assert not [r for r in caplog.records if r.getMessage().startswith("epoch ")]

    def test_metrics_log_row_without_a_step_exits_two(self, tmp_path, synth_dir, caplog):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        out = tmp_path / "o"
        out.mkdir()
        log = out / "metrics.log"
        log.write_text("1\t0.5\t0.1\t0.996\ngarbage\n")
        assert dispatch(["pretrain", "--config", str(config_path),
                         "--data", str(synth_dir / "manifest.tsv"), "--out", str(out)]) == EXIT_DATA
        assert f"{log}:2: expected a step number, got 'garbage'" in caplog.text

    @pytest.mark.parametrize("kind", ["config", "manifest", "annotations", "metrics_log"])
    def test_input_file_that_is_not_utf8_exits_two(self, tmp_path, synth_dir, caplog, kind):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        manifest = synth_dir / "manifest.tsv"
        out = tmp_path / "o"
        out.mkdir()
        bad = {"config": config_path, "manifest": manifest, "annotations": tmp_path / "ann.tsv",
               "metrics_log": out / "metrics.log"}[kind]
        bad.write_bytes(b"\xff\xfe1\x00\t\x000\x00\n\x00")  # UTF-16 with its byte-order mark
        if kind == "annotations":
            argv = ["preprocess-mvsa", "--annotations", str(bad), "--mode", "single",
                    "--out", str(tmp_path / "labels.tsv")]
        else:
            argv = ["pretrain", "--config", str(config_path), "--data", str(manifest),
                    "--out", str(out)]
        assert dispatch(argv) == EXIT_DATA
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and f"{bad} is not UTF-8 text" in errors[0]
        assert not list(out.glob("*.tijp"))

    @pytest.mark.parametrize("blob", [b"P6\n0 0\n255\n", b"RAWT" + struct.pack("<4I", 3, 3, 0, 0)],
                             ids=["ppm", "rawt"])
    def test_image_with_an_empty_side_exits_two(self, tmp_path, synth_dir, caplog, blob):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(tiny_config_text())
        empty = synth_dir / "empty.img"
        empty.write_bytes(blob)
        manifest = synth_dir / "manifest.tsv"
        with manifest.open("a") as fh:
            fh.write("empty.img\t-\ta caption\n")
        out = tmp_path / "o"
        assert dispatch(["pretrain", "--config", str(config_path), "--data", str(manifest),
                         "--out", str(out)]) == EXIT_DATA
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "empty side" in errors[0] and str(empty) in errors[0]
        assert not out.exists()

    def test_corrupt_checkpoint_exits_two(self, tmp_path):
        bogus = tmp_path / "bogus.tijp"
        bogus.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        assert dispatch(["inspect", "--ckpt", str(bogus)]) == EXIT_DATA

    @pytest.mark.parametrize("field", ["config_300", "config_nan", "config_0xff",
                                       "config_fraction", "name_not_utf8"])
    def test_malformed_field_under_a_valid_crc_exits_two(self, tmp_path, caplog, field):
        ckpt = tmp_path / "bad.tijp"
        save_checkpoint(PretrainState.initialize(TiJepaConfig.from_text(tiny_config_text())), ckpt)
        if field == "name_not_utf8":
            # the first name, at byte 16 after magic, version, count and its
            # length, starts with 0xFF, which no UTF-8 text does
            body = bytearray(ckpt.read_bytes()[:-8])
            body[16] = 0xFF
            ckpt.write_bytes(bytes(body) + struct.pack("<Q", zlib.crc32(body)))
            command = ["inspect", "--ckpt", str(ckpt)]
        else:
            tensors = read_tensor_file(ckpt)
            config = tensors["meta.config"]
            # a fraction would otherwise be truncated to the same character
            config[0] = {"config_300": 300.0, "config_nan": np.nan, "config_0xff": 255.0,
                         "config_fraction": config[0] + 0.5}[field]
            write_tensor_file(ckpt, tensors)
            command = ["finetune", "--ckpt", str(ckpt), "--data", str(tmp_path / "unread.tsv"),
                       "--out", str(tmp_path / "head")]
        assert dispatch(command) == EXIT_DATA
        assert str(ckpt) in caplog.text


class TestFixedSplit:
    def test_finetune_seed_moves_no_example_between_splits(self, tmp_path, monkeypatch):
        from tijepa import eval_head

        ckpt = tmp_path / "init.tijp"
        save_checkpoint(PretrainState.initialize(TiJepaConfig.from_text(tiny_config_text())), ckpt)
        manifest = write_synth_dataset(synth_generate(40, 0, 16, labeled=True), tmp_path / "data")
        trained, scored = [], []
        real_finetune, real_evaluate = eval_head.finetune, eval_head.evaluate

        def finetune(state, train, val, **kwargs):
            trained.append({e.path for e in train})
            return real_finetune(state, train, val, **kwargs)

        def evaluate(state, head, examples):
            scored.append({e.path for e in examples})
            return real_evaluate(state, head, examples)

        monkeypatch.setattr(eval_head, "finetune", finetune)
        monkeypatch.setattr(eval_head, "evaluate", evaluate)
        for seed in ("0", "3"):
            assert dispatch(["finetune", "--ckpt", str(ckpt), "--data", str(manifest),
                             "--out", str(tmp_path / seed), "--epochs", "1",
                             "--seed", seed]) == EXIT_OK
        assert dispatch(["eval", "--ckpt", str(ckpt), "--head", str(tmp_path / "3" / "head.tijp"),
                         "--data", str(manifest)]) == EXIT_OK
        assert len(trained) == 2 and trained[0] == trained[1] and len(trained[0]) == 32
        assert len(scored) == 1 and len(scored[0]) == 4 and not scored[0] & trained[0]
