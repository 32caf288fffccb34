import dataclasses
import hashlib
import inspect
import math
import re

import numpy as np
import pytest

import tijepa.eval_head as eval_head_module
import tijepa.numerics as numerics_module
import tijepa.trainer as trainer_module
from tijepa.core import FusionModule, PairInputs
from tijepa.dataprep import LABELS, PairedExample, synth_generate
from tijepa.encoders import ImageEncoder, TextEncoder, tokenize_text
from tijepa.errors import DataError, NumericalError, ShapeError
from tijepa.eval_head import (
    ClassifierHead,
    ConfusionMatrix,
    compute_metrics,
    dump_report,
    evaluate,
    finetune,
    format_report,
    load_head,
    pooled_representation,
    save_head,
)
from tijepa.numerics import Tensor, active_tape, backward, check_gradients, cross_entropy_logits
from tijepa.trainer import (PretrainState, TiJepaConfig, adamw_step, load_checkpoint,
                            read_tensor_file, save_checkpoint, train, write_tensor_file)


def tiny_state():
    cfg = TiJepaConfig(image_size=16, patch_size=8, embed_dim=16, text_embed_dim=16,
                       encoder_depth=1, encoder_heads=2, max_text_len=16,
                       fusion_layers=1, fusion_heads=2, fusion_hidden=16,
                       predictor_depth=1, predictor_heads=2, predictor_width=16,
                       num_targets=2, total_steps=1)
    return PretrainState.initialize(cfg)


def backbone_digest(state):
    digest = hashlib.sha256()
    for name in sorted(state.named_parameters()):
        digest.update(state.named_parameters()[name].data.tobytes())
    return digest.hexdigest()


def pool(state, examples):
    table = PairInputs([e.image for e in examples], [e.caption for e in examples],
                       state.config.image_size, state.image_encoder, state.text_encoder,
                       stored=False)
    return pooled_representation(table, table.ids, state.fusion)


def classify(state, head, examples):
    return head.logits(Tensor(pool(state, examples)))


class TestPoolAndClassify:
    def test_constant_head_always_picks_class_zero(self):
        state = tiny_state()
        head = ClassifierHead(16)
        head.bias.data[...] = [1.0, 0.0, 0.0]
        examples = synth_generate(4, seed=0, image_size=16)
        logits = classify(state, head, examples)
        assert logits.shape == (4, 3)
        np.testing.assert_array_equal(np.argmax(logits.data, axis=1), 0)

    def test_different_inputs_different_logits(self):
        state = tiny_state()
        head = ClassifierHead(16, np.random.default_rng(1))
        examples = synth_generate(8, seed=0, image_size=16)
        a, b = classify(state, head, examples[:2]).data
        assert np.abs(a - b).max() > 1e-7

    def test_pooled_rep_is_mean_of_fused_tokens(self):
        from tijepa.numerics import no_grad

        state = tiny_state()
        examples = synth_generate(2, seed=3, image_size=16)
        pooled = pool(state, examples)
        assert pooled.shape == (2, 16)
        for row, example in zip(pooled, examples):
            with no_grad():
                ids = tokenize_text(example.caption, 16)
                fused = state.fusion(state.image_encoder.encode([example.image])[0],
                                     state.text_encoder.encode(ids)[0])
            np.testing.assert_allclose(row, fused.data.mean(axis=0), atol=1e-6)

    def test_rows_do_not_depend_on_batch_size_or_batch_mates(self):
        # desk config: fine-tune and eval pool in chunks, and the memo-versus-
        # fresh-encode test expects the same bytes whatever the chunking
        state = PretrainState.initialize(TiJepaConfig())
        examples = synth_generate(16, seed=0)
        whole = pool(state, examples)
        for chunk in (1, 5):
            parts = [pool(state, examples[i:i + chunk]) for i in range(0, 16, chunk)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)
        np.testing.assert_array_equal(pool(state, examples[::-1]), whole[::-1])


class TestCrossEntropy:
    def test_uniform_logits_give_log3(self):
        for label in range(3):
            loss = cross_entropy_logits(Tensor(np.zeros((1, 3), dtype=np.float32)), [label])
            assert loss.item() == pytest.approx(math.log(3.0), abs=1e-6)

    def test_confident_correct_is_near_zero(self):
        logits = Tensor(np.array([[20.0, 0.0, 0.0]], dtype=np.float32))
        assert cross_entropy_logits(logits, [0]).item() < 1e-6

    def test_gradient_matches_finite_differences(self):
        logits = Tensor(np.array([[0.3, -1.2, 0.7]]), requires_grad=True,
                        dtype=np.float64)
        err = check_gradients(lambda: cross_entropy_logits(logits, [2]), [logits])
        assert err < 1e-4

    def test_bad_label(self):
        with pytest.raises(ShapeError):
            cross_entropy_logits(Tensor(np.zeros((1, 3), dtype=np.float32)), [3])

    def test_rows_sum(self):
        logits = Tensor(np.array([[0.3, -1.2, 0.7], [2.0, 0.1, -0.4]], dtype=np.float32))
        rows = [cross_entropy_logits(Tensor(logits.data[i:i + 1]), [label]).item()
                for i, label in enumerate([2, 0])]
        assert cross_entropy_logits(logits, [2, 0]).item() == pytest.approx(sum(rows))


class TestFinetune:
    def labeled_examples(self, n=24):
        return synth_generate(n, seed=0, image_size=16, labeled=True)

    def test_linearly_separable_reaches_full_train_accuracy(self):
        # bypass the backbone: craft examples whose pooled features are
        # already separated by construction, via a stub state
        state = tiny_state()
        rng = np.random.default_rng(0)
        centers = np.eye(3, 16) * 10.0
        examples = []
        features = []
        for i in range(30):
            label = i % 3
            feature = centers[label] + rng.normal(0, 0.1, 16)
            features.append(feature.astype(np.float32))
            examples.append(PairedExample(np.zeros((3, 16, 16), np.float32), f"e{i}",
                                          LABELS[label]))

        import tijepa.eval_head as eh
        original = eh.pooled_representation
        # caption ids number the captions by first appearance: e0 is 0, e1 is 1, ...
        eh.pooled_representation = \
            lambda table, rows, fusion: np.stack([features[i] for i in rows[:, 1]])
        try:
            head, history = finetune(state, examples, examples, epochs=20,
                                     lr=0.05, seed=0)
            assert history.val_accuracies[-1] == 1.0
        finally:
            eh.pooled_representation = original

    def test_zero_learning_rate_leaves_head_unchanged(self):
        state = tiny_state()
        examples = self.labeled_examples(8)
        head = ClassifierHead(16, np.random.default_rng(2))
        before_w = head.weight.data.copy()
        finetune(state, examples, epochs=2, lr=0.0, seed=0, head=head)
        np.testing.assert_array_equal(head.weight.data, before_w)

    def test_deterministic_under_fixed_seed(self):
        state = tiny_state()
        examples = self.labeled_examples(8)
        head1, _ = finetune(state, examples, epochs=2, lr=0.01, seed=7)
        head2, _ = finetune(state, examples, epochs=2, lr=0.01, seed=7)
        np.testing.assert_array_equal(head1.weight.data, head2.weight.data)
        np.testing.assert_array_equal(head1.bias.data, head2.bias.data)

    def test_backbone_bytes_unchanged(self):
        state = tiny_state()
        examples = self.labeled_examples(12)
        before = backbone_digest(state)
        finetune(state, examples, epochs=2, lr=0.01, seed=0)
        assert backbone_digest(state) == before

    def test_unlabeled_examples_rejected(self):
        state = tiny_state()
        with pytest.raises(DataError):
            finetune(state, synth_generate(4, seed=0, image_size=16), epochs=1)

    def test_empty_train_split_rejected(self):
        with pytest.raises(DataError):
            finetune(tiny_state(), [], epochs=1)

    @pytest.mark.parametrize("epochs, batch_size", [(0, 4), (-2, 4), (1, 0), (1, -3)])
    def test_non_positive_epochs_or_batch_size_rejected(self, epochs, batch_size):
        with pytest.raises(DataError, match="must be positive"):
            finetune(tiny_state(), self.labeled_examples(4), epochs=epochs,
                     batch_size=batch_size)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.001])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(DataError, match="learning rate"):
            finetune(tiny_state(), self.labeled_examples(4), epochs=1, lr=lr)

    def test_a_head_step_is_one_batched_loss(self, monkeypatch):
        taped, steps = [], []

        def recorded_backward(loss):
            taped.append([record[0] for record in active_tape()])
            backward(loss)

        def counted_adamw_step(*args, **kwargs):
            steps.append(len(taped))
            return adamw_step(*args, **kwargs)

        monkeypatch.setattr(eval_head_module, "backward", recorded_backward)
        monkeypatch.setattr(eval_head_module, "adamw_step", counted_adamw_step)
        finetune(tiny_state(), self.labeled_examples(11), epochs=3, batch_size=4)
        assert len(steps) == 3 * math.ceil(11 / 4)
        assert taped == [["matmul", "add", "cross_entropy", "scale"]] * len(steps)


    def test_head_steps_and_validation_take_the_pooled_features_unscanned(self, monkeypatch):
        # pooled_representation checked every feature; a head step only gathers its batch
        scanned, taped = [], []
        real_check = numerics_module._check_finite

        def spying(arr, what, *args):
            scanned.append((what, arr.size))
            real_check(arr, what, *args)

        def recorded_backward(loss):
            taped.append(active_tape()[0][1][0])
            scanned.append(("backward", 0))  # a step's gradient checks follow its backward
            backward(loss)

        def pooled_then_forget_scans(*args, real=eval_head_module._pooled_features):
            out = real(*args)
            scanned.clear()  # the scans of pooling itself: inputs entering, pooled features
            return out

        state, head = tiny_state(), ClassifierHead(16, np.random.default_rng(0))
        for module in (numerics_module, eval_head_module, trainer_module):
            monkeypatch.setattr(module, "_check_finite", spying)
        monkeypatch.setattr(eval_head_module, "_pooled_features", pooled_then_forget_scans)
        monkeypatch.setattr(eval_head_module, "backward", recorded_backward)
        examples = self.labeled_examples(11)
        finetune(state, examples, examples[:5], epochs=2, batch_size=4, head=head)
        steps = 2 * math.ceil(11 / 4)
        # after pooling, only AdamW's gradient checks scan anything, and each
        # step's checks cover the head's weight and bias once
        sizes = []
        for what, size in scanned:
            if what == "backward":
                sizes.append(0)
            else:
                assert what.startswith("gradient") and sizes, what
                sizes[-1] += size
        assert sizes == [head.weight.data.size + head.bias.data.size] * steps
        assert len(taped) == steps
        for features in taped:
            assert features.data.base is None and features.data.dtype == np.float32


class TestBenchmarkedTapeOps:
    def test_pretrain_and_head_steps_record_matmul_add_and_scale(self, monkeypatch):
        # the benchmark reports per-op tape counts for these three ops and
        # drops a count that reads 0, so a step that stops recording one
        # would leave its metric out without a failure
        taped = []
        for module in (trainer_module, eval_head_module):
            def recorded_backward(loss, real=module.backward):
                taped.append({record[0] for record in active_tape()})
                real(loss)

            monkeypatch.setattr(module, "backward", recorded_backward)
        state = tiny_state()
        examples = synth_generate(4, seed=0, image_size=16, labeled=True)
        train(state.config, examples, state=state)
        finetune(state, examples, epochs=1, batch_size=4)
        assert len(taped) == 2
        for ops in taped:
            assert {"matmul", "add", "scale"} <= ops


class TestEveryRecordedOpRuns:
    def test_each_op_numerics_records_is_on_a_pretrain_or_head_step_tape(self, monkeypatch):
        # numerics holds only the ops the model runs: an op that only a check
        # or a test puts on the tape belongs to that check or test
        taped = set()
        for module in (trainer_module, eval_head_module):
            def recorded_backward(loss, real=module.backward):
                taped.update(record[0] for record in active_tape())
                real(loss)

            monkeypatch.setattr(module, "backward", recorded_backward)
        state = tiny_state()
        examples = synth_generate(4, seed=0, image_size=16, labeled=True)
        for frozen in (True, False):
            train(dataclasses.replace(state.config, freeze_encoders=frozen), examples)
        finetune(state, examples, epochs=1, batch_size=4)
        ops = set(re.findall(r'_record\("(\w+)"', inspect.getsource(numerics_module)))
        assert ops and ops <= taped, f"ops no step records: {sorted(ops - taped)}"


class TestDistinctPairsInFinetuneAndEval:
    # 32 synthetic examples hold the 16 (caption, image) pairs twice each
    def run(self, head_path):
        state = tiny_state()
        examples = synth_generate(32, seed=0, image_size=16, labeled=True)
        head, history = finetune(state, examples, examples[:20], epochs=3, lr=0.01, seed=0)
        save_head(head, head_path)
        cm = evaluate(state, head, examples[:24])
        return head_path.read_bytes(), history.val_accuracies, cm.counts

    def test_results_equal_those_of_fresh_encodes(self, tmp_path, monkeypatch):
        head_bytes, val_accuracies, counts = self.run(tmp_path / "distinct.tijp")
        # every example its own pair: each one is encoded and fused afresh
        monkeypatch.setattr(eval_head_module, "distinct_rows",
                            lambda rows: (np.arange(len(rows)), np.arange(len(rows))))
        plain = self.run(tmp_path / "plain.tijp")
        assert head_bytes == plain[0]
        assert val_accuracies == plain[1]
        np.testing.assert_array_equal(counts, plain[2])

    def test_each_call_encodes_each_distinct_input_once(self, tmp_path, monkeypatch):
        calls = {"text": 0, "image": 0, "fusion": 0}
        text_encode, image_encode = TextEncoder.encode, ImageEncoder.encode
        fusion_call = FusionModule.__call__

        # count encoded inputs and fused pairs, however they are batched
        def counted_text(self, token_ids, sizes=None):
            rows, sizes = text_encode(self, token_ids, sizes)
            calls["text"] += len(sizes)
            return rows, sizes

        def counted_image(self, images, visible=None):
            rows, sizes = image_encode(self, images, visible)
            calls["image"] += len(sizes)
            return rows, sizes

        def counted_fusion(self, patch_reps, text_reps, segments=None, text_segments=None):
            calls["fusion"] += len(segments)
            return fusion_call(self, patch_reps, text_reps, segments, text_segments)

        monkeypatch.setattr(TextEncoder, "encode", counted_text)
        monkeypatch.setattr(ImageEncoder, "encode", counted_image)
        monkeypatch.setattr(FusionModule, "__call__", counted_fusion)
        self.run(tmp_path / "head.tijp")
        # fine-tuning pools its train and val splits in one pass, eval its
        # examples in another; each pass sees every distinct pair once
        examples = synth_generate(16, seed=0, image_size=16)
        pairs = {(e.image.tobytes(), e.caption) for e in examples}
        assert len(pairs) == 16
        assert calls == {"text": 2 * len(pairs), "image": 2 * len(pairs),
                         "fusion": 2 * len(pairs)}

    def test_an_example_without_an_image_among_repeats_is_a_data_error(self):
        examples = synth_generate(8, seed=0, image_size=16, labeled=True)
        examples += [PairedExample(None, examples[0].caption, examples[0].label)] * 2
        with pytest.raises(DataError, match="example 8 has no image data"):
            evaluate(tiny_state(), ClassifierHead(16), examples)


class TestHeadCheckpoint:
    def test_roundtrip(self, tmp_path):
        head = ClassifierHead(16, np.random.default_rng(0))
        path = tmp_path / "head.tijp"
        save_head(head, path)
        loaded = load_head(path)
        np.testing.assert_array_equal(loaded.weight.data, head.weight.data)
        np.testing.assert_array_equal(loaded.bias.data, head.bias.data)

    def test_rejects_foreign_file(self, tmp_path):
        from tijepa.trainer import write_tensor_file
        path = tmp_path / "other.tijp"
        write_tensor_file(path, {"something": np.zeros(2, dtype=np.float32)})
        with pytest.raises(DataError):
            load_head(path)

    @pytest.mark.parametrize("shape", [(1,), (), (4,)])
    def test_rejects_a_bias_not_of_one_value_per_class(self, tmp_path, shape):
        from tijepa.trainer import write_tensor_file
        path = tmp_path / "head.tijp"
        write_tensor_file(path, {"head.weight": np.zeros((16, 3), dtype=np.float32),
                                 "head.bias": np.zeros(shape, dtype=np.float32)})
        with pytest.raises(DataError, match="bias"):
            load_head(path)

    @pytest.mark.parametrize("name", ["head.weight", "head.bias"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_value_naming_its_tensor(self, tmp_path, name, bad):
        from tijepa.trainer import write_tensor_file
        tensors = {"head.weight": np.zeros((16, 3), dtype=np.float32),
                   "head.bias": np.zeros(3, dtype=np.float32)}
        tensors[name].reshape(-1)[1] = bad
        path = tmp_path / "head.tijp"
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match=name):
            load_head(path)


def saved_model_file(kind, path):
    """Save a tiny-config checkpoint or a head to ``path``; return its loader
    and the name of one tensor it holds."""
    if kind == "checkpoint":
        save_checkpoint(tiny_state(), path)
        return load_checkpoint, "predictor.mask_token"
    save_head(ClassifierHead(16, np.random.default_rng(0)), path)
    return load_head, "head.bias"


class TestModelFileLoadCheck:
    # checkpoints and heads pass the same load check
    @pytest.mark.parametrize("kind", ["checkpoint", "head"])
    @pytest.mark.parametrize("fault", ["extra", "missing", "shape", "nan"])
    def test_a_malformed_file_is_rejected_naming_what_is_wrong(self, tmp_path, kind, fault):
        path = tmp_path / f"{kind}.tijp"
        load, name = saved_model_file(kind, path)
        tensors = read_tensor_file(path)
        shape = tensors[name].shape
        if fault == "extra":
            tensors["mystery.weight"] = np.zeros(3, dtype=np.float32)
            message = "(unknown tensors: mystery.weight)"
        elif fault == "missing":
            del tensors[name]
            message = f"(missing tensors: {name})"
        elif fault == "shape":
            tensors[name] = np.zeros(shape + (2,), dtype=np.float32)
            message = f"tensor '{name}' has shape {shape + (2,)}, expected {shape}: {path}"
        else:
            tensors[name].reshape(-1)[0] = np.nan
            message = f"non-finite values in tensor '{name}': {path}"
        write_tensor_file(path, tensors)
        with pytest.raises(DataError, match=re.escape(message)):
            load(path)

    @pytest.mark.parametrize("kind", ["checkpoint", "head"])
    def test_save_load_save_is_byte_identical(self, tmp_path, kind):
        path, again = tmp_path / "a.tijp", tmp_path / "b.tijp"
        load, _ = saved_model_file(kind, path)
        save = save_checkpoint if kind == "checkpoint" else save_head
        save(load(path), again)
        assert again.read_bytes() == path.read_bytes()


class TestConfusionMatrix:
    def test_total_sums_every_count(self):
        cm = ConfusionMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 0]])
        assert cm.total == 3
        assert cm.counts[0, 2] == 1
        assert ConfusionMatrix().total == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ShapeError):
            ConfusionMatrix([[-1, 0, 0], [0, 0, 0], [0, 0, 0]])


class TestComputeMetrics:
    def test_perfect_diagonal(self):
        report = compute_metrics(ConfusionMatrix(np.diag([5, 3, 2])))
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.weighted_f1 == 1.0
        for m in report.per_class:
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_hand_worked_precision_recall_f1(self):
        # class 0: TP=1, FP=1, FN=3 -> P=0.5, R=0.25, F1=1/3
        counts = np.array([[1, 2, 1],
                           [1, 5, 0],
                           [0, 0, 4]])
        report = compute_metrics(ConfusionMatrix(counts))
        m = report.per_class[0]
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(0.25)
        assert m.f1 == pytest.approx(1.0 / 3.0)

    def test_absent_class_uses_zero_convention(self):
        counts = np.array([[4, 0, 0], [0, 6, 0], [0, 0, 0]])
        report = compute_metrics(ConfusionMatrix(counts))
        m = report.per_class[2]
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert report.zero_division_hit

    def test_accuracy_is_trace_over_total_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            counts = rng.integers(0, 30, (3, 3))
            if counts.sum() == 0:
                continue
            report = compute_metrics(ConfusionMatrix(counts))
            correct = sum(int(counts[i, i]) for i in range(3))
            assert report.accuracy == pytest.approx(correct / counts.sum())

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            report = compute_metrics(ConfusionMatrix(rng.integers(1, 20, (3, 3))))
            for m in report.per_class:
                if m.precision > 0 and m.recall > 0:
                    eps = 1e-12
                    assert min(m.precision, m.recall) - eps <= m.f1
                    assert m.f1 <= max(m.precision, m.recall) + eps

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 15, (3, 3))
        base = compute_metrics(ConfusionMatrix(counts))
        perm = [2, 0, 1]
        permuted = compute_metrics(ConfusionMatrix(counts[np.ix_(perm, perm)]))
        assert permuted.accuracy == pytest.approx(base.accuracy)
        for new_idx, old_idx in enumerate(perm):
            assert permuted.per_class[new_idx].f1 == pytest.approx(
                base.per_class[old_idx].f1)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            compute_metrics(ConfusionMatrix())


RUNS = {"finetune": lambda state, head, examples: finetune(state, examples, epochs=1, head=head),
        "evaluate": evaluate}


class TestFinetuneAndEvaluateInputs:
    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_an_example_without_an_image_is_a_data_error(self, run):
        examples = [PairedExample(None, "a red square", "positive")]
        with pytest.raises(DataError, match="example 0 has no image data"):
            run(tiny_state(), ClassifierHead(16), examples)

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_a_non_finite_pixel_is_refused_by_position_before_pooling(self, run, monkeypatch):
        def refuse(*args):
            raise AssertionError("pooled before the pixels were checked")

        monkeypatch.setattr(eval_head_module, "pooled_representation", refuse)
        examples = synth_generate(4, seed=0, image_size=16, labeled=True)
        examples[2].image[1, 3, 5] = np.nan
        with pytest.raises(NumericalError, match="non-finite pixels in example 2"):
            run(tiny_state(), ClassifierHead(16), examples)

    @pytest.mark.parametrize("bad", ["int64", "out_of_range"])
    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_an_image_outside_the_pixel_contract_is_refused_before_pooling(self, run, bad,
                                                                             monkeypatch):
        def refuse(*args):
            raise AssertionError("pooled before the pixels were checked")

        monkeypatch.setattr(eval_head_module, "pooled_representation", refuse)
        examples = synth_generate(4, seed=0, image_size=16, labeled=True)
        image = examples[2].image
        examples[2] = dataclasses.replace(examples[2], image=(image * 255).astype(np.int64)
                                          if bad == "int64" else image * 2.0 - 0.5)
        message = "example 2: image dtype int64 is not uint8 or float" if bad == "int64" \
            else r"example 2: float pixels outside \[0, 1\]"
        with pytest.raises(DataError, match=message):
            run(tiny_state(), ClassifierHead(16), examples)

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_a_head_of_another_width_is_rejected_before_pooling(self, run, monkeypatch):
        def refuse(*args):
            raise AssertionError("pooled before the head width was checked")

        monkeypatch.setattr(eval_head_module, "_pooled_features", refuse)
        examples = synth_generate(4, seed=0, image_size=16, labeled=True)
        with pytest.raises(DataError, match="head width 64 != checkpoint width 16"):
            run(tiny_state(), ClassifierHead(64), examples)

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_sets_the_training_allocator_policy_before_pooling(self, run, monkeypatch):
        events = []
        real_pooled = eval_head_module._pooled_features
        monkeypatch.setattr(eval_head_module, "_keep_freed_memory",
                            lambda: events.append("policy"))
        monkeypatch.setattr(eval_head_module, "_pooled_features",
                            lambda *args: events.append("pool") or real_pooled(*args))
        run(tiny_state(), ClassifierHead(16), synth_generate(4, seed=0, image_size=16,
                                                             labeled=True))
        assert events == ["policy", "pool"]


class TestEvaluateAndReports:
    def test_evaluate_counts_everything(self):
        state = tiny_state()
        head = ClassifierHead(16, np.random.default_rng(3))
        examples = synth_generate(12, seed=0, image_size=16, labeled=True)
        cm = evaluate(state, head, examples)
        assert cm.total == 12

    def test_report_formats(self):
        report = compute_metrics(ConfusionMatrix(np.diag([5, 3, 2])))
        table = format_report(report)
        assert "Accuracy (%)" in table
        assert "100.00" in table
        dump = dump_report(report)
        assert "accuracy=1.000000" in dump
        assert "neutral.f1=1.000000" in dump
