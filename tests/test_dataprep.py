import hashlib
import itertools

import numpy as np
import pytest

from tijepa.dataprep import (
    LABELS,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    AnnotatedPair,
    PairedExample,
    SplitSpec,
    load_annotations,
    load_manifest,
    majority_vote,
    reconcile_pairs,
    reconcile_single,
    split_dataset,
    synth_generate,
    write_synth_dataset,
)
from tijepa.encoders import tokenize_text, write_ppm
from tijepa.errors import DataError

# the full single-annotator reconciliation table: equal labels stay, a
# positive/negative clash is dropped, neutral defers to the other side
SINGLE_TRUTH_TABLE = {
    (POSITIVE, POSITIVE): POSITIVE,
    (POSITIVE, NEUTRAL): POSITIVE,
    (POSITIVE, NEGATIVE): None,
    (NEUTRAL, POSITIVE): POSITIVE,
    (NEUTRAL, NEUTRAL): NEUTRAL,
    (NEUTRAL, NEGATIVE): NEGATIVE,
    (NEGATIVE, POSITIVE): None,
    (NEGATIVE, NEUTRAL): NEGATIVE,
    (NEGATIVE, NEGATIVE): NEGATIVE,
}


def brute_force_majority(votes):
    counts = {label: votes.count(label) for label in set(votes)}
    best = max(counts.values())
    if best < 2:
        return None
    return next(label for label, c in counts.items() if c == best)


class TestReconcileSingle:
    def test_exhaustive_truth_table(self):
        for (text, image), expected in SINGLE_TRUTH_TABLE.items():
            assert reconcile_single(text, image) == expected, (text, image)

    def test_symmetric(self):
        for text, image in itertools.product(LABELS, repeat=2):
            assert reconcile_single(text, image) == reconcile_single(image, text)

    def test_rejects_unknown_label(self):
        with pytest.raises(DataError):
            reconcile_single("happy", POSITIVE)


class TestMajorityVote:
    def test_all_27_ordered_inputs(self):
        for votes in itertools.product(LABELS, repeat=3):
            assert majority_vote(votes) == brute_force_majority(list(votes)), votes

    def test_permutation_invariant(self):
        for votes in itertools.product(LABELS, repeat=3):
            results = {majority_vote(p) for p in itertools.permutations(votes)}
            assert len(results) == 1

    def test_examples(self):
        assert majority_vote([POSITIVE, POSITIVE, NEGATIVE]) == POSITIVE
        assert majority_vote([NEUTRAL, POSITIVE, NEGATIVE]) is None
        assert majority_vote([NEUTRAL, NEUTRAL, NEUTRAL]) == NEUTRAL

    def test_wrong_arity(self):
        with pytest.raises(DataError):
            majority_vote([POSITIVE, NEGATIVE])


class TestReconcileMulti:
    def reconcile(self, text, image):
        """Kept label and discard reason of one triple-annotated pair."""
        kept, stats = reconcile_pairs([AnnotatedPair("x", tuple(text), tuple(image))], "multi")
        assert stats.total_input == 1
        assert stats.total_kept + stats.discarded_ambiguous + stats.discarded_conflict == 1
        label = kept[0][1] if kept else None
        if label is not None:
            assert stats.counts[label] == 1
        reason = ("ambiguous" if stats.discarded_ambiguous
                  else "conflict" if stats.discarded_conflict else None)
        return label, reason

    def test_composed_examples(self):
        assert self.reconcile([POSITIVE, POSITIVE, NEUTRAL],
                              [NEUTRAL, NEUTRAL, NEGATIVE]) == (POSITIVE, None)
        assert self.reconcile([POSITIVE, NEUTRAL, NEGATIVE],
                              [POSITIVE, POSITIVE, POSITIVE]) == (None, "ambiguous")
        assert self.reconcile([NEGATIVE, NEGATIVE, NEGATIVE],
                              [POSITIVE, POSITIVE, NEUTRAL]) == (None, "conflict")

    def test_matches_brute_force_over_all_729_pairs(self):
        for text in itertools.product(LABELS, repeat=3):
            for image in itertools.product(LABELS, repeat=3):
                t = brute_force_majority(list(text))
                i = brute_force_majority(list(image))
                if t is None or i is None:
                    expected = (None, "ambiguous")
                elif SINGLE_TRUTH_TABLE[(t, i)] is None:
                    expected = (None, "conflict")
                else:
                    expected = (SINGLE_TRUTH_TABLE[(t, i)], None)
                assert self.reconcile(text, image) == expected, (text, image)


class TestReconcilePipeline:
    def test_single_mode_stats_match_truth_table(self):
        pairs = [AnnotatedPair(f"p{i}", (t,), (m,))
                 for i, (t, m) in enumerate(itertools.product(LABELS, repeat=2))]
        kept, stats = reconcile_pairs(pairs, "single")
        assert stats.total_input == 9
        assert stats.counts == {POSITIVE: 3, NEUTRAL: 1, NEGATIVE: 3}
        assert stats.discarded_conflict == 2
        assert stats.total_kept == 7
        assert len(kept) == 7

    def test_multi_mode_discard_accounting(self):
        pairs = []
        expected_kept = 0
        expected_ambiguous = 0
        expected_conflict = 0
        for i, (text, image) in enumerate(itertools.product(
                itertools.product(LABELS, repeat=3), repeat=2)):
            pairs.append(AnnotatedPair(f"p{i}", text, image))
            t, m = brute_force_majority(list(text)), brute_force_majority(list(image))
            if t is None or m is None:
                expected_ambiguous += 1
            elif SINGLE_TRUTH_TABLE[(t, m)] is None:
                expected_conflict += 1
            else:
                expected_kept += 1
        kept, stats = reconcile_pairs(pairs, "multi")
        assert len(kept) == expected_kept
        assert stats.discarded_ambiguous == expected_ambiguous
        assert stats.discarded_conflict == expected_conflict

    def test_table_format(self):
        pairs = [AnnotatedPair("a", (POSITIVE,), (POSITIVE,))]
        _, stats = reconcile_pairs(pairs, "single")
        table = stats.format_table()
        assert table.splitlines()[0] == "Positive\tNeutral\tNegative\tTotal"
        assert "1\t0\t0\t1" in table


class TestAnnotationsFile:
    def test_load_single_and_multi(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("id1\tpositive\tneutral\n"
                        "id2\tpositive,negative,positive\tneutral,neutral,positive\n")
        pairs = load_annotations(path)
        assert pairs[0].text_labels == ("positive",)
        assert pairs[1].image_labels == ("neutral", "neutral", "positive")

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("id1\tpositive\tneutral\nid2\tgreat\tneutral\n")
        with pytest.raises(DataError, match=":2"):
            load_annotations(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("id1\tpositive\n")
        with pytest.raises(DataError, match=":1"):
            load_annotations(path)


class TestSplits:
    def test_hundred_splits_80_10_10(self):
        train, val, test = split_dataset(list(range(100)), SplitSpec(seed=0))
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_4511_example_split_sizes(self):
        train, val, test = split_dataset(list(range(4511)), SplitSpec(seed=0))
        assert (len(train), len(val), len(test)) == (3609, 451, 451)

    def test_same_seed_identical_partitions(self):
        items = list(range(50))
        a = split_dataset(items, SplitSpec(seed=3))
        b = split_dataset(items, SplitSpec(seed=3))
        assert a == b

    def test_disjoint_and_exhaustive(self):
        items = list(range(97))
        train, val, test = split_dataset(items, SplitSpec(seed=1))
        combined = sorted(train + val + test)
        assert combined == items
        assert not set(train) & set(val)
        assert not set(val) & set(test)
        assert not set(train) & set(test)

    def test_too_few_examples(self):
        with pytest.raises(DataError):
            split_dataset(list(range(9)), SplitSpec())


class TestManifest:
    def write_image(self, tmp_path, name):
        img = np.random.default_rng(0).uniform(0, 1, (3, 8, 8)).astype(np.float32)
        write_ppm(tmp_path / name, img)

    def test_load_labeled_and_unlabeled(self, tmp_path):
        self.write_image(tmp_path, "a.ppm")
        self.write_image(tmp_path, "b.ppm")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.ppm\t-\ta red square\nb.ppm\tpositive\tnice day\n")
        examples = load_manifest(manifest)
        assert examples[0].label is None
        assert examples[0].caption == "a red square"
        assert examples[1].label == POSITIVE
        assert examples[0].image.shape == (3, 8, 8)

    def test_two_fields_is_parse_error_with_line(self, tmp_path):
        self.write_image(tmp_path, "a.ppm")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.ppm\t-\tok caption\nb.ppm\tneutral\n")
        with pytest.raises(DataError, match=":2"):
            load_manifest(manifest)

    def test_missing_image_named_in_error(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("ghost.ppm\t-\tcaption\n")
        with pytest.raises(DataError, match="ghost.ppm"):
            load_manifest(manifest)

    @pytest.mark.parametrize("rel_path", ["a\x00b.ppm", ""], ids=["nul_byte", "directory"])
    def test_unreadable_image_path_names_the_line(self, tmp_path, rel_path):
        # a NUL byte cannot be in a path, and an empty one names the manifest's directory
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{rel_path}\t-\tcaption\n")
        with pytest.raises(DataError, match="m.tsv:1: cannot read image file"):
            load_manifest(manifest)

    def test_bad_label_rejected(self, tmp_path):
        self.write_image(tmp_path, "a.ppm")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.ppm\tmeh\tcaption\n")
        with pytest.raises(DataError, match="meh"):
            load_manifest(manifest)


class TestSynth:
    def test_written_dataset_bytes_are_pinned(self, tmp_path):
        # the float32 synthetic images are rounded to 8 bits as they always were
        write_synth_dataset(synth_generate(16, 0, 16, labeled=True), tmp_path)
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(path.relative_to(tmp_path).as_posix().encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == \
            "ca6c9c648d41eda7d5d82a8654c11ab27a84df48624b30c09ef09d5fdc27f058"

    def test_fixed_seed_reproducible(self):
        a = synth_generate(20, seed=5, image_size=16)
        b = synth_generate(20, seed=5, image_size=16)
        for x, y in zip(a, b):
            assert x.caption == y.caption
            np.testing.assert_array_equal(x.image, y.image)

    def test_caption_matches_pixels(self):
        examples = synth_generate(64, seed=0, image_size=16)
        target = next(e for e in examples if e.caption == "red square at top-left")
        quadrant = target.image[:, :8, :8]
        np.testing.assert_array_equal(quadrant[0], 1.0)
        np.testing.assert_array_equal(quadrant[1], 0.0)
        np.testing.assert_array_equal(quadrant[2], 0.0)
        outside = target.image[:, 8:, 8:]
        np.testing.assert_array_equal(outside, 0.5)

    def test_256_examples_cover_all_16_combinations(self):
        examples = synth_generate(256, seed=0)
        captions = {e.caption for e in examples}
        assert len(captions) == 16

    def test_labels_follow_color_mapping(self):
        examples = synth_generate(32, seed=1, image_size=16, labeled=True)
        for e in examples:
            color = e.caption.split()[0]
            expected = {"green": POSITIVE, "yellow": POSITIVE,
                        "blue": NEUTRAL, "red": NEGATIVE}[color]
            assert e.label == expected

    def test_write_dataset_roundtrip(self, tmp_path):
        examples = synth_generate(6, seed=2, image_size=16, labeled=True)
        manifest = write_synth_dataset(examples, tmp_path)
        loaded = load_manifest(manifest)
        assert len(loaded) == 6
        for original, reloaded in zip(examples, loaded):
            assert original.caption == reloaded.caption
            assert original.label == reloaded.label
            # 8-bit PPM quantizes to the nearest 1/255; ties (0.5 gray) land
            # exactly half a step away once widened as the encoder widens them
            assert reloaded.image.dtype == np.uint8
            widened = reloaded.image.astype(np.float32) / 255.0
            assert np.abs(original.image - widened).max() <= 0.51 / 255.0


    def test_loaded_dataset_writes_back_every_file_byte_for_byte(self, tmp_path):
        examples = synth_generate(6, seed=2, image_size=16, labeled=True)
        first = write_synth_dataset(examples, tmp_path / "a")
        second = write_synth_dataset(load_manifest(first), tmp_path / "b")
        assert second.read_bytes() == first.read_bytes()
        names = sorted(path.name for path in (tmp_path / "a" / "images").iterdir())
        assert len(names) == 6
        assert sorted(path.name for path in (tmp_path / "b" / "images").iterdir()) == names
        for name in names:
            assert (tmp_path / "b" / "images" / name).read_bytes() == \
                (tmp_path / "a" / "images" / name).read_bytes(), name
        for x, y in zip(load_manifest(first), load_manifest(second)):
            assert x.image.dtype == y.image.dtype == np.uint8
            np.testing.assert_array_equal(x.image, y.image)


class TestPairedExample:
    def test_token_ids_include_markers(self):
        example = PairedExample(None, "hi")
        assert tokenize_text(example.caption, 16) == [256, 104, 105, 257]
