"""A seeded mutation gate over every kind of file the CLI reads.

One valid file of each kind is mutated by bit flips, deletions, insertions and
truncations drawn from ``random.Random(seed)``, with fixed seeds and counts,
and every mutant goes through ``cli.dispatch``: no exception may escape, and
the exit code must be 0, 1 or 2. Each kind must also be both accepted and
refused at least once, so that the gate reaches past the first check. A
checkpoint or head mutant that loads must round-trip: its re-save loads with
the same tensors (and config), and re-saves byte-identically from there on.
"""

import logging
import random
import shutil
import struct
import zlib
from collections import Counter

import numpy as np
import pytest

from tijepa.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, dispatch
from tijepa.dataprep import synth_generate, write_synth_dataset
from tijepa.encoders import write_rawt
from tijepa.errors import DataError
from tijepa.eval_head import ClassifierHead, load_head, save_head
from tijepa.trainer import (PretrainState, TiJepaConfig, load_checkpoint, read_tensor_file,
                            save_checkpoint)

ALLOWED_EXITS = {EXIT_OK, EXIT_USAGE, EXIT_DATA}


def mutate(blob: bytes, rng: random.Random) -> bytes:
    """``blob`` changed by one to three random flips, deletions, insertions or truncations."""
    data = bytearray(blob)
    while data == blob:
        data = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("flip", "flip", "delete", "insert", "truncate"))
            at = rng.randrange(len(data) + 1)
            if kind == "flip" and at < len(data):
                data[at] ^= 1 << rng.randrange(8)
            elif kind == "delete":
                del data[at:at + rng.randint(1, 8)]
            elif kind == "insert":
                data[at:at] = rng.randbytes(rng.randint(1, 8))
            elif kind == "truncate":
                del data[at:]
    return bytes(data)


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<Q", zlib.crc32(body))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The directory of the valid inputs (with a manifest of no pairs), and the bytes
    of one valid file of each kind."""
    root = tmp_path_factory.mktemp("fuzz")
    config = TiJepaConfig(image_size=16, patch_size=8, embed_dim=8, text_embed_dim=8,
                          encoder_depth=1, encoder_heads=2, max_text_len=8,
                          fusion_layers=1, fusion_heads=2, fusion_hidden=8,
                          predictor_depth=1, predictor_heads=2, predictor_width=8,
                          num_targets=2, tgt_scale_lo=0.15, tgt_scale_hi=0.3,
                          batch_size=4, total_steps=1, log_interval=1, checkpoint_interval=10)
    (root / "run.cfg").write_text(config.to_text())
    manifest = write_synth_dataset(synth_generate(4, 0, 16, labeled=True), root / "data")
    (root / "empty.tsv").write_text("")
    write_rawt(root / "image.rawt",
               np.random.default_rng(0).uniform(0.0, 1.0, (3, 16, 16)).astype(np.float32))
    (root / "ann.tsv").write_text("mvsa-single-pair-0001\tpositive\tneutral\n"
                                  "mvsa-single-pair-0002\tnegative\tnegative\n")
    (root / "metrics.log").write_text("1\t0.500000\t0.100000\t0.996000\n"
                                      "2\t0.400000\t0.100000\t0.997000\n")
    save_checkpoint(PretrainState.initialize(config), root / "ckpt.tijp")
    save_head(ClassifierHead(8, np.random.default_rng(0)), root / "head.tijp")
    valid = {
        "config": root / "run.cfg",
        "manifest": manifest,
        "annotations": root / "ann.tsv",
        "metrics_log": root / "metrics.log",
        "ppm": next((root / "data").rglob("*.ppm")),
        "rawt": root / "image.rawt",
        "checkpoint": root / "ckpt.tijp",
        "head": root / "head.tijp",
    }
    return root, {kind: path.read_bytes() for kind, path in valid.items()}


def _argv(kind: str, mutant: bytes, root) -> list[str]:
    """Write ``mutant`` where a command of ``kind`` reads it; the command's argv."""
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    data = root / "data"

    def pretrain(manifest=data / "manifest.tsv", config=root / "run.cfg"):
        return ["pretrain", "--config", str(config), "--data", str(manifest),
                "--out", str(work / "out")]
    if kind == "config":
        (work / "run.cfg").write_bytes(mutant)
        return pretrain(root / "empty.tsv", work / "run.cfg")
    if kind == "manifest":
        (data / "fuzz.tsv").write_bytes(mutant)  # beside the images it names
        return pretrain(data / "fuzz.tsv")
    if kind == "annotations":
        (work / "ann.tsv").write_bytes(mutant)
        return ["preprocess-mvsa", "--annotations", str(work / "ann.tsv"), "--mode", "single",
                "--out", str(work / "labels.tsv")]
    if kind == "metrics_log":
        (work / "out" / "metrics.log").write_bytes(mutant)
        return pretrain()
    if kind in ("ppm", "rawt"):
        (work / "fuzz.img").write_bytes(mutant)
        (work / "one.tsv").write_text("fuzz.img\t-\ta red square\n")
        return pretrain(work / "one.tsv")
    if kind == "checkpoint":
        # the load stops at the missing manifest, before any numerics can run
        (work / "checkpoint.tijp").write_bytes(mutant)
        return ["eval", "--ckpt", str(work / "checkpoint.tijp"), "--head", str(root / "head.tijp"),
                "--data", str(work / "absent.tsv")]
    (work / "head.tijp").write_bytes(mutant)
    return ["eval", "--ckpt", str(root / "ckpt.tijp"), "--head", str(work / "head.tijp"),
            "--data", str(data / "manifest.tsv"), "--split", "all"]


def _tensors(path) -> dict[str, np.ndarray]:
    # a load drops the tensors of the removed attention key bias
    return {name: arr for name, arr in read_tensor_file(path).items()
            if not name.endswith(".bk") and name != "meta.config"}


def _assert_round_trip(kind: str, path, work) -> bool:
    """False if ``path`` does not load; else check its re-saves, then True."""
    load, save = (load_checkpoint, save_checkpoint) if kind == "checkpoint" else \
        (load_head, save_head)
    try:
        model = load(path)
    except DataError:
        return False
    first, second = work / "first.tijp", work / "second.tijp"
    save(model, first)
    again = load(first)
    if kind == "checkpoint":
        assert again.config == model.config
    loaded, resaved = _tensors(path), _tensors(first)
    assert loaded.keys() == resaved.keys()
    for name, arr in loaded.items():
        assert np.array_equal(arr, resaved[name]), name
    save(again, second)
    assert first.read_bytes() == second.read_bytes()
    return True


# kind, number of mutants, and whether the CRC is fixed up after mutating
CASES = [
    ("config", 100, False),
    ("manifest", 40, False),
    ("annotations", 100, False),
    ("metrics_log", 30, False),
    ("ppm", 40, False),
    ("rawt", 40, False),
    ("checkpoint", 50, True),
    ("checkpoint", 20, False),
    ("head", 40, True),
    ("head", 20, False),
]


@pytest.mark.parametrize("kind, count, fix_crc", CASES,
                         ids=[f"{k}{'_crc_fixed' if c else ''}" for k, _, c in CASES])
def test_no_mutant_escapes_dispatch(files, caplog, kind, count, fix_crc):
    caplog.set_level(logging.ERROR, logger="tijepa")
    root, valid = files
    rng = random.Random(f"{kind}-{fix_crc}")
    exits, loads, escapes = Counter(), 0, []
    for i in range(count):
        blob = valid[kind]
        mutant = with_crc(mutate(blob[:-8], rng)) if fix_crc else mutate(blob, rng)
        argv = _argv(kind, mutant, root)
        try:
            exits[dispatch(argv)] += 1
        except Exception as exc:  # every escape is reported below
            escapes.append(f"mutant {i}: {type(exc).__name__}: {exc}")
            continue
        if kind in ("checkpoint", "head"):
            loads += _assert_round_trip(kind, root / "work" / f"{kind}.tijp", root / "work")
    assert not escapes, "\n".join(escapes)
    assert set(exits) <= ALLOWED_EXITS, exits
    if kind in ("checkpoint", "head"):
        assert (0 < loads < count) if fix_crc else loads == 0
    # an empty manifest stops every config mutant and a missing one every checkpoint
    # mutant; a model file whose CRC was not fixed up is always refused
    if kind in ("config", "checkpoint") or kind == "head" and not fix_crc:
        assert exits == {EXIT_DATA: count}, exits
    else:
        assert exits[EXIT_OK] and exits[EXIT_DATA], exits


def test_a_config_byte_that_changes_case_round_trips_to_the_canonical_spelling(files):
    # one bit turns the float32 code of 't' (116.0) into that of 'T' (84.0):
    # the mutant loads as the same config, and its re-save spells it 'true'
    root, valid = files
    body = bytearray(valid["checkpoint"][:-8])
    true_at = body.index(struct.pack("<4f", *b"true"))
    body[true_at + 2] ^= 0x40  # the top mantissa bit of the first float: 116 -> 84
    mutant, work = root / "true.tijp", root / "work"
    mutant.write_bytes(with_crc(bytes(body)))
    work.mkdir(exist_ok=True)
    assert _assert_round_trip("checkpoint", mutant, work)
    assert (work / "first.tijp").read_bytes() == valid["checkpoint"]
