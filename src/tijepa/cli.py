"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data/format error or an output path
that cannot be written, 3 numerical failure. The TIJEPA_LOG environment
variable (error | info | debug) controls verbosity; all randomness flows from
--seed, a non-negative integer defaulting to 0.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import os
import sys
from pathlib import Path

from . import dataprep, eval_head, trainer
from .core import fusion_gradient_check, pipeline_gradient_check
from .errors import DataError, NumericalError, TijepaError
from .numerics import FD_TOLERANCE, gradient_suite

logger = logging.getLogger("tijepa")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def non_negative_int(text: str) -> int:
    """The argparse type of every ``--seed``: an integer that is not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="tijepa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run masked-prediction pretraining")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--data", required=True, help="manifest of image/caption pairs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=non_negative_int, default=None, help="override the config seed")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key")

    p = sub.add_parser("finetune", help="train the sentiment head on a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="labeled manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=non_negative_int, default=0, help="head init and batch order")

    p = sub.add_parser("eval", help="evaluate a head on the test split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--data", required=True, help="labeled manifest")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--dump", action="store_true", help="also print key=value metrics")

    p = sub.add_parser("preprocess-mvsa", help="reconcile sentiment annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--mode", choices=("single", "multi"), required=True)
    p.add_argument("--out", required=True, help="output id<TAB>label file")
    p.add_argument("--stats", action="store_true", help="print the class-count table")

    p = sub.add_parser("synth", help="generate the synthetic colored-square dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--image-size", type=int, default=64)
    p.add_argument("--labeled", action="store_true")

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--seed", type=non_negative_int, default=0)

    p = sub.add_parser("inspect", help="list tensors in a checkpoint")
    p.add_argument("--ckpt", required=True)

    return parser


def _cmd_pretrain(args) -> int:
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    config = trainer.load_config(args.config, overrides)
    dataset = dataprep.load_manifest(args.data)
    result = trainer.train(config, dataset, out_dir=args.out)
    final = result.rows[-1] if result.rows else None
    if final is not None:
        print(f"finished {result.state.step} steps: loss={final.loss:.6f} "
              f"collapse={final.collapse:.6f}")
    print(f"checkpoint written to {Path(args.out) / 'checkpoint_final.tijp'}")
    return EXIT_OK


def _labeled_splits(args, whole: bool = False) -> tuple[trainer.PretrainState, dict[str, list]]:
    """The checkpoint and labeled manifest that ``finetune`` and ``eval`` read, in the one
    fixed train/val/test split; ``whole`` (``eval --split all``) takes every example unsplit."""
    state = trainer.load_checkpoint(args.ckpt)
    examples = dataprep.load_manifest(args.data)
    if any(e.label is None for e in examples):
        raise DataError(f"{args.command} manifest contains unlabeled examples")
    if whole:
        return state, {"all": examples}
    splits = dataprep.split_dataset(examples)
    return state, dict(zip(("train", "val", "test"), splits))


def _cmd_finetune(args) -> int:
    out = Path(args.out)
    made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
    out.mkdir(parents=True, exist_ok=True)
    try:
        state, splits = _labeled_splits(args)
        head, history = eval_head.finetune(state, splits["train"], splits["val"],
                                           epochs=args.epochs, lr=args.lr,
                                           batch_size=args.batch_size, seed=args.seed)
    except BaseException:
        # a refused fine-tune removes the directories it made, leaf first, while they are
        # empty; a cleanup that fails stops there and the original error still propagates
        for d in made:
            try:
                d.rmdir()
            except OSError:
                break
        raise
    head_path = out / "head.tijp"
    eval_head.save_head(head, head_path)
    if history.val_accuracies:
        print(f"final validation accuracy: {history.val_accuracies[-1]:.4f}")
    print(f"head written to {head_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    head = eval_head.load_head(args.head)  # a bad head fails before the manifest is read
    state, splits = _labeled_splits(args, whole=args.split == "all")
    subset = splits[args.split]
    if not subset:
        raise DataError(f"split '{args.split}' is empty")
    cm = eval_head.evaluate(state, head, subset)
    report = eval_head.compute_metrics(cm)
    print(eval_head.format_report(report))
    if args.dump:
        print(eval_head.dump_report(report))
    return EXIT_OK


def _cmd_preprocess_mvsa(args) -> int:
    pairs = dataprep.load_annotations(args.annotations)
    kept, stats = dataprep.reconcile_pairs(pairs, args.mode)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(f"{identifier}\t{label}\n" for identifier, label in kept),
                   encoding="utf-8")
    print(f"kept {stats.total_kept} of {stats.total_input} pairs -> {out}")
    if args.stats:
        print(stats.format_table())
    return EXIT_OK


def _cmd_synth(args) -> int:
    examples = dataprep.synth_generate(args.n, args.seed, args.image_size, args.labeled)
    manifest = dataprep.write_synth_dataset(examples, args.out)
    print(f"wrote {len(examples)} pairs, manifest at {manifest}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    checks = gradient_suite(args.seed)
    checks.append(("fusion_stack", fusion_gradient_check(args.seed)))
    checks.append(("prediction_pipeline", pipeline_gradient_check(args.seed)))
    failed = False
    for name, err in checks:
        status = "ok" if err < FD_TOLERANCE else "FAIL"
        print(f"{name}: max_rel_err={err:.3e} {status}")
        failed = failed or err >= FD_TOLERANCE
    if failed:
        print("gradient check FAILED")
        return EXIT_NUMERIC
    print("all ops passed")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    tensors = trainer.read_tensor_file(args.ckpt)
    for name in sorted(tensors):
        shape = "x".join(str(d) for d in tensors[name].shape) or "scalar"
        print(f"{name}\t{shape}")
    print(f"{len(tensors)} tensors")
    return EXIT_OK


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "eval": _cmd_eval,
    "preprocess-mvsa": _cmd_preprocess_mvsa,
    "synth": _cmd_synth,
    "gradcheck": _cmd_gradcheck,
    "inspect": _cmd_inspect,
}


def _setup_logging() -> None:
    level_name = os.environ.get("TIJEPA_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown TIJEPA_LOG value '{level_name}', using info",
              file=sys.stderr)
        level_name = "info"
    logging.basicConfig(level=levels[level_name],
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERIC
    except (TijepaError, OSError) as exc:
        logger.error("%s", exc)
        return EXIT_DATA


def main() -> None:
    _setup_logging()
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
