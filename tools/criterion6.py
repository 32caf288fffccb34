"""Print the criterion-6 text-informativeness margins for config seeds 0-2.

Runs the recipe of ``tests/test_acceptance.py``'s desk run once per config
seed: the default (desk) config with that seed, 200 steps on 256 synthetic
pairs drawn with seed 0, then ``caption_sensitivity`` over the first 64 pairs.
For each seed it prints the mean prediction loss with true captions, the loss
with captions shifted by one example, and their margin (permuted - true).

Run from the repository root (under a minute per seed on one core):

    PYTHONPATH=src python tools/criterion6.py [SEED ...]
"""

import sys

from tijepa.dataprep import synth_generate
from tijepa.trainer import TiJepaConfig, caption_sensitivity, train


def margins(seed: int) -> tuple[float, float, float]:
    dataset = synth_generate(256, seed=0)
    state = train(TiJepaConfig(seed=seed), dataset).state
    true_loss, permuted_loss = caption_sensitivity(state, dataset, limit=64)
    return true_loss, permuted_loss, permuted_loss - true_loss


def main(argv: list[str]) -> None:
    print("seed\ttrue_loss\tpermuted_loss\tmargin")
    for seed in [int(a) for a in argv] or [0, 1, 2]:
        true_loss, permuted_loss, margin = margins(seed)
        print(f"{seed}\t{true_loss:.4f}\t{permuted_loss:.4f}\t{margin:+.4f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
