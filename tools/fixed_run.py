"""Run the fixed run and print one "file blake2b" line per output.

    python3 tools/fixed_run.py OUT_DIR

The fixed run: a synthetic corpus (4 users x 60 triples, strength 0.9,
seed 5) split 0.9 with seed 5; toy model sizes, anneal_batches 50, batch
16, 3 epochs, lr 0.002, training seed 5; every variant trained with
attention off and on through `pagen train`, then each evaluated with
`pagen evaluate` against the S2SA model of the same attention setting.
Every output is deterministic, so two trees give the same bits exactly
when `diff` of their printed lines is empty.
"""

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from pagen import cli  # noqa: E402
from pagen.model import VARIANTS  # noqa: E402

CONFIG = """word_embed_dim=32
user_embed_dim=16
encoder_hidden=32
decoder_hidden=64
z_dim=16
bow_hidden=64
fact_rank=8
anneal_batches=50
batch_size=16
epochs=3
lr=0.002
train_ratio=0.9
split_seed=5
"""


def pagen(*argv):
    """One CLI command with its stdout swallowed; a failure stops the run."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code:
        sys.exit(f"pagen {' '.join(argv)}: exit {code}")


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tools/fixed_run.py OUT_DIR")
    out = argv[0]
    os.makedirs(out, exist_ok=True)
    data = os.path.join(out, "corpus.tsv")
    pagen("gen-corpus", "--out", data, "--users", "4", "--triples-per-user", "60",
          "--strength", "0.9", "--seed", "5")
    for attention in ("false", "true"):
        config = os.path.join(out, f"attention_{attention}.cfg")
        with open(config, "w", encoding="utf-8") as f:
            f.write(CONFIG + f"use_attention={attention}\n")
        runs = {v: os.path.join(out, f"attention_{attention}", v) for v in VARIANTS}
        for variant, run in runs.items():
            pagen("train", "--config", config, "--data", data, "--out", run,
                  "--seed", "5", "--variant", variant)
        ref = os.path.join(runs["S2SA"], "model.ckpt")
        for run in runs.values():
            pagen("evaluate", "--model", os.path.join(run, "model.ckpt"), "--ref-model", ref,
                  "--data", os.path.join(run, "test.tsv"),
                  "--train-data", os.path.join(run, "train.tsv"), "--seed", "5",
                  "--out", os.path.join(run, "eval"))
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            print(os.path.relpath(path, out), cli.file_hash(path))


if __name__ == "__main__":
    main(sys.argv[1:])
